// The paper's Step-1 operators: fragment-restricted evaluation, the
// quality-check switch, and the sparse-index large-fragment probe.
//
//   SmallFragmentTopN   — "processing only a small portion of the data ...
//                          containing the 95% most interesting terms":
//                          evaluate only the query terms that live in the
//                          small fragment. Unsafe: documents whose score
//                          depends on frequent terms are mis-ranked.
//   QualitySwitchTopN   — "a check early in the query plan that is able to
//                          detect when the answer quality would be better
//                          when the other fragment would be used. This
//                          allows query processing to switch accordingly in
//                          time": after the small-fragment pass, an upper
//                          bound on the large fragment's possible score
//                          contribution decides whether to process it.
//   Large-fragment modes: full scan (safe), or probing a candidate pool
//                          through a non-dense index ("introduce a
//                          non-dense index ... allow for extra computations
//                          while still decreasing execution time").
#ifndef MOA_TOPN_FRAGMENT_TOPN_H_
#define MOA_TOPN_FRAGMENT_TOPN_H_

#include "ir/query_gen.h"
#include "storage/fragmentation.h"
#include "storage/sparse_index.h"
#include "storage/sparse_index_cache.h"
#include "topn/topn_result.h"

namespace moa {

/// How the large fragment is processed when the quality check fires.
enum class LargeFragmentMode {
  /// Never touch the large fragment (degenerates to SmallFragmentTopN).
  kSkip,
  /// Scan all large-fragment postings of the query (safe).
  kFullScan,
  /// Probe a bounded candidate pool through per-term sparse indexes:
  /// cheaper than a scan, exact for pooled candidates, but documents
  /// containing *only* frequent query terms stay invisible.
  kSparseProbe,
};

/// \brief Tuning for QualitySwitchTopN.
struct QualitySwitchOptions {
  /// The large fragment is processed iff
  ///   (upper bound of its score contribution) > switch_threshold * (current
  ///   n-th best score).
  /// 0.0 = always process when any query term lives there (safest);
  /// large values = rarely process (approaches the unsafe variant).
  double switch_threshold = 0.0;
  LargeFragmentMode mode = LargeFragmentMode::kFullScan;
  /// Candidate pool size for kSparseProbe; 0 means 4 * n.
  size_t candidate_pool = 0;
  /// Champion candidates per large-fragment term for kSparseProbe: the
  /// first `champions` entries of the term's impact order join the pool, so
  /// documents whose score rests solely on frequent terms stay reachable.
  /// 0 means 4 * n.
  size_t champions = 0;
  /// Sparse-index block size for kSparseProbe.
  uint32_t sparse_block = 64;
  /// Optional cache of sparse indexes keyed by term (owned by the caller;
  /// built on demand when absent). Nullptr builds throw-away indexes. The
  /// cache is internally synchronized: concurrent queries may share one.
  SparseIndexCache* sparse_cache = nullptr;
};

// Both operators are cursor-based (streaming scans via OpenCursor,
// champions via OpenImpactCursor, upper bounds via MaxImpact), so the same
// Step-1 code serves the in-memory file, a mmap segment and a catalog
// snapshot.

/// Unsafe small-fragment-only evaluation.
TopNResult SmallFragmentTopN(const PostingSource& source,
                             const Fragmentation& frag,
                             const ScoringModel& model, const Query& query,
                             size_t n);

/// Small-fragment pass + quality check + optional large-fragment pass.
/// With mode=kFullScan and switch_threshold=0 the result is exact. Requires
/// impact metadata (for the per-term upper bounds) when the large fragment
/// contains query terms.
Result<TopNResult> QualitySwitchTopN(const PostingSource& source,
                                     const Fragmentation& frag,
                                     const ScoringModel& model,
                                     const Query& query, size_t n,
                                     const QualitySwitchOptions& options);

}  // namespace moa

#endif  // MOA_TOPN_FRAGMENT_TOPN_H_
