// Baseline top-N strategies: the "unoptimized case" and the element-at-a-
// time bounded heap (what a custom IR system like INQUERY would do).
#ifndef MOA_TOPN_BASELINES_H_
#define MOA_TOPN_BASELINES_H_

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// \brief Unoptimized execution: accumulate every posting of every query
/// term, materialize all matching documents, full sort, cut at n. Safe.
///
/// This is the paper's reference point: "the unoptimized case".
/// Representation-agnostic via cursors (wrap an in-memory file in an
/// InMemoryPostingSource).
TopNResult FullSortTopN(const PostingSource& source, const ScoringModel& model,
                        const Query& query, size_t n);

/// \brief Accumulate all postings but keep only a bounded min-heap of the
/// current best n while scanning candidates. Safe; saves the full sort
/// (O(D log n) instead of O(D log D)).
TopNResult HeapTopN(const PostingSource& source, const ScoringModel& model,
                    const Query& query, size_t n);

}  // namespace moa

#endif  // MOA_TOPN_BASELINES_H_
