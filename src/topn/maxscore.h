// IR-side pruning strategies of the era the paper builds on (Brown's
// execution-performance work [Bro95] over INQUERY, and the Moffat–Zobel
// quit/continue accumulator strategies): term-at-a-time evaluation with
// max-score upper-bound administration.
//
// Terms are processed from most to least selective (ascending document
// frequency). After the i-th term, `remaining` = sum of the max weights of
// the unprocessed terms is an upper bound on what any not-yet-seen
// document can still score. Once the current n-th best lower bound reaches
// `remaining`:
//   kContinue — stop *creating* accumulators but keep updating existing
//               ones (safe: the top-N set is exact up to score ties);
//   kQuit     — stop processing entirely (unsafe: existing accumulators
//               keep partial scores; quality degrades gracefully).
// An optional accumulator budget caps memory like Moffat–Zobel's target
// accumulator counts (unsafe when it binds).
#ifndef MOA_TOPN_MAXSCORE_H_
#define MOA_TOPN_MAXSCORE_H_

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// What happens when the bound says new documents cannot enter the top N.
enum class PruneMode {
  kContinue,  ///< safe: no new accumulators, existing ones stay exact
  kQuit,      ///< unsafe: stop evaluating remaining terms altogether
};

/// \brief Tuning for MaxScoreTopN.
struct MaxScoreOptions {
  PruneMode mode = PruneMode::kContinue;
  /// Hard cap on live accumulators (0 = unlimited). When it binds the
  /// result may be approximate even in kContinue mode.
  size_t accumulator_budget = 0;
  /// Strict bound engagement (see BlockMaxOptions::strict): excluded
  /// documents score strictly below the final n-th score, preserving the
  /// exact (score desc, doc asc) ranking. Default keeps the classic
  /// non-strict test.
  bool strict = false;
  /// Externally known lower bound on the n-th best score (0 = none) — the
  /// distributed-max-score seed from the shard coordinator. Callers
  /// passing a nonzero threshold must set `strict` (see
  /// BlockMaxOptions::initial_threshold for why).
  double initial_threshold = 0.0;
};

/// Term-at-a-time evaluation with max-score pruning. Requires impact
/// bounds (PostingSource::HasImpacts: in-memory impact orders, or a
/// catalog snapshot's bounds under its statistics).
Result<TopNResult> MaxScoreTopN(const PostingSource& source,
                                const ScoringModel& model, const Query& query,
                                size_t n, const MaxScoreOptions& options = {});

}  // namespace moa

#endif  // MOA_TOPN_MAXSCORE_H_
