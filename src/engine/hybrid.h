// Integrated top-N over content + alphanumeric predicates.
//
// The paper's stated research interest is "optimization of integrated top
// N queries on several content and alpha numerical types". This module
// executes  SELECT doc ORDER BY score(doc) DESC WHERE lo <= attr(doc) <= hi
// STOP AFTER n  with the two classical plan shapes, and a cost-based
// chooser:
//
//   kFilterFirst — scan the attribute column into an allow-bitmap, then
//     rank only allowed documents. Work ~ D + V. Wins when the predicate
//     is selective (few survivors share little posting volume? no — the
//     posting volume is unchanged; it wins by never ranking disallowed
//     docs and never restarting).
//   kRankFirst — rank ignoring the predicate, keep the best k*n, filter,
//     restart with doubled k on underflow (Carey–Kossmann applied to the
//     integrated query). Wins when the predicate is non-selective: the
//     top-n of the unfiltered ranking almost surely contains n qualifying
//     docs and the attribute column is only probed n*k times.
#ifndef MOA_ENGINE_HYBRID_H_
#define MOA_ENGINE_HYBRID_H_

#include <vector>

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// Numeric range predicate over a per-document attribute column.
struct AttributePredicate {
  double lo = 0.0;
  double hi = 0.0;

  bool Matches(double v) const { return v >= lo && v <= hi; }
};

/// Physical plan for the integrated query.
enum class HybridPlan {
  kFilterFirst,
  kRankFirst,
  /// Pick by estimated predicate selectivity (sampled): rank-first when
  /// >= selectivity_crossover, filter-first otherwise.
  kAuto,
};

/// \brief Tuning for HybridTopN.
struct HybridOptions {
  HybridPlan plan = HybridPlan::kAuto;
  /// Initial over-fetch factor for kRankFirst: finite and >= 1. A factor
  /// whose fetch exceeds the ranking fetches all of it.
  double overfetch = 4.0;
  /// kAuto picks kRankFirst when estimated selectivity exceeds this.
  /// Calibrated on bench_e12: rank-first starts winning near 2-5%
  /// selectivity (the restart risk fades and the saved attribute scan
  /// dominates).
  double selectivity_crossover = 0.03;
  /// Sample size for the kAuto selectivity estimate.
  size_t sample_size = 256;
  uint64_t seed = 0xFACADE;
};

/// Executes the integrated query over any posting storage: the in-memory
/// file through an InMemoryPostingSource, a segment, or a catalog read
/// view. `attribute` holds one value per document id
/// (attribute.size() == source.num_docs(), which over a catalog counts
/// tombstoned slots too; no cursor yields them, so they never rank).
/// Exact under both plans (rank-first restarts on underflow).
/// `stats.restarts` counts rank-first restarts; `stats.stopped_early` is
/// set when rank-first succeeded without draining the full ranking.
/// InvalidArgument unless lo <= hi and the overfetch factor is valid.
Result<TopNResult> HybridTopN(const PostingSource& source,
                              const ScoringModel& model, const Query& query,
                              const std::vector<double>& attribute,
                              const AttributePredicate& predicate, size_t n,
                              const HybridOptions& options = {});

/// The plan kAuto would pick for this predicate (exposed for tests/benches).
HybridPlan ChooseHybridPlan(const std::vector<double>& attribute,
                            const AttributePredicate& predicate,
                            const HybridOptions& options);

}  // namespace moa

#endif  // MOA_ENGINE_HYBRID_H_
