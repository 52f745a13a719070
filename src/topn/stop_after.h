// Carey–Kossmann STOP AFTER processing ("Reducing the Braking Distance of
// an SQL Query Engine", VLDB'98), adapted to the MM ranking pipeline.
//
// The ranking query is  SELECT doc, score(doc) ORDER BY score DESC STOP
// AFTER n. Two placements of the stop operator:
//   Conservative — stop above the sort: all candidates are materialized,
//     the sort is replaced by a bounded sort-stop. Always one pass; safe.
//   Aggressive — a cutoff predicate derived from a score-sample estimate is
//     pushed below the sort, discarding most candidates before they are
//     materialized. If fewer than n survive, the plan *restarts* with a
//     relaxed cutoff (the braking-distance risk the paper alludes to).
#ifndef MOA_TOPN_STOP_AFTER_H_
#define MOA_TOPN_STOP_AFTER_H_

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// Placement of the stop operator.
enum class StopAfterPolicy { kConservative, kAggressive };

/// \brief Tuning for StopAfterTopN.
struct StopAfterOptions {
  StopAfterPolicy policy = StopAfterPolicy::kConservative;
  /// Sample size used to estimate the aggressive cutoff.
  size_t sample_size = 512;
  /// Safety factor on the targeted survivor count (>1 lowers the cutoff,
  /// reducing restart risk at the price of more survivors).
  double safety = 1.5;
  /// Benchmark knob modelling cardinality mis-estimation: the estimated
  /// cutoff is multiplied by this (e.g. 1.3 = over-confident cutoff that
  /// provokes restarts). 1.0 = honest estimate.
  double estimate_bias = 1.0;
  /// Histogram resolution for the cutoff estimate.
  int histogram_buckets = 128;
  /// RNG seed for sampling.
  uint64_t seed = 0xC0FFEE;
};

/// Executes the ranking with a STOP AFTER n operator. Safe: restarts until
/// n results (or all candidates) are produced. The scoring stage is
/// cursor-based.
Result<TopNResult> StopAfterTopN(const PostingSource& source,
                                 const ScoringModel& model, const Query& query,
                                 size_t n, const StopAfterOptions& options);

}  // namespace moa

#endif  // MOA_TOPN_STOP_AFTER_H_
