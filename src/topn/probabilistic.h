// Donjerkovic–Ramakrishnan probabilistic top-N optimization (TR-99-1395).
//
// Instead of a fixed safety factor, the cutoff is chosen from an estimated
// score distribution so that the probability of an underflow (< n results,
// forcing a restart) stays below 1 - confidence. The cutoff approximates
//   P(#docs with score >= cutoff  >=  n) >= confidence
// via a normal approximation on the sample-estimated count: target count
// n + z_confidence * sqrt(n).
#ifndef MOA_TOPN_PROBABILISTIC_H_
#define MOA_TOPN_PROBABILISTIC_H_

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// \brief Tuning for ProbabilisticTopN.
struct ProbabilisticOptions {
  /// Desired probability that the first pass already yields >= n survivors.
  double confidence = 0.95;
  /// Sample size for the score-distribution estimate.
  size_t sample_size = 512;
  /// Histogram resolution.
  int histogram_buckets = 128;
  /// RNG seed for sampling.
  uint64_t seed = 0xBADCAB;
};

/// Probabilistic cutoff execution; safe via restart (halving the cutoff,
/// falling back to 0 after 3 restarts). Dense accumulation through
/// cursors, so it runs over the in-memory file or a catalog snapshot.
Result<TopNResult> ProbabilisticTopN(const PostingSource& source,
                                     const ScoringModel& model,
                                     const Query& query, size_t n,
                                     const ProbabilisticOptions& options);

/// Inverse standard normal CDF (Acklam's rational approximation); exposed
/// for tests.
double InverseNormalCdf(double p);

}  // namespace moa

#endif  // MOA_TOPN_PROBABILISTIC_H_
