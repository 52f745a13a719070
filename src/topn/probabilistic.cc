#include "topn/probabilistic.h"

#include <algorithm>
#include <cmath>

#include "common/histogram.h"
#include "common/rng.h"
#include "ir/exact_eval.h"
#include "obs/query_trace.h"

namespace moa {

double InverseNormalCdf(double p) {
  // Peter Acklam's approximation; |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  if (p <= 0.0) return -1e9;
  if (p >= 1.0) return 1e9;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

Result<TopNResult> ProbabilisticTopN(const PostingSource& source,
                                     const ScoringModel& model,
                                     const Query& query, size_t n,
                                     const ProbabilisticOptions& options) {
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  TopNResult result;
  CostScope scope;

  std::vector<double> acc;
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    acc = AccumulateScores(source, model, query);
  }
  std::vector<DocId> candidates;
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0.0) candidates.push_back(d);
  }
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  // Sample + cutoff selection: the rest is one heap_merge span.
  obs::TraceSpan select_span(obs::kStageHeapMerge);
  Rng rng(options.seed);
  const size_t sample_size = std::min(options.sample_size, candidates.size());
  std::vector<double> sample;
  sample.reserve(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    const DocId d = candidates[rng.Uniform(candidates.size())];
    CostTicker::TickRandom();
    sample.push_back(acc[d]);
  }

  double cutoff = 0.0;
  if (!sample.empty() && !candidates.empty()) {
    Histogram hist = Histogram::FromData(sample, options.histogram_buckets);
    // Target survivor count with confidence slack: n + z * sqrt(n).
    const double z = InverseNormalCdf(options.confidence);
    const double target_pop =
        static_cast<double>(n) + z * std::sqrt(static_cast<double>(n));
    const double frac = static_cast<double>(sample.size()) /
                        static_cast<double>(candidates.size());
    const int64_t target = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(target_pop * frac)));
    cutoff = hist.ValueWithCountAbove(target);
  }

  for (;;) {
    std::vector<ScoredDoc> survivors;
    for (DocId d : candidates) {
      CostTicker::TickCompare();
      if (acc[d] >= cutoff) {
        CostTicker::TickBytes(16);
        survivors.push_back(ScoredDoc{d, acc[d]});
      }
    }
    if (survivors.size() >= std::min(n, candidates.size())) {
      result.stats.stopped_early = survivors.size() < candidates.size();
      const size_t k = std::min(n, survivors.size());
      std::partial_sort(survivors.begin(), survivors.begin() + k,
                        survivors.end(),
                        [](const ScoredDoc& a, const ScoredDoc& b) {
                          CostTicker::TickCompare();
                          return ScoredDocLess(a, b);
                        });
      survivors.resize(k);
      result.items = std::move(survivors);
      break;
    }
    ++result.stats.restarts;
    if (cutoff <= 0.0) {
      const size_t k = std::min(n, survivors.size());
      std::partial_sort(survivors.begin(), survivors.begin() + k,
                        survivors.end(),
                        [](const ScoredDoc& a, const ScoredDoc& b) {
                          return ScoredDocLess(a, b);
                        });
      survivors.resize(k);
      result.items = std::move(survivors);
      break;
    }
    cutoff = (result.stats.restarts >= 3) ? 0.0 : cutoff * 0.5;
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
