#include "engine/hybrid.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "ir/exact_eval.h"

namespace moa {
namespace {

std::vector<ScoredDoc> SelectTop(std::vector<ScoredDoc> docs, size_t n) {
  const size_t k = std::min(n, docs.size());
  std::partial_sort(docs.begin(), docs.begin() + k, docs.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      CostTicker::TickCompare();
                      return ScoredDocLess(a, b);
                    });
  docs.resize(k);
  return docs;
}

TopNResult FilterFirst(const PostingSource& source, const ScoringModel& model,
                       const Query& query,
                       const std::vector<double>& attribute,
                       const AttributePredicate& predicate, size_t n) {
  TopNResult result;
  CostScope scope;
  // Predicate scan: one sequential read + compare per document.
  std::vector<bool> allowed(attribute.size());
  for (size_t d = 0; d < attribute.size(); ++d) {
    CostTicker::TickSeq();
    CostTicker::TickCompare();
    allowed[d] = predicate.Matches(attribute[d]);
  }
  std::vector<double> acc = AccumulateScores(source, model, query);
  std::vector<ScoredDoc> docs;
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0.0 && allowed[d]) docs.push_back(ScoredDoc{d, acc[d]});
  }
  result.stats.candidates = static_cast<int64_t>(docs.size());
  result.items = SelectTop(std::move(docs), n);
  result.stats.cost = scope.Snapshot();
  return result;
}

TopNResult RankFirst(const PostingSource& source, const ScoringModel& model,
                     const Query& query,
                     const std::vector<double>& attribute,
                     const AttributePredicate& predicate, size_t n,
                     double overfetch) {
  TopNResult result;
  CostScope scope;
  std::vector<double> acc = AccumulateScores(source, model, query);
  std::vector<ScoredDoc> ranking;
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0.0) ranking.push_back(ScoredDoc{d, acc[d]});
  }
  result.stats.candidates = static_cast<int64_t>(ranking.size());

  // Probe the attribute only for the ranked prefix; double on underflow.
  // Only the prefix is ever sorted (bounded sort-stop, not a full sort).
  // The fetch is capped at the ranking before the cast, which a factor
  // past size_t would overflow.
  size_t fetch = std::max<size_t>(
      1, static_cast<size_t>(
             std::min(overfetch * static_cast<double>(n),
                      static_cast<double>(ranking.size()))));
  for (;;) {
    const size_t limit = std::min(fetch, ranking.size());
    std::partial_sort(ranking.begin(), ranking.begin() + limit, ranking.end(),
                      [](const ScoredDoc& a, const ScoredDoc& b) {
                        CostTicker::TickCompare();
                        return ScoredDocLess(a, b);
                      });
    std::vector<ScoredDoc> qualifying;
    for (size_t i = 0; i < limit; ++i) {
      CostTicker::TickRandom();  // point attribute lookup
      CostTicker::TickCompare();
      if (predicate.Matches(attribute[ranking[i].doc])) {
        qualifying.push_back(ranking[i]);
        if (qualifying.size() == n) break;
      }
    }
    if (qualifying.size() >= n || limit >= ranking.size()) {
      result.stats.stopped_early = limit < ranking.size();
      result.items = std::move(qualifying);
      break;
    }
    ++result.stats.restarts;
    fetch *= 2;
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace

HybridPlan ChooseHybridPlan(const std::vector<double>& attribute,
                            const AttributePredicate& predicate,
                            const HybridOptions& options) {
  if (options.plan != HybridPlan::kAuto) return options.plan;
  if (attribute.empty()) return HybridPlan::kFilterFirst;
  Rng rng(options.seed);
  const size_t samples = std::min(options.sample_size, attribute.size());
  size_t hits = 0;
  for (size_t i = 0; i < samples; ++i) {
    CostTicker::TickRandom();
    hits += predicate.Matches(attribute[rng.Uniform(attribute.size())]) ? 1 : 0;
  }
  const double selectivity =
      samples == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(samples);
  return selectivity >= options.selectivity_crossover ? HybridPlan::kRankFirst
                                                      : HybridPlan::kFilterFirst;
}

Result<TopNResult> HybridTopN(const PostingSource& source,
                              const ScoringModel& model, const Query& query,
                              const std::vector<double>& attribute,
                              const AttributePredicate& predicate, size_t n,
                              const HybridOptions& options) {
  if (attribute.size() != source.num_docs()) {
    return Status::InvalidArgument(
        "attribute column length must equal num_docs");
  }
  // Negated comparisons, so that a NaN fails them too.
  if (!(predicate.lo <= predicate.hi)) {
    return Status::InvalidArgument("predicate needs lo <= hi");
  }
  if (!(options.overfetch >= 1.0) || std::isinf(options.overfetch)) {
    return Status::InvalidArgument("overfetch must be finite and >= 1");
  }
  const HybridPlan plan = ChooseHybridPlan(attribute, predicate, options);
  if (plan == HybridPlan::kFilterFirst) {
    return FilterFirst(source, model, query, attribute, predicate, n);
  }
  return RankFirst(source, model, query, attribute, predicate, n,
                   options.overfetch);
}

}  // namespace moa
