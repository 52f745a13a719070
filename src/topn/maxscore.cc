#include "topn/maxscore.h"

#include <algorithm>
#include <unordered_map>

#include "obs/query_trace.h"
#include "topn/block_max.h"

namespace moa {

Result<TopNResult> MaxScoreTopN(const PostingSource& source,
                                const ScoringModel& model, const Query& query,
                                size_t n, const MaxScoreOptions& options) {
  TopNResult result;
  CostScope scope;

  // Order terms by ascending document frequency: the most selective terms
  // build the accumulator set; the frequent terms mostly update it.
  std::vector<TermId> terms;
  {
    obs::TraceSpan span(obs::kStageCursorOpen);
    for (TermId t : query.terms) {
      if (source.DocFrequency(t) > 0) {
        if (!source.HasImpacts(t)) {
          return Status::FailedPrecondition(
              "MaxScoreTopN requires impact orders for max weights");
        }
        terms.push_back(t);
      }
    }
    std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
      if (source.DocFrequency(a) != source.DocFrequency(b)) {
        return source.DocFrequency(a) < source.DocFrequency(b);
      }
      return a < b;
    });
  }

  // Accumulation with the classic non-strict engagement test by default
  // (the result is exact up to score ties; the shard coordinator opts
  // into strict + a seeded threshold); once pruning engages, the helper
  // probes block-max bounds instead of scanning the remaining lists.
  BlockMaxOptions bm;
  bm.n = n;
  bm.mode = options.mode;
  bm.accumulator_budget = options.accumulator_budget;
  bm.strict = options.strict;
  bm.initial_threshold = options.initial_threshold;
  BlockMaxOutcome outcome;
  std::unordered_map<DocId, double> acc;
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    acc = BlockMaxAccumulate(source, model, terms, bm, &outcome);
  }
  result.stats.stopped_early = outcome.stopped_early;

  // Final selection.
  result.stats.candidates = static_cast<int64_t>(acc.size());
  std::vector<ScoredDoc> docs;
  docs.reserve(acc.size());
  for (const auto& [d, s] : acc) docs.push_back(ScoredDoc{d, s});
  const size_t k = std::min(n, docs.size());
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    std::partial_sort(docs.begin(), docs.begin() + k, docs.end(),
                      [](const ScoredDoc& a, const ScoredDoc& b) {
                        CostTicker::TickCompare();
                        return ScoredDocLess(a, b);
                      });
  }
  docs.resize(k);
  result.items = std::move(docs);
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
