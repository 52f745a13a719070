#include "topn/baselines.h"

#include <algorithm>

#include "ir/exact_eval.h"
#include "obs/query_trace.h"

namespace moa {
namespace {

/// Shared: bounded min-heap selection over a dense score array.
std::vector<ScoredDoc> HeapSelect(const std::vector<double>& acc, size_t n) {
  auto weakest_first = [](const ScoredDoc& a, const ScoredDoc& b) {
    CostTicker::TickCompare();
    return ScoredDocLess(a, b);  // heap top = weakest under this comparator
  };
  std::vector<ScoredDoc> heap;
  heap.reserve(n);
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] <= 0.0) continue;
    const ScoredDoc sd{d, acc[d]};
    if (heap.size() < n) {
      heap.push_back(sd);
      std::push_heap(heap.begin(), heap.end(), weakest_first);
    } else if (n > 0 && ScoredDocLess(sd, heap.front())) {
      CostTicker::TickCompare();
      std::pop_heap(heap.begin(), heap.end(), weakest_first);
      heap.back() = sd;
      std::push_heap(heap.begin(), heap.end(), weakest_first);
    }
  }
  // sort_heap under this comparator leaves the best (ScoredDocLess-least)
  // element first — exactly the output order.
  std::sort_heap(heap.begin(), heap.end(), weakest_first);
  return heap;
}

}  // namespace

TopNResult FullSortTopN(const PostingSource& source, const ScoringModel& model,
                        const Query& query, size_t n) {
  TopNResult result;
  CostScope scope;
  std::vector<double> acc;
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    acc = AccumulateScores(source, model, query);
  }
  std::vector<ScoredDoc> docs;
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0.0) docs.push_back(ScoredDoc{d, acc[d]});
  }
  result.stats.candidates = static_cast<int64_t>(docs.size());
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    std::sort(docs.begin(), docs.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                CostTicker::TickCompare();
                return ScoredDocLess(a, b);
              });
  }
  if (docs.size() > n) docs.resize(n);
  result.items = std::move(docs);
  result.stats.cost = scope.Snapshot();
  return result;
}

TopNResult HeapTopN(const PostingSource& source, const ScoringModel& model,
                    const Query& query, size_t n) {
  TopNResult result;
  CostScope scope;
  std::vector<double> acc;
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    acc = AccumulateScores(source, model, query);
  }
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    result.items = HeapSelect(acc, n);
  }
  int64_t candidates = 0;
  for (double s : acc) candidates += (s > 0.0) ? 1 : 0;
  result.stats.candidates = candidates;
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
