// Executors for the baseline strategies (topn/baselines.h): the
// unoptimized full sort and the bounded-heap scan. Neither takes typed
// strategy options, so both register with the default kNoStrategyOptions
// and the registry rejects any typed payload aimed at them.
#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/baselines.h"

namespace moa {
namespace {

class FullSortExecutor : public StrategyExecutor {
 public:
  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return FullSortTopN(*context.postings, *context.model, query, n);
  }
};

class HeapExecutor : public StrategyExecutor {
 public:
  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return HeapTopN(*context.postings, *context.model, query, n);
  }
};

CostCounters FullSortCost(const StrategyCostInputs& in) {
  return MakeCostEstimate(in.Seq(in.volume), 0, in.volume,
                          in.candidates * in.log2_candidates(), 0);
}

// One heap-offer per candidate; offers past the n-th cost ~log n but most
// candidates fail the cheap threshold compare.
CostCounters HeapCost(const StrategyCostInputs& in) {
  return MakeCostEstimate(
      in.Seq(in.volume), 0, in.volume,
      in.candidates + in.n * in.log2_n() * in.log2_candidates(), 0);
}

}  // namespace

void RegisterBaselineExecutors(StrategyRegistry& registry) {
  registry.MustRegister(PhysicalStrategy::kFullSort, "full_sort",
                        /*safe=*/true,
                        [](const ExecOptions&) {
                          return std::make_unique<FullSortExecutor>();
                        },
                        kNoStrategyOptions, PlannerHooks{&FullSortCost});
  registry.MustRegister(PhysicalStrategy::kHeap, "heap", /*safe=*/true,
                        [](const ExecOptions&) {
                          return std::make_unique<HeapExecutor>();
                        },
                        kNoStrategyOptions, PlannerHooks{&HeapCost});
}

}  // namespace moa
