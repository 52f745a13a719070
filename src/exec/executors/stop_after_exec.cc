// Executors for Carey–Kossmann STOP AFTER placements (topn/stop_after.h).
#include <algorithm>

#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/stop_after.h"

namespace moa {
namespace {

class StopAfterExecutor : public StrategyExecutor {
 public:
  explicit StopAfterExecutor(StopAfterOptions options) : options_(options) {}

  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return StopAfterTopN(*context.postings, *context.model, query, n,
                         options_);
  }

 private:
  StopAfterOptions options_;
};

CostCounters StopAfterConsCost(const StrategyCostInputs& in) {
  return MakeCostEstimate(in.Seq(in.volume), 0, in.volume,
                          in.candidates + in.n * in.log2_candidates(),
                          16.0 * in.candidates);
}

CostCounters StopAfterAggrCost(const StrategyCostInputs& in) {
  const double survivors = std::min(in.candidates, 1.5 * in.n);
  return MakeCostEstimate(in.Seq(in.volume), in.Random(512), in.volume,
                          in.candidates + survivors * in.log2_n(),
                          16.0 * survivors);
}

void RegisterOne(StrategyRegistry& registry, PhysicalStrategy strategy,
                 const char* name, StopAfterPolicy policy,
                 StrategyCostFn cost) {
  registry.MustRegister(
      strategy, name, /*safe=*/true,
      [policy](const ExecOptions& options) {
        StopAfterOptions opts;
        if (const StopAfterOptions* o = options.GetIf<StopAfterOptions>()) {
          opts = *o;
        }
        opts.policy = policy;
        return std::make_unique<StopAfterExecutor>(opts);
      },
      ExecOptionsIndexOf<StopAfterOptions>(), PlannerHooks{cost});
}

}  // namespace

void RegisterStopAfterExecutors(StrategyRegistry& registry) {
  RegisterOne(registry, PhysicalStrategy::kStopAfterConservative,
              "stop_after_cons", StopAfterPolicy::kConservative,
              &StopAfterConsCost);
  RegisterOne(registry, PhysicalStrategy::kStopAfterAggressive,
              "stop_after_aggr", StopAfterPolicy::kAggressive,
              &StopAfterAggrCost);
}

}  // namespace moa
