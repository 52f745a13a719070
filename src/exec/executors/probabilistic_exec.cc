// Executor for the Donjerkovic–Ramakrishnan probabilistic cutoff
// (topn/probabilistic.h). Cursor-based: the cutoff estimation only needs
// the dense score accumulation, which streams through PostingCursors over
// any storage.
#include <algorithm>
#include <cmath>

#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/probabilistic.h"

namespace moa {
namespace {

class ProbabilisticExecutor : public StrategyExecutor {
 public:
  explicit ProbabilisticExecutor(ProbabilisticOptions options)
      : options_(options) {}

  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return ProbabilisticTopN(*context.postings, *context.model, query, n,
                             options_);
  }

 private:
  ProbabilisticOptions options_;
};

CostCounters ProbabilisticCost(const StrategyCostInputs& in) {
  const double survivors =
      std::min(in.candidates, in.n + 2.0 * std::sqrt(in.n));
  return MakeCostEstimate(in.Seq(in.volume), in.Random(512), in.volume,
                          in.candidates + survivors * in.log2_n(),
                          16.0 * survivors);
}

}  // namespace

void RegisterProbabilisticExecutors(StrategyRegistry& registry) {
  registry.MustRegister(
      PhysicalStrategy::kProbabilistic, "probabilistic", /*safe=*/true,
      [](const ExecOptions& options) {
        ProbabilisticOptions opts;
        if (const ProbabilisticOptions* o =
                options.GetIf<ProbabilisticOptions>()) {
          opts = *o;
        }
        return std::make_unique<ProbabilisticExecutor>(opts);
      },
      ExecOptionsIndexOf<ProbabilisticOptions>(),
      PlannerHooks{&ProbabilisticCost});
}

}  // namespace moa
