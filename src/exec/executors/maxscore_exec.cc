// Executors for term-at-a-time max-score pruning (topn/maxscore.h):
// the safe `continue` mode and the unsafe Moffat–Zobel-style `quit`.
#include <algorithm>
#include <cmath>

#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/maxscore.h"

namespace moa {
namespace {

class MaxScoreExecutor : public StrategyExecutor {
 public:
  explicit MaxScoreExecutor(MaxScoreOptions options) : options_(options) {}

  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return MaxScoreTopN(*context.postings, *context.model, query, n,
                        options_);
  }

 private:
  MaxScoreOptions options_;
};

// All postings are read; scoring stops for non-accumulated docs once the
// bound binds. Rare terms insert ~their volume; the frequent tail mostly
// updates. Model: full seq, ~60% scored, nth-refresh compares per term.
CostCounters MaxScoreCost(const StrategyCostInputs& in) {
  return MakeCostEstimate(in.Seq(in.volume), 0, 0.6 * in.volume,
                          in.candidates + in.active_terms * in.candidates * 0.1 +
                              in.n * in.log2_n(),
                          0);
}

// QUIT stops after the selective (rare) terms have filled the top n: work
// tracks the TA-like depth, not the volume (bench_e11: the frequent tail
// is never touched).
double QuitTouched(const StrategyCostInputs& in) {
  return std::min(in.volume, 2.0 * in.active_terms *
                                 (in.n + std::sqrt(in.candidates)));
}

CostCounters QuitPruneCost(const StrategyCostInputs& in) {
  const double touched = QuitTouched(in);
  return MakeCostEstimate(in.Seq(touched), 0, touched,
                          touched + in.n * in.log2_n(), 0);
}

// Quality loss tracks the untouched tail: docs whose frequent-term-only
// contributions would have entered the top n. Weight measured against the
// exact oracle on the e13 lifecycle corpus (overlap@10 stays >= ~0.85 even
// when QUIT skips most of the volume, because the skipped tail carries
// little score mass on Zipf-weighted lists).
constexpr double kQuitMissWeight = 0.15;

double QuitPruneQuality(const StrategyCostInputs& in) {
  if (in.volume <= 0.0) return 1.0;
  const double skipped = 1.0 - QuitTouched(in) / in.volume;
  return std::max(0.0, 1.0 - kQuitMissWeight * skipped);
}

void RegisterOne(StrategyRegistry& registry, PhysicalStrategy strategy,
                 const char* name, bool safe, PruneMode mode,
                 StrategyCostFn cost, StrategyQualityFn quality) {
  PlannerHooks hooks;
  hooks.cost = cost;
  hooks.quality = quality;
  hooks.needs_active_terms = true;
  registry.MustRegister(
      strategy, name, safe,
      [mode](const ExecOptions& options) {
        MaxScoreOptions opts;
        if (const MaxScoreOptions* o = options.GetIf<MaxScoreOptions>()) {
          opts = *o;
        }
        opts.mode = mode;
        return std::make_unique<MaxScoreExecutor>(opts);
      },
      ExecOptionsIndexOf<MaxScoreOptions>(), hooks);
}

}  // namespace

void RegisterMaxScoreExecutors(StrategyRegistry& registry) {
  RegisterOne(registry, PhysicalStrategy::kMaxScore, "maxscore",
              /*safe=*/true, PruneMode::kContinue, &MaxScoreCost, nullptr);
  RegisterOne(registry, PhysicalStrategy::kQuitPrune, "quit_prune",
              /*safe=*/false, PruneMode::kQuit, &QuitPruneCost,
              &QuitPruneQuality);
}

}  // namespace moa
