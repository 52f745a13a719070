// Executors for the Fagin family (topn/fagin.h): FA, TA and NRA.
//
// All three are cursor-based: sorted access comes from
// PostingSource::OpenImpactCursor (materialized order in memory, the
// snapshot's cached impact order over a catalog shard, a per-call
// ImpactOrder elsewhere) and random access from the same cursor's
// FindWeight.
#include <algorithm>
#include <cmath>

#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/fagin.h"

namespace moa {
namespace {

FaginOptions OptionsFrom(const ExecOptions& options) {
  if (const FaginOptions* o = options.GetIf<FaginOptions>()) return *o;
  return FaginOptions{};
}

using FaginFn = Result<TopNResult> (*)(const PostingSource&,
                                       const ScoringModel&, const Query&,
                                       size_t, const FaginOptions&);

class FaginExecutor : public StrategyExecutor {
 public:
  FaginExecutor(FaginFn fn, FaginOptions options)
      : fn_(fn), options_(options) {}

  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate());
    return fn_(*context.postings, *context.model, query, n, options_);
  }

 private:
  FaginFn fn_;
  FaginOptions options_;
};

// On impact-ordered Zipf-weighted lists the threshold collapses far faster
// than the classical independence bound suggests; calibrated against
// bench_e5: per-list depth ~ n + sqrt(cand).
CostCounters FaginTACost(const StrategyCostInputs& in) {
  const double depth = in.n + std::sqrt(in.candidates);
  const double sorted = std::min(in.volume, in.active_terms * depth);
  const double random = sorted * (in.active_terms - 1.0);
  return MakeCostEstimate(in.Sorted(sorted), in.Random(random),
                          random + sorted, sorted * in.log2_n(), 0);
}

// FA's sorted phase runs ~4-6x deeper than TA's (it cannot stop on the
// threshold), and phase 2 random-accesses every seen document in every list.
CostCounters FaginFACost(const StrategyCostInputs& in) {
  const double depth = 5.0 * (in.n + std::sqrt(in.candidates));
  const double sorted = std::min(in.volume, in.active_terms * depth);
  const double seen = std::min(in.candidates, 2.0 * sorted);
  return MakeCostEstimate(in.Sorted(sorted), in.Random(seen * in.active_terms),
                          seen * in.active_terms, seen * in.log2_n(), 0);
}

// Without random access NRA must drain most of the volume before the
// per-candidate upper bounds drop below the n-th lower bound (bench_e5:
// 40-85% of the volume) — and every sorted posting pays candidate-map
// bookkeeping: a lookup/insert, lower- and upper-bound updates (the two
// score-equivalent evaluations below) and repeated termination checks
// against the n-th lower bound. Calibrated against bench_e13: NRA runs
// ~3x heap's wall time on the mixed workload, where the raw 0.6-volume
// scan alone would predict it 2.5x *cheaper* than heap.
CostCounters FaginNRACost(const StrategyCostInputs& in) {
  const double sorted = 0.6 * in.volume;
  return MakeCostEstimate(in.Sorted(sorted), 0, 2.0 * sorted, 12.0 * sorted,
                          0);
}

void RegisterOne(StrategyRegistry& registry, PhysicalStrategy strategy,
                 const char* name, FaginFn fn, StrategyCostFn cost) {
  PlannerHooks hooks;
  hooks.cost = cost;
  hooks.needs_active_terms = true;
  registry.MustRegister(strategy, name, /*safe=*/true,
                        [fn](const ExecOptions& options) {
                          return std::make_unique<FaginExecutor>(
                              fn, OptionsFrom(options));
                        },
                        ExecOptionsIndexOf<FaginOptions>(), hooks);
}

}  // namespace

void RegisterFaginExecutors(StrategyRegistry& registry) {
  RegisterOne(registry, PhysicalStrategy::kFaginFA, "fagin_fa", &FaginFA,
              &FaginFACost);
  RegisterOne(registry, PhysicalStrategy::kFaginTA, "fagin_ta", &FaginTA,
              &FaginTACost);
  RegisterOne(registry, PhysicalStrategy::kFaginNRA, "fagin_nra", &FaginNRA,
              &FaginNRACost);
}

}  // namespace moa
