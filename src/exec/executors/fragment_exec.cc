// Executors for the paper's Step-1 fragment strategies
// (topn/fragment_topn.h): small-fragment-only, quality-switch with a full
// large-fragment scan, and quality-switch with sparse-index probes.
//
// Cursor-based, and all three require a Fragmentation — the engine
// derives one from live statistics for catalog snapshots (see
// MmDatabase).
#include <algorithm>

#include "exec/builtin.h"
#include "exec/registry.h"
#include "topn/fragment_topn.h"

namespace moa {
namespace {

class SmallFragmentExecutor : public StrategyExecutor {
 public:
  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate(/*needs_fragmentation=*/true));
    return SmallFragmentTopN(*context.postings, *context.fragmentation,
                             *context.model, query, n);
  }
};

class QualitySwitchExecutor : public StrategyExecutor {
 public:
  explicit QualitySwitchExecutor(QualitySwitchOptions options)
      : options_(options) {}

  Result<TopNResult> Execute(const ExecContext& context, const Query& query,
                             size_t n) const override {
    MOA_RETURN_NOT_OK(context.Validate(/*needs_fragmentation=*/true));
    QualitySwitchOptions opts = options_;
    if (opts.sparse_cache == nullptr) opts.sparse_cache = context.sparse_cache;
    return QualitySwitchTopN(*context.postings, *context.fragmentation,
                             *context.model, query, n, opts);
  }

 private:
  QualitySwitchOptions options_;
};

CostCounters SmallFragmentCost(const StrategyCostInputs& in) {
  const double vs = in.small_volume;
  return MakeCostEstimate(in.Seq(vs), 0, vs, vs + in.n * in.log2_n(), 0);
}

// Assume the check fires (frequent terms almost always can shift the top
// n); cost = both passes + final selection.
CostCounters QualitySwitchFullCost(const StrategyCostInputs& in) {
  const double total = in.small_volume + in.large_volume;
  return MakeCostEstimate(
      in.Seq(total), 0, total,
      in.candidates + in.n * in.log2_n() * in.log2_candidates(), 0);
}

// Per probe: one directory descent + half a block scan.
CostCounters QualitySwitchSparseCost(const StrategyCostInputs& in) {
  const double pool = 4.0 * in.n;
  const double probes = in.large_active_terms * pool;
  const double block = 64.0;
  return MakeCostEstimate(in.Seq(in.small_volume + probes * block / 2.0),
                          in.Random(probes), in.small_volume + probes,
                          in.candidates + in.n * in.log2_n(), 0);
}

// Quality constants: expected overlap@n loss per unit of postings mass the
// strategy never (fully) reads, measured against exact safe runs on the
// e13 lifecycle corpus (overlap@10 of small_fragment ~0.9 at ~30% large
// share; sparse probes recover most of that because the pool re-reads the
// large fragment's strongest candidates).
constexpr double kSmallFragmentMissWeight = 0.35;
constexpr double kSparseProbeMissWeight = 0.08;

double LargeShare(const StrategyCostInputs& in) {
  const double total = in.small_volume + in.large_volume;
  return total <= 0.0 ? 0.0 : in.large_volume / total;
}

double SmallFragmentQuality(const StrategyCostInputs& in) {
  return std::max(0.0, 1.0 - kSmallFragmentMissWeight * LargeShare(in));
}

double QualitySwitchSparseQuality(const StrategyCostInputs& in) {
  return std::max(0.0, 1.0 - kSparseProbeMissWeight * LargeShare(in));
}

void RegisterSwitch(StrategyRegistry& registry, PhysicalStrategy strategy,
                    const char* name, bool safe, LargeFragmentMode mode,
                    const PlannerHooks& hooks) {
  registry.MustRegister(
      strategy, name, safe,
      [mode](const ExecOptions& options) {
        QualitySwitchOptions opts;
        if (const QualitySwitchOptions* o =
                options.GetIf<QualitySwitchOptions>()) {
          opts = *o;
        } else {
          opts.switch_threshold = options.switch_threshold;
        }
        opts.mode = mode;
        return std::make_unique<QualitySwitchExecutor>(opts);
      },
      ExecOptionsIndexOf<QualitySwitchOptions>(), hooks);
}

}  // namespace

void RegisterFragmentExecutors(StrategyRegistry& registry) {
  PlannerHooks small_hooks;
  small_hooks.cost = &SmallFragmentCost;
  small_hooks.quality = &SmallFragmentQuality;
  small_hooks.needs_fragmentation = true;
  registry.MustRegister(PhysicalStrategy::kSmallFragment, "small_fragment",
                        /*safe=*/false,
                        [](const ExecOptions&) {
                          return std::make_unique<SmallFragmentExecutor>();
                        },
                        kNoStrategyOptions, small_hooks);

  PlannerHooks full_hooks;
  full_hooks.cost = &QualitySwitchFullCost;
  full_hooks.needs_fragmentation = true;
  RegisterSwitch(registry, PhysicalStrategy::kQualitySwitchFull,
                 "quality_switch_full", /*safe=*/true,
                 LargeFragmentMode::kFullScan, full_hooks);

  PlannerHooks sparse_hooks;
  sparse_hooks.cost = &QualitySwitchSparseCost;
  sparse_hooks.quality = &QualitySwitchSparseQuality;
  sparse_hooks.needs_fragmentation = true;
  RegisterSwitch(registry, PhysicalStrategy::kQualitySwitchSparse,
                 "quality_switch_sparse", /*safe=*/false,
                 LargeFragmentMode::kSparseProbe, sparse_hooks);
}

}  // namespace moa
