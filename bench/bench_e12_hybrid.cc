// E12 (extension) — the paper's stated target workload: "integrated top N
// queries on several content and alpha numerical types". Sweeps predicate
// selectivity and reports the filter-first vs rank-first crossover plus
// what the auto chooser picks — the inter-type optimization decision the
// paper's Step 3 is meant to make.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/hybrid.h"

namespace moa {
namespace {

const std::vector<double>& Attribute() {
  static const std::vector<double>* attr = [] {
    const size_t n = benchutil::Db().exec_context().postings->num_docs();
    Rng rng(2024);
    auto* v = new std::vector<double>(n);
    for (size_t i = 0; i < n; ++i) (*v)[i] = rng.NextDouble() * 100.0;
    return v;
  }();
  return *attr;
}

void BM_HybridPlans(benchmark::State& state) {
  // selectivity in percent: predicate [0, sel).
  const double sel = static_cast<double>(state.range(0));
  const ExecContext context = benchutil::Db().exec_context();
  AttributePredicate pred{0.0, sel};

  double ff_work = 0.0, rf_work = 0.0;
  int rf_restarts = 0;
  int auto_rank_first = 0;
  for (auto _ : state) {
    ff_work = rf_work = 0.0;
    rf_restarts = 0;
    auto_rank_first = 0;
    for (const Query& q : benchutil::Workload()) {
      HybridOptions ff, rf, aut;
      ff.plan = HybridPlan::kFilterFirst;
      rf.plan = HybridPlan::kRankFirst;
      auto r1 = HybridTopN(*context.postings, *context.model, q, Attribute(),
                           pred, 10, ff);
      auto r2 = HybridTopN(*context.postings, *context.model, q, Attribute(),
                           pred, 10, rf);
      ff_work += r1.ValueOrDie().stats.cost.Scalar();
      rf_work += r2.ValueOrDie().stats.cost.Scalar();
      rf_restarts += r2.ValueOrDie().stats.restarts;
      auto_rank_first +=
          ChooseHybridPlan(Attribute(), pred, aut) == HybridPlan::kRankFirst
              ? 1
              : 0;
    }
  }
  state.counters["selectivity_pct"] = sel;
  state.counters["filter_first_work"] = ff_work;
  state.counters["rank_first_work"] = rf_work;
  state.counters["rf_over_ff"] = rf_work / ff_work;
  state.counters["rf_restarts"] = rf_restarts;
  state.counters["auto_picks_rank_first_pct"] =
      100.0 * auto_rank_first /
      static_cast<double>(benchutil::Workload().size());
}
BENCHMARK(BM_HybridPlans)
    ->Arg(1)->Arg(5)->Arg(20)->Arg(50)->Arg(90)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
