// E5 — the Fagin-family bound administration the paper builds on (FM,
// Fag98, Fag99): "one can take advantage of lists being ordered ... ending
// the processing as soon as it is certain that the required top N answers
// have been computed."
//
// Per (algorithm, N): the depth of sorted access, random accesses (also
// per distinct document seen), and the fraction of the query's postings
// volume actually touched. Expected shape: accesses << volume, growing
// with N; FA completes every seen document in every list (m random
// accesses each), TA makes fewer than m - 1 per document once its bound
// prunes probes; NRA does zero random access; the exhaustive baseline
// reads 100%.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace moa {
namespace {

int64_t WorkloadVolume() {
  int64_t v = 0;
  for (const Query& q : benchutil::ZipfWorkload()) {
    for (TermId t : q.terms) v += benchutil::Db().file().DocFrequency(t);
  }
  return v;
}

void RunFagin(benchmark::State& state, PhysicalStrategy strategy) {
  const size_t n = static_cast<size_t>(state.range(0));
  MmDatabase& db = benchutil::Db();
  int64_t sorted = 0, random = 0, candidates = 0;
  for (auto _ : state) {
    sorted = random = candidates = 0;
    for (const Query& q : benchutil::ZipfWorkload()) {
      auto r = db.Execute(strategy, q, n);
      sorted += r.ValueOrDie().stats.sorted_accesses;
      random += r.ValueOrDie().stats.random_accesses;
      candidates += r.ValueOrDie().stats.candidates;
      benchmark::DoNotOptimize(r.ValueOrDie().items.data());
    }
  }
  state.counters["sorted_accesses"] = static_cast<double>(sorted);
  state.counters["random_accesses"] = static_cast<double>(random);
  state.counters["random_per_candidate"] =
      static_cast<double>(random) / static_cast<double>(candidates);
  state.counters["volume_touched_pct"] =
      100.0 * static_cast<double>(sorted) /
      static_cast<double>(WorkloadVolume());
}

void BM_FaginFA(benchmark::State& state) {
  RunFagin(state, benchutil::StrategyOrDie("fagin_fa"));
}
void BM_FaginTA(benchmark::State& state) {
  RunFagin(state, benchutil::StrategyOrDie("fagin_ta"));
}
void BM_FaginNRA(benchmark::State& state) {
  RunFagin(state, benchutil::StrategyOrDie("fagin_nra"));
}

BENCHMARK(BM_FaginFA)->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FaginTA)->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FaginNRA)->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

/// Exhaustive baseline: touches 100% of the volume by construction.
void BM_ExhaustiveBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MmDatabase& db = benchutil::Db();
  int64_t seq = 0;
  for (auto _ : state) {
    seq = 0;
    for (const Query& q : benchutil::ZipfWorkload()) {
      TopNResult r =
          db.Execute(PhysicalStrategy::kHeap, q, n).ValueOrDie();
      seq += r.stats.cost.sequential_reads;
    }
  }
  state.counters["sorted_accesses"] = static_cast<double>(seq);
  state.counters["volume_touched_pct"] = 100.0;
}
BENCHMARK(BM_ExhaustiveBaseline)
    ->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
