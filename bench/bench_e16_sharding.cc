// E16 — sharded scatter-gather top-N vs the single-catalog baseline.
//
// The same corpus is loaded into a ShardedCatalog at 1, 2 and 4 shards
// (interleaved global ids, one merged segment per shard) and served
// through ShardCoordinator::Execute with forced max-score. Per shard
// count and query class the bench reports
//
//   qps                    end-to-end queries/second (wall);
//   work_per_query         the exact cost-scalar work per query
//                          (CostCounters::Scalar() over the workload);
//   naive_work_per_query   ditto with bound_pruning off — the naive
//                          scatter-gather baseline;
//   span_per_query         critical-path work: max per-shard unseeded
//                          cost, what a full-width parallel wave's wall
//                          time tracks on multi-core hardware;
//   skip_rate              shards skipped / shards considered — the
//                          bound-aware pruning rate;
//   postings_skipped_pq    local postings the skipped shards would have
//                          streamed, per query.
//
// Two query classes: `mixed` (4 squared-uniform terms, head-heavy — the
// throughput class whose span(1)/span(4) ratio is the >=1.5x
// acceptance speedup at 4 shards) and `selective` (one mid-tail term —
// small volume, where whole shards drop below the global n-th bound and
// the skip rate must be nonzero).
//
// Hardware caveat: on a single-CPU container the shard waves serialize,
// so wall qps *declines* slightly with shard count (per-shard heap-fill
// overhead) while the span ratio measures the intra-query parallel
// speedup the sharding buys once cores exist. Read wall, total-work and
// span ratios side by side for that reason.
//
// MOA_BENCH_TINY=1 shrinks the corpus so the CI smoke job finishes in
// seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/rng.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "storage/catalog/sharded_catalog.h"

namespace moa {
namespace {

bool Tiny() { return std::getenv("MOA_BENCH_TINY") != nullptr; }

size_t CorpusDocs() { return Tiny() ? 2000 : 20000; }
size_t Vocab() { return Tiny() ? 3000 : 20000; }

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("moa_bench_e16_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic synthetic document, Zipf-ish term choice (same corpus
/// shape as bench_e15 so the two lifecycle benches stay comparable).
DocTerms SynthDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 20 + rng.Uniform(40);
  while (terms.size() < want) {
    const double u = rng.NextDouble();
    const TermId t = static_cast<TermId>(u * u * Vocab());
    terms.emplace(t, 1 + static_cast<uint32_t>(rng.Uniform(3)));
  }
  return DocTerms(terms.begin(), terms.end());
}

const std::vector<DocTerms>& Corpus() {
  static const std::vector<DocTerms>* corpus = [] {
    Rng rng(0xE16);
    auto* docs = new std::vector<DocTerms>();
    docs->reserve(CorpusDocs());
    for (size_t i = 0; i < CorpusDocs(); ++i) docs->push_back(SynthDoc(rng));
    return docs;
  }();
  return *corpus;
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e16: %s: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

/// The corpus sharded `num_shards` ways, flushed and merged to one
/// segment per shard — the steady serving state.
std::unique_ptr<ShardedCatalog> BuildSharded(size_t num_shards,
                                             const std::string& dir) {
  ShardedCatalog::Options options;
  options.num_shards = num_shards;
  options.shard.num_terms = Vocab();
  options.shard.dir = dir;
  auto catalog = ShardedCatalog::Create(options).ValueOrDie();
  MustOk(catalog->AddDocuments(Corpus()).status(), "add");
  MustOk(catalog->FlushAll(), "flush");
  MustOk(catalog->MergeAll().status(), "merge");
  return catalog;
}

/// Head-heavy 4-term queries: the throughput class.
std::vector<Query> MixedWorkload(size_t num_queries) {
  Rng rng(0xBEEF16);
  std::vector<Query> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    Query q;
    while (q.terms.size() < 4) {
      const double u = rng.NextDouble();
      const TermId t = static_cast<TermId>(u * u * Vocab());
      if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end()) {
        q.terms.push_back(t);
      }
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Single mid-tail term per query: the selective lookup class. The shard
/// bound is one max impact, so a shard whose best posting cannot beat
/// the global n-th gets skipped outright — the class where bound-aware
/// gather shows its skip rate.
std::vector<Query> SelectiveWorkload(size_t num_queries) {
  Rng rng(0x5E1E16);
  std::vector<Query> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    Query q;
    q.terms.push_back(
        static_cast<TermId>(Vocab() / 8 + rng.Uniform(7 * Vocab() / 8)));
    queries.push_back(std::move(q));
  }
  return queries;
}

struct RunStats {
  double checksum = 0.0;
  CostCounters cost;
};

RunStats RunQueries(const ShardedCatalog& catalog,
                    const std::vector<Query>& queries, bool bound_pruning) {
  auto snapshot = catalog.Snapshot();
  ShardCoordinator::Options options;  // parallelism auto
  options.bound_pruning = bound_pruning;
  RunStats stats;
  for (const Query& q : queries) {
    auto top = ShardCoordinator::Execute(snapshot, PhysicalStrategy::kMaxScore,
                                         q, 10, ExecOptions{}, options);
    if (!top.ok()) std::abort();
    const TopNResult& result = top.ValueOrDie();
    for (const ScoredDoc& d : result.items) stats.checksum += d.score;
    stats.cost += result.stats.cost;
  }
  return stats;
}

/// Critical-path work per query: every shard executed independently
/// (unseeded — exactly what a full-width parallel wave runs), taking the
/// max per-shard cost scalar. On multi-core hardware the wave's wall
/// time tracks this span, so span(1 shard) / span(N shards) is the
/// intra-query parallel speedup the sharding buys once cores exist —
/// measurable honestly even on a single-CPU box.
double SpanPerQuery(const ShardedCatalog& catalog,
                    const std::vector<Query>& queries) {
  auto snapshot = catalog.Snapshot();
  double total = 0.0;
  for (const Query& q : queries) {
    double span = 0.0;
    for (size_t s = 0; s < snapshot->num_shards(); ++s) {
      ExecContext context;
      context.model = &snapshot->shard_model(s);
      context.postings = &snapshot->shard_source(s);
      context.sparse_cache = &snapshot->shard_sparse_cache(s);
      auto top = StrategyRegistry::Global().Execute(
          PhysicalStrategy::kMaxScore, context, q, 10, ExecOptions{});
      if (!top.ok()) std::abort();
      span = std::max(span, top.ValueOrDie().stats.cost.Scalar());
    }
    total += span;
  }
  return total / static_cast<double>(queries.size());
}

void RunShardedBench(benchmark::State& state, const std::vector<Query>& queries,
                     const char* tag) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const std::string dir =
      FreshDir(std::string(tag) + "_" + std::to_string(num_shards));
  auto catalog = BuildSharded(num_shards, dir);

  // Warm pass: the snapshot's per-shard impact-bound caches build on
  // first use and must not be charged to the measured runs.
  benchmark::DoNotOptimize(RunQueries(*catalog, queries, true));

  RunStats last;
  for (auto _ : state) {
    last = RunQueries(*catalog, queries, true);
    benchmark::DoNotOptimize(last.checksum);
  }
  // Outside the timed loop: the naive scatter-gather baseline (no skip,
  // no threshold seeding) and the unseeded critical path.
  const RunStats naive = RunQueries(*catalog, queries, false);
  const double span = SpanPerQuery(*catalog, queries);
  const double per_query = static_cast<double>(queries.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * per_query,
      benchmark::Counter::kIsRate);
  state.counters["work_per_query"] = last.cost.Scalar() / per_query;
  const double considered = static_cast<double>(last.cost.shards_visited +
                                                last.cost.shards_skipped);
  state.counters["skip_rate"] =
      considered > 0
          ? static_cast<double>(last.cost.shards_skipped) / considered
          : 0.0;
  state.counters["postings_skipped_pq"] =
      static_cast<double>(last.cost.shard_postings_skipped) / per_query;
  state.counters["naive_work_per_query"] = naive.cost.Scalar() / per_query;
  state.counters["span_per_query"] = span;
  std::filesystem::remove_all(dir);
}

void BM_ShardedMixed(benchmark::State& state) {
  static const std::vector<Query>* queries =
      new std::vector<Query>(MixedWorkload(Tiny() ? 24 : 64));
  RunShardedBench(state, *queries, "mixed");
}

void BM_ShardedSelective(benchmark::State& state) {
  static const std::vector<Query>* queries =
      new std::vector<Query>(SelectiveWorkload(Tiny() ? 24 : 64));
  RunShardedBench(state, *queries, "selective");
}

BENCHMARK(BM_ShardedMixed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedSelective)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
