// E15 — the index lifecycle (ingest → flush → merge → delete) under the
// serving-shaped questions:
//
//  1. Ingest throughput: documents/second into the catalog, by batch size
//     (mutations are copy-on-write per call, so batching is the lever).
//  2. Flush latency: memtable → immutable MOAIF03 segment + sidecar +
//     manifest publish, as a function of buffered documents.
//  3. Query latency vs segment count: the same corpus served from 1, 2, 4
//     and 8 segments through the merged cursor (per-segment cursor setup
//     and chaining is the fragmentation tax).
//  4. Merge win: query latency over the fragmented catalog vs after
//     Merge() compacts it back to one segment (counter `frag_over_merged`
//     on the merged run: the ratio of the two sides' median pass times,
//     over the same number of passes, taken in alternation).
//  5. Ingest with automatic maintenance: the same durable ingest (WAL on,
//     periodic flush every `trigger` documents) with the flushes either
//     blocking the ingest thread (arg 0, foreground) or running as
//     background jobs on the shared pool (arg 1, BackgroundMaintenance).
//     The background/foreground items-per-second ratio is the headline
//     number; on a single-core runner the flush cannot overlap ingest
//     and the ratio honestly collapses toward 1.0.
//  6. The first query after a write: forced max-score and Fagin TA at one
//     and two shards, timed on the fresh snapshot a 100-term add
//     publishes and again on the same snapshot, warm (counter
//     `first_over_steady`), with the postings the first query scores for
//     its bounds and sorted access (`impact_postings_pq`).
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

#include "common/rng.h"
#include "common/timer.h"
#include "exec/registry.h"
#include "ir/query_gen.h"
#include "engine/database.h"
#include "engine/shard_coordinator.h"
#include "storage/catalog/background_jobs.h"
#include "storage/catalog/index_catalog.h"
#include "storage/catalog/sharded_catalog.h"

namespace moa {
namespace {

bool Tiny() { return std::getenv("MOA_BENCH_TINY") != nullptr; }

size_t CorpusDocs() { return Tiny() ? 2000 : 20000; }
size_t Vocab() { return Tiny() ? 3000 : 20000; }

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("moa_bench_e15_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic synthetic document, Zipf-ish term choice.
DocTerms SynthDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 20 + rng.Uniform(40);
  while (terms.size() < want) {
    // Squared uniform skews toward low ids — frequent head terms.
    const double u = rng.NextDouble();
    const TermId t = static_cast<TermId>(u * u * Vocab());
    terms.emplace(t, 1 + static_cast<uint32_t>(rng.Uniform(3)));
  }
  return DocTerms(terms.begin(), terms.end());
}

const std::vector<DocTerms>& Corpus() {
  static const std::vector<DocTerms>* corpus = [] {
    Rng rng(0xE15);
    auto* docs = new std::vector<DocTerms>();
    docs->reserve(CorpusDocs());
    for (size_t i = 0; i < CorpusDocs(); ++i) docs->push_back(SynthDoc(rng));
    return docs;
  }();
  return *corpus;
}

IndexCatalog::Options CatalogOptions(const std::string& dir) {
  IndexCatalog::Options options;
  options.num_terms = Vocab();
  options.dir = dir;
  return options;
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e15: %s: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

/// Query workload over the synthetic corpus's term space.
std::vector<Query> Workload(size_t num_queries) {
  Rng rng(0xBEEF15);
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

// ------------------------------------------------------------- ingest

void BM_IngestThroughput(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const std::vector<DocTerms>& corpus = Corpus();
  int64_t ingested = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto catalog = IndexCatalog::Create(CatalogOptions("")).ValueOrDie();
    state.ResumeTiming();
    size_t i = 0;
    while (i < corpus.size()) {
      const size_t n = std::min(batch, corpus.size() - i);
      std::vector<DocTerms> slice(corpus.begin() + i, corpus.begin() + i + n);
      auto first = catalog->AddDocuments(slice);
      if (!first.ok()) state.SkipWithError("ingest failed");
      i += n;
    }
    ingested = static_cast<int64_t>(corpus.size());
  }
  state.SetItemsProcessed(state.iterations() * ingested);
}

// -------------------------------------------------------------- flush

void BM_FlushLatency(benchmark::State& state) {
  const size_t docs = static_cast<size_t>(state.range(0));
  const std::vector<DocTerms>& corpus = Corpus();
  const std::string dir = FreshDir("flush");
  size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir + std::to_string(round));
    auto catalog =
        IndexCatalog::Create(CatalogOptions(dir + std::to_string(round)))
            .ValueOrDie();
    std::vector<DocTerms> slice(corpus.begin(),
                                corpus.begin() + std::min(docs, corpus.size()));
    if (!catalog->AddDocuments(slice).ok()) state.SkipWithError("add");
    state.ResumeTiming();
    MustOk(catalog->Flush(), "flush");
    state.PauseTiming();
    std::filesystem::remove_all(dir + std::to_string(round));
    ++round;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(docs));
}

// --------------------------------- ingest with automatic maintenance

/// Durable ingest of the whole corpus with a flush every `trigger`
/// buffered documents — either synchronously on the ingest thread
/// (foreground, arg 0) or scheduled by BackgroundMaintenance on the
/// shared thread pool while ingest keeps going (background, arg 1).
/// Both modes do identical logical work (same WAL traffic, same number
/// of segment builds), so items_per_second isolates what moving the
/// flush off the ingest thread buys.
void BM_IngestWithMaintenance(benchmark::State& state) {
  const bool background = state.range(0) != 0;
  const size_t trigger = Tiny() ? 256 : 1024;
  const size_t batch = 64;  // WAL group-commit unit
  const std::vector<DocTerms>& corpus = Corpus();
  const std::string dir = FreshDir(background ? "auto_bg" : "auto_fg");
  size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string d = dir + std::to_string(round++);
    std::filesystem::remove_all(d);
    auto catalog = IndexCatalog::Create(CatalogOptions(d)).ValueOrDie();
    state.ResumeTiming();
    if (background) {
      MaintenancePolicy policy;
      policy.flush_trigger_docs = trigger;
      policy.merge_trigger_segments = 0;
      BackgroundMaintenance maintenance(catalog.get(), policy);
      size_t i = 0;
      while (i < corpus.size()) {
        const size_t n = std::min(batch, corpus.size() - i);
        std::vector<DocTerms> slice(corpus.begin() + i,
                                    corpus.begin() + i + n);
        if (!catalog->AddDocuments(slice).ok()) {
          state.SkipWithError("ingest failed");
        }
        i += n;
      }
      maintenance.WaitIdle();
    } else {
      size_t i = 0;
      size_t buffered = 0;
      while (i < corpus.size()) {
        const size_t n = std::min(batch, corpus.size() - i);
        std::vector<DocTerms> slice(corpus.begin() + i,
                                    corpus.begin() + i + n);
        if (!catalog->AddDocuments(slice).ok()) {
          state.SkipWithError("ingest failed");
        }
        i += n;
        buffered += n;
        if (buffered >= trigger) {
          MustOk(catalog->Flush(), "flush");
          buffered = 0;
        }
      }
    }
    MustOk(catalog->Flush(), "final flush");
    state.PauseTiming();
    std::filesystem::remove_all(d);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}

// ------------------------------------- query latency vs segment count

/// The whole corpus flushed as `num_segments` equal segments.
std::unique_ptr<IndexCatalog> FragmentedCatalog(size_t num_segments,
                                                const std::string& dir) {
  auto catalog = IndexCatalog::Create(CatalogOptions(dir)).ValueOrDie();
  const std::vector<DocTerms>& corpus = Corpus();
  const size_t per_segment = (corpus.size() + num_segments - 1) / num_segments;
  size_t i = 0;
  while (i < corpus.size()) {
    const size_t n = std::min(per_segment, corpus.size() - i);
    std::vector<DocTerms> slice(corpus.begin() + i, corpus.begin() + i + n);
    MustOk(catalog->AddDocuments(slice).status(), "add");
    MustOk(catalog->Flush(), "flush");
    i += n;
  }
  return catalog;
}

/// Runs `queries` on one read view. Callers hold a view per catalog state,
/// as the engine holds its snapshot until the next write, so the view's
/// impact orders and bounds build on first use and serve every later pass.
double RunQueries(const ShardReadView& view,
                  const std::vector<Query>& queries) {
  ExecContext context;
  context.model = view.model();
  context.postings = &view;
  double checksum = 0;
  for (const Query& q : queries) {
    auto top = StrategyRegistry::Global().Execute(
        PhysicalStrategy::kMaxScore, context, q, 10, ExecOptions{});
    if (!top.ok()) std::abort();
    for (const ScoredDoc& d : top.ValueOrDie().items) checksum += d.score;
  }
  return checksum;
}

void BM_QueryBySegmentCount(benchmark::State& state) {
  const size_t num_segments = static_cast<size_t>(state.range(0));
  const std::string dir =
      FreshDir("segcount_" + std::to_string(num_segments));
  auto catalog = FragmentedCatalog(num_segments, dir);
  const std::vector<Query> queries = Workload(Tiny() ? 16 : 64);
  const auto view = catalog->OpenReadView();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQueries(*view, queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- merge win

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

void BM_QueryAfterMerge(benchmark::State& state) {
  // 8 segments, then one Merge(): the counter reports the fragmented /
  // merged latency ratio over the same workload. The fragmented view
  // outlives the merge (it keeps its snapshot and segments alive), so
  // every iteration times one pass over each, untimed by the framework
  // on the fragmented side; a drift in machine speed then moves both.
  const std::string dir = FreshDir("mergewin");
  auto catalog = FragmentedCatalog(8, dir);
  const std::vector<Query> queries = Workload(Tiny() ? 16 : 64);

  const auto fragmented = catalog->OpenReadView();
  MustOk(catalog->Merge().status(), "merge");
  const auto merged = catalog->OpenReadView();
  // Warm passes first: each snapshot's bounds and impact orders build on
  // first use and must not be charged to either side.
  benchmark::DoNotOptimize(RunQueries(*fragmented, queries));
  benchmark::DoNotOptimize(RunQueries(*merged, queries));

  std::vector<double> fragmented_millis;
  std::vector<double> merged_millis;
  for (auto _ : state) {
    state.PauseTiming();
    WallTimer fragmented_timer;
    benchmark::DoNotOptimize(RunQueries(*fragmented, queries));
    fragmented_millis.push_back(fragmented_timer.ElapsedMillis());
    state.ResumeTiming();
    WallTimer timer;
    benchmark::DoNotOptimize(RunQueries(*merged, queries));
    merged_millis.push_back(timer.ElapsedMillis());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  const double merged_median = Median(merged_millis);
  if (merged_median > 0) {
    state.counters["frag_over_merged"] =
        Median(fragmented_millis) / merged_median;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- first query after a write

void BM_FirstQueryAfterWrite(benchmark::State& state) {
  // A write publishes a fresh snapshot, whose impact orders and bounds
  // start empty; the next query pays for the ones it reads. The catalog is
  // a Zipf collection (the e14 storage shape) seeded by one delete, then
  // flushed and merged into one segment per shard, with the WAL off; the
  // queries are 60 of the e13 mixed class. Per iteration, untimed: one
  // 100-term add, then the snapshot. Timed: the first forced query on that
  // snapshot (the coordinator's bounds for every query term, then
  // execution), then the same query again, steady. The segments' layers
  // are built by an untimed first pass, as a serving catalog's are after
  // its first queries. Counters: the medians of both sides and their
  // ratio, and impact_postings and layer_postings per first query.
  const auto strategy = static_cast<PhysicalStrategy>(state.range(0));
  const auto shards = static_cast<size_t>(state.range(1));
  DatabaseConfig config;
  config.collection.num_docs = Tiny() ? 4000 : 20000;
  config.collection.vocabulary = Tiny() ? 6000 : 30000;
  config.collection.mean_doc_length = Tiny() ? 80 : 150;
  config.collection.zipf_skew = 1.0;
  config.collection.seed = 900913;
  config.scoring = ScoringModelKind::kBm25;
  config.catalog_dir = FreshDir("first_query_" +
                                std::to_string(state.range(0)) + "_" +
                                std::to_string(shards));
  config.num_shards = shards;
  config.wal_enabled = false;
  auto db = MmDatabase::Open(config).ValueOrDie();
  MustOk(db->DeleteDocument(0), "delete");
  MustOk(db->Flush(), "flush");
  MustOk(db->Merge().status(), "merge");
  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 60;
  qconfig.terms_per_query = 4;
  qconfig.distribution = QueryTermDistribution::kMixed;
  qconfig.seed = 31;
  const std::vector<Query> queries =
      GenerateQueries(db->collection(), qconfig).ValueOrDie();
  const ShardedCatalog& catalog = *db->sharded_catalog();
  ShardCoordinator::Options coordinator;
  coordinator.parallelism = 1;
  const auto run = [&](const std::shared_ptr<const ShardedSnapshot>& snap,
                       const Query& q) {
    auto top = ShardCoordinator::Execute(snap, strategy, q, 10,
                                         ExecOptions{}, coordinator);
    if (!top.ok()) std::abort();
    return std::move(top).ValueOrDie();
  };
  for (const Query& q : queries) run(catalog.Snapshot(), q);

  Rng rng(0xF125);
  std::vector<double> first_millis;
  std::vector<double> steady_millis;
  int64_t scored = 0;
  int64_t layered = 0;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::map<TermId, uint32_t> terms;
    while (terms.size() < 100) {
      terms.emplace(
          static_cast<TermId>(rng.Uniform(config.collection.vocabulary)),
          1 + static_cast<uint32_t>(rng.Uniform(3)));
    }
    MustOk(db->AddDocument(DocTerms(terms.begin(), terms.end())).status(),
           "write");
    const std::shared_ptr<const ShardedSnapshot> snap = catalog.Snapshot();
    const Query& q = queries[next++ % queries.size()];
    state.ResumeTiming();
    WallTimer first_timer;
    const TopNResult first = run(snap, q);
    first_millis.push_back(first_timer.ElapsedMillis());
    WallTimer steady_timer;
    const TopNResult steady = run(snap, q);
    steady_millis.push_back(steady_timer.ElapsedMillis());
    benchmark::DoNotOptimize(steady.items.data());
    scored += first.stats.cost.impact_postings;
    layered += first.stats.cost.layer_postings;
  }
  const double runs = static_cast<double>(first_millis.size());
  const double steady_median = Median(steady_millis);
  state.counters["first_ms"] = Median(first_millis);
  state.counters["steady_ms"] = steady_median;
  if (steady_median > 0) {
    state.counters["first_over_steady"] =
        Median(first_millis) / steady_median;
  }
  state.counters["impact_postings_pq"] = static_cast<double>(scored) / runs;
  state.counters["layer_postings_pq"] = static_cast<double>(layered) / runs;
  const std::string dir = config.catalog_dir;
  db.reset();
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_IngestThroughput)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FlushLatency)
    ->Arg(512)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestWithMaintenance)
    ->Arg(0)   // foreground: flush blocks the ingest thread
    ->Arg(1)   // background: BackgroundMaintenance on the shared pool
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_QueryBySegmentCount)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryAfterMerge)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FirstQueryAfterWrite)
    ->ArgNames({"strategy", "shards"})
    ->Args({static_cast<int64_t>(PhysicalStrategy::kMaxScore), 1})
    ->Args({static_cast<int64_t>(PhysicalStrategy::kMaxScore), 2})
    ->Args({static_cast<int64_t>(PhysicalStrategy::kFaginTA), 1})
    ->Args({static_cast<int64_t>(PhysicalStrategy::kFaginTA), 2})
    ->Iterations(120)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
