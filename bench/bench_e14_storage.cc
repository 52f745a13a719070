// E14 — posting storage: the compressed block-based MOAIF03 segment
// against the in-memory InvertedFile it encodes. Five questions:
//
//  1. Space: on-disk segment bytes against the raw posting bytes of the
//     same collection, 8 B per (doc, tf) posting plus 4 B per document
//     length (counters `raw_bytes`, `segment_bytes`, `raw_over_segment`).
//     The acceptance bar is >= 2x.
//  2. Cold start: SegmentReader::Open maps the file and validates the
//     directories only — postings decode lazily per block.
//  3. Hot path: full-list scan and skip-heavy advance_to throughput via
//     the cursor API over both representations — the segment's block
//     cursor opened by SegmentReader::OpenCursor, which the catalog's
//     merged cursor chains — plus the raw vector-direct scan as the
//     no-abstraction reference.
//  4. Sorted access: the impact-ordered prefix the Fagin family reads —
//     materialized in memory, and served warm from a catalog snapshot's
//     emitted impact-order prefixes — and the cold side of that cache: a
//     fresh snapshot's bounds and 64-entry prefixes, emitted from the
//     segment's dominance layers, and the one-time build of those layers
//     when a segment first serves a term.
//  5. Random access: the Fagin family's probes through the term's impact
//     cursor — a binary search on the in-memory list, or on the segment's
//     decoded doc-ordered postings, weighed per hit — against a block
//     cursor opened and skipped per probe over the segment, the probe
//     random access used to make over storage without a materialized
//     order.
//
// MOA_BENCH_TINY=1 shrinks the collection so the CI smoke job finishes
// in seconds.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/timer.h"
#include "engine/database.h"
#include "ir/query_gen.h"
#include "storage/catalog/sharded_catalog.h"
#include "storage/segment/segment_reader.h"
#include "storage/segment/segment_writer.h"

namespace moa {
namespace {

bool Tiny() { return std::getenv("MOA_BENCH_TINY") != nullptr; }

/// Separate from benchutil::Db(): the storage sweep wants a CI-shrinkable
/// collection (same shape as the e13 throughput bench).
MmDatabase& StorageDb() {
  static MmDatabase* db = [] {
    DatabaseConfig config;
    config.collection.num_docs = Tiny() ? 4000 : 20000;
    config.collection.vocabulary = Tiny() ? 6000 : 30000;
    config.collection.mean_doc_length = Tiny() ? 80 : 150;
    config.collection.zipf_skew = 1.0;
    config.collection.seed = 900913;
    config.fragmentation.small_volume_fraction = 0.05;
    config.scoring = ScoringModelKind::kBm25;
    return MmDatabase::Open(config).ValueOrDie().release();
  }();
  return *db;
}

std::string PathFor(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("moa_bench_e14_") + name))
      .string();
}

/// Writes the segment once and records its size next to the raw posting
/// bytes it encodes.
struct StoredSegment {
  std::string path = PathFor("index.moaseg");
  uint64_t raw_bytes = 0;
  uint64_t segment_bytes = 0;

  StoredSegment() {
    MmDatabase& db = StorageDb();
    const Status written = WriteSegment(db.file(), path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_e14: write failed: %s\n",
                   written.ToString().c_str());
      std::abort();
    }
    raw_bytes = 8 * static_cast<uint64_t>(db.file().num_postings()) +
                4 * static_cast<uint64_t>(db.file().num_docs());
    segment_bytes = std::filesystem::file_size(path);
  }
};

StoredSegment& Stored() {
  static StoredSegment* stored = new StoredSegment();
  return *stored;
}

/// The segment, opened once and shared by every segment benchmark.
const SegmentReader& Segment() {
  static const SegmentReader* reader =
      SegmentReader::Open(Stored().path).ValueOrDie().release();
  return *reader;
}

/// The query-term working set: every term of a mixed workload (frequent
/// and rare terms, like real retrieval traffic touches).
const std::vector<TermId>& WorkloadTerms() {
  static const std::vector<TermId>* terms = [] {
    QueryWorkloadConfig config;
    config.num_queries = Tiny() ? 16 : 64;
    config.terms_per_query = 4;
    config.distribution = QueryTermDistribution::kMixed;
    config.seed = 1414;
    auto queries =
        GenerateQueries(StorageDb().collection(), config).ValueOrDie();
    auto* t = new std::vector<TermId>();
    for (const Query& q : queries) {
      t->insert(t->end(), q.terms.begin(), q.terms.end());
    }
    return t;
  }();
  return *terms;
}

// ---------------------------------------------------------------- space

void BM_OnDiskSize(benchmark::State& state) {
  // Not a timing benchmark: runs once to surface the size counters.
  for (auto _ : state) {
    benchmark::DoNotOptimize(Stored().segment_bytes);
  }
  state.counters["raw_bytes"] = static_cast<double>(Stored().raw_bytes);
  state.counters["segment_bytes"] =
      static_cast<double>(Stored().segment_bytes);
  state.counters["raw_over_segment"] =
      static_cast<double>(Stored().raw_bytes) /
      static_cast<double>(Stored().segment_bytes);
}

// ----------------------------------------------------------- cold start

void BM_ColdStartMmapOpen(benchmark::State& state) {
  for (auto _ : state) {
    auto reader = SegmentReader::Open(Stored().path);
    if (!reader.ok()) state.SkipWithError("open failed");
    benchmark::DoNotOptimize(reader.ValueOrDie()->num_terms());
  }
}

// ------------------------------------------------------ scan throughput

template <typename SourceFn>
void ScanBench(benchmark::State& state, SourceFn&& source_fn) {
  const auto& source = source_fn();
  int64_t postings = 0;
  for (auto _ : state) {
    uint64_t checksum = 0;
    postings = 0;
    for (TermId t : WorkloadTerms()) {
      for (auto cursor = source.OpenCursor(t); !cursor->at_end();
           cursor->next()) {
        checksum += cursor->doc() + cursor->tf();
        ++postings;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * postings);
}

void BM_ScanRawVectors(benchmark::State& state) {
  // No-abstraction reference: direct vector iteration, what the storage
  // layer did before the cursor API.
  const InvertedFile& file = StorageDb().file();
  int64_t postings = 0;
  for (auto _ : state) {
    uint64_t checksum = 0;
    postings = 0;
    for (TermId t : WorkloadTerms()) {
      const PostingList& list = file.list(t);
      for (size_t i = 0; i < list.size(); ++i) {
        checksum += list[i].doc + list[i].tf;
        ++postings;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * postings);
}

void BM_ScanInMemoryCursor(benchmark::State& state) {
  ScanBench(state, []() -> const PostingSource& {
    static const InMemoryPostingSource s(&StorageDb().file());
    return s;
  });
}

void BM_ScanSegmentCursor(benchmark::State& state) {
  ScanBench(state, Segment);
}

/// The block-batch scan idiom (PostingCursor::block_postings): one
/// virtual call per block instead of four per posting, so throughput is
/// decode-bound rather than dispatch-bound. This is how a segment decodes
/// a term's list for its dominance layers.
template <typename SourceFn>
void ScanBlocksBench(benchmark::State& state, SourceFn&& source_fn) {
  const auto& source = source_fn();
  int64_t postings = 0;
  for (auto _ : state) {
    uint64_t checksum = 0;
    postings = 0;
    for (TermId t : WorkloadTerms()) {
      auto cursor = source.OpenCursor(t);
      while (!cursor->at_end()) {
        const DocId* docs;
        const uint32_t* tfs;
        const size_t m = cursor->block_postings(&docs, &tfs);
        if (m == 0) {
          checksum += cursor->doc() + cursor->tf();
          ++postings;
          cursor->next();
          continue;
        }
        for (size_t i = 0; i < m; ++i) checksum += docs[i] + tfs[i];
        postings += static_cast<int64_t>(m);
        cursor->shallow_advance(cursor->block_last_doc() + 1);
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * postings);
}

void BM_ScanSegmentBlocks(benchmark::State& state) {
  ScanBlocksBench(state, Segment);
}

// --------------------------------------------------- advance throughput

template <typename SourceFn>
void AdvanceBench(benchmark::State& state, SourceFn&& source_fn) {
  const auto& source = source_fn();
  // Skip-heavy access: stride through each list in jumps of ~1/32 of the
  // doc space, the pattern of merge-joins and sparse probes.
  const DocId stride =
      static_cast<DocId>(StorageDb().file().num_docs() / 32 + 1);
  int64_t probes = 0;
  for (auto _ : state) {
    uint64_t checksum = 0;
    probes = 0;
    for (TermId t : WorkloadTerms()) {
      auto cursor = source.OpenCursor(t);
      for (DocId target = stride; !cursor->at_end(); target += stride) {
        cursor->advance_to(target);
        checksum += cursor->doc();
        ++probes;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * probes);
}

void BM_AdvanceInMemoryCursor(benchmark::State& state) {
  AdvanceBench(state, []() -> const PostingSource& {
    static const InMemoryPostingSource s(&StorageDb().file());
    return s;
  });
}

void BM_AdvanceSegmentCursor(benchmark::State& state) {
  AdvanceBench(state, Segment);
}

// ------------------------------------------- impact-order prefix access

/// Sorted access the way the Fagin family consumes it: only the top-k
/// impact-ordered postings of each workload term.
void ImpactPrefixPass(const PostingSource& source, const ScoringModel& model,
                      uint64_t* checksum, int64_t* emitted) {
  const size_t prefix = 64;
  for (TermId t : WorkloadTerms()) {
    auto cursor = source.OpenImpactCursor(t, model);
    for (size_t i = 0; i < prefix && !cursor->at_end(); ++i, cursor->next()) {
      *checksum += cursor->doc();
      ++*emitted;
    }
  }
}

void ImpactPrefixBench(benchmark::State& state, const PostingSource& source,
                       const ScoringModel& model) {
  int64_t emitted = 0;
  for (auto _ : state) {
    uint64_t checksum = 0;
    emitted = 0;
    ImpactPrefixPass(source, model, &checksum, &emitted);
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * emitted);
}

void BM_ImpactPrefixInMemory(benchmark::State& state) {
  static const InMemoryPostingSource source(&StorageDb().file());
  ImpactPrefixBench(state, source, StorageDb().model());
}

/// The same collection flushed into a one-shard catalog: one bit-packed
/// segment, an empty memtable.
const ShardedCatalog& FlushedCatalog() {
  static const ShardedCatalog* catalog = [] {
    DatabaseConfig config = StorageDb().config();
    config.catalog_dir = PathFor("catalog");
    std::filesystem::remove_all(config.catalog_dir);
    MmDatabase* db = MmDatabase::Open(config).ValueOrDie().release();
    const Status flushed = db->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "bench_e14: flush failed: %s\n",
                   flushed.ToString().c_str());
      std::abort();
    }
    return db->sharded_catalog();
  }();
  return *catalog;
}

/// The flushed catalog's snapshot after one warming pass: every workload
/// term's impact order has emitted its 64-entry prefix on it.
const ShardedSnapshot& WarmCatalog() {
  static const std::shared_ptr<const ShardedSnapshot>* snapshot = [] {
    auto* snap = new std::shared_ptr<const ShardedSnapshot>(
        FlushedCatalog().Snapshot());
    uint64_t checksum = 0;
    int64_t emitted = 0;
    ImpactPrefixPass((*snap)->shard_source(0), (*snap)->shard_model(0),
                     &checksum, &emitted);
    return snap;
  }();
  return **snapshot;
}

void BM_ImpactPrefixCatalogWarm(benchmark::State& state) {
  // The timed passes only read emitted prefixes of cached orders.
  ImpactPrefixBench(state, WarmCatalog().shard_source(0),
                    WarmCatalog().shard_model(0));
}

void BM_ImpactPrefixCatalogCold(benchmark::State& state) {
  // What the first queries on a fresh snapshot pay for sorted access: per
  // workload term its bound (the coordinator takes one for every query
  // term) and the first 64 entries of its impact order, emitted from the
  // segment's dominance layers (a repeated term reads the prefix its
  // first use emitted). A fresh one-shard snapshot per iteration, made and
  // dropped untimed; the segment's layers are built before timing, as
  // every snapshot after the segment's first queries finds them. Items are
  // the postings scored.
  const std::shared_ptr<const CatalogState> state_ptr =
      FlushedCatalog().shard(0).Snapshot();
  const auto fresh_snapshot = [&] {
    return std::make_shared<const ShardedSnapshot>(
        std::vector<std::shared_ptr<const CatalogState>>{state_ptr},
        StorageDb().config().scoring);
  };
  for (TermId t : WorkloadTerms()) {
    state_ptr->segments()[0]->reader->Layers(t);
  }
  int64_t scored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto snapshot = fresh_snapshot();
    const CostScope scope;
    state.ResumeTiming();
    double checksum = 0.0;
    for (TermId t : WorkloadTerms()) checksum += snapshot->ShardTermBound(0, t);
    uint64_t docs = 0;
    int64_t emitted = 0;
    ImpactPrefixPass(snapshot->shard_source(0), snapshot->shard_model(0),
                     &docs, &emitted);
    benchmark::DoNotOptimize(checksum);
    benchmark::DoNotOptimize(docs);
    state.PauseTiming();
    scored += scope.Snapshot().impact_postings;
    snapshot.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(scored);
}

void BM_SegmentLayerBuild(benchmark::State& state) {
  // A segment's first use of each workload term: decode the term's list
  // and group its postings into dominance layers. A fresh reader per
  // iteration, opened and closed untimed; `ns_per_posting` divides the
  // build time by the postings grouped.
  const std::string& path = Stored().path;
  int64_t layered = 0;
  double build_ms = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<SegmentReader> reader =
        SegmentReader::Open(path).ValueOrDie();
    const CostScope scope;
    state.ResumeTiming();
    WallTimer timer;
    size_t layers = 0;
    for (TermId t : WorkloadTerms()) layers += reader->Layers(t).num_layers();
    benchmark::DoNotOptimize(layers);
    build_ms += timer.ElapsedMillis();
    state.PauseTiming();
    layered += scope.Snapshot().layer_postings;
    reader.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(layered);
  if (layered > 0) {
    state.counters["ns_per_posting"] =
        1e6 * build_ms / static_cast<double>(layered);
  }
}

// ------------------------------------------------------- random access

/// The documents every workload term is probed for: 64 ids spread over
/// the doc space, so hits and misses mix as they do for probes of
/// documents the other query terms surfaced.
std::vector<DocId> ProbeDocs() {
  const auto docs = static_cast<DocId>(StorageDb().file().num_docs());
  std::vector<DocId> probes;
  for (DocId k = 0; k < 64; ++k) probes.push_back(k * 7919 % docs);
  return probes;
}

/// Random access the way the Fagin family makes it: FindWeight on the
/// term's impact cursor, one cursor per term opened before timing.
void CursorProbeBench(benchmark::State& state, const PostingSource& source,
                      const ScoringModel& model) {
  std::vector<std::unique_ptr<ImpactCursor>> cursors;
  for (TermId t : WorkloadTerms()) {
    cursors.push_back(source.OpenImpactCursor(t, model));
  }
  const std::vector<DocId> probes = ProbeDocs();
  for (auto _ : state) {
    double checksum = 0.0;
    for (const auto& cursor : cursors) {
      for (DocId d : probes) checksum += cursor->FindWeight(d).value_or(0.0);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cursors.size() * probes.size()));
}

void BM_RandomAccessInMemory(benchmark::State& state) {
  static const InMemoryPostingSource source(&StorageDb().file());
  CursorProbeBench(state, source, StorageDb().model());
}

void BM_RandomAccessSegmentCursorProbe(benchmark::State& state) {
  // A fresh block cursor per probe, skipped to the target: a
  // block-directory search and a 128-posting block decode per probe.
  const SegmentReader& segment = Segment();
  const std::vector<DocId> probes = ProbeDocs();
  for (auto _ : state) {
    uint64_t checksum = 0;
    for (TermId t : WorkloadTerms()) {
      for (DocId d : probes) {
        const std::unique_ptr<PostingCursor> cursor = segment.OpenCursor(t);
        cursor->advance_to(d);
        if (cursor->doc() == d) checksum += cursor->tf();
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(WorkloadTerms().size() * probes.size()));
}

void BM_RandomAccessCatalogWarm(benchmark::State& state) {
  // A binary search on the segment's decoded postings of the term, and
  // the hit weighed.
  CursorProbeBench(state, WarmCatalog().shard_source(0),
                   WarmCatalog().shard_model(0));
}

BENCHMARK(BM_OnDiskSize)->Iterations(1);
BENCHMARK(BM_ColdStartMmapOpen)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanRawVectors)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanInMemoryCursor)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanSegmentCursor)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanSegmentBlocks)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceInMemoryCursor)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AdvanceSegmentCursor)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ImpactPrefixInMemory)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ImpactPrefixCatalogWarm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ImpactPrefixCatalogCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SegmentLayerBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RandomAccessInMemory)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RandomAccessSegmentCursorProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RandomAccessCatalogWarm)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
