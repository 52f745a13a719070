// moabench: end-to-end and per-layer benchmark of the moa engine.
//
//   moabench --workload <search_memory|search_segments|mixed_rw>
//            --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//            [--size smoke] [--inject-wrong-answer] [--inject-failed-query]
//
// Drives only public entry points: MmDatabase for the end-to-end numbers,
// each layer's own public calls (StrategyPlanner, StrategyRegistry,
// ShardCoordinator, PostingSource cursors, the block codec, the catalogs)
// for the per-layer numbers. perfbench/README.md describes the workloads,
// the metrics and which end-to-end metric each layer metric should move.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": v, "unit": u}. The lines before it name
// every metric with its unit and sample count. A wrong answer prints
// "correct": false with no metrics and exits 1; an invalid mixed_rw run
// (writer lag or backlog past its bound) prints nothing and exits 3.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "ir/query_gen.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "optimizer/cardinality.h"
#include "optimizer/strategy_planner.h"
#include "storage/segment/block_codec.h"

#ifndef MOABENCH_BUILD_TYPE
#define MOABENCH_BUILD_TYPE "unknown"
#endif
#ifndef MOABENCH_COMPILER
#define MOABENCH_COMPILER "unknown"
#endif
#ifndef MOABENCH_SANITIZED
#define MOABENCH_SANITIZED 0
#endif

namespace {

using namespace moa;
using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

// ------------------------------------------------------------ utilities

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

[[noreturn]] void Die(const std::string& message, int code = 1) {
  std::fprintf(stderr, "moabench: %s\n", message.c_str());
  std::exit(code);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Check(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Nearest-rank quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median wall time in microseconds of `reps` calls of `fn`.
template <typename Fn>
double MedianMicros(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(Micros(Clock::now() - t0));
  }
  return Median(t);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
double ProcessWrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}
obs::HistogramMetric* Histogram(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name);
}

// ------------------------------------------------------------ settings

enum class Workload { kSearchMemory, kSearchSegments, kMixedRw };

struct Args {
  Workload workload = Workload::kSearchMemory;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool wrong_answer = false;
  bool failed_query = false;
  std::string workdir = ".bench_build/work";
};

/// Collection and load sizes. `full` is the benchmark; `smoke` is a
/// seconds-long size for the benchmark's own tests.
struct Size {
  uint32_t docs;
  uint32_t vocabulary;
  size_t pool;           ///< distinct queries in the stream
  int setups;            ///< set-ups per run; setup_s is their median
  size_t probe_queries;  ///< queries the per-layer probes time
  size_t flush_trigger;  ///< mixed_rw memtable docs per shard per flush
};

constexpr Size kFullSize{20000, 30000, 12000, 3, 200, 32};
constexpr Size kSmokeSize{2000, 5000, 200, 1, 20, 16};

// mixed_rw sends kWriteRate writes/s (adds, updates, deletes 2:1:1) beside
// kMixedReadClients closed-loop query clients. A write holds the facade's
// mutation lock for about a millisecond, so the writers use a few percent
// of what the serialized write path can take. An open loop of queries too
// (400 operations/s, 80% queries) spread query_p50_ms by 0.6 to 0.8 of its
// median over ten seeds on a 4-vCPU VM: every query woke a sleeping
// thread, whose wake-up the host delayed irregularly. At 80 writes/s the
// query metrics spread by up to 0.26; every write invalidates the sharded
// snapshot, whose rebuild the queries then pay.
constexpr double kWriteRate = 40.0;
// Maintenance policy: flush at `flush_trigger` buffered documents per
// shard, merge the three smallest adjacent segments once a shard holds
// four, block writers (never fail them) past four flushes of backlog.
constexpr size_t kNumShards = 2;
constexpr size_t kMergeTriggerSegments = 4;
constexpr size_t kMergeFanin = 3;
constexpr size_t kBackpressureFlushes = 4;
// A mixed_rw run is invalid when the writers' p99 lag behind the write
// schedule, or the count of writes already due when one is sent, passes
// these bounds.
constexpr double kMaxWriterLagP99Ms = 100.0;
constexpr size_t kMaxBacklog = 256;
// mixed_rw runs this long before its measured window:
// the first seconds after set-up fault in segment pages and build
// snapshot caches for terms no query has touched yet.
constexpr double kWarmupSeconds = 2.0;

constexpr size_t kTopN = 10;
constexpr int kReadClients = 2;
// mixed_rw runs the whole process on one CPU, with one query client. A
// sharded query hands a shard to a pool thread and waits for it; writers
// and the flush and merge jobs wake other threads again. Spread over the
// four vCPUs of the reference VM, these hand-offs raised the VM's steal
// time from about 1% to 3-16%, and query_qps spread by 0.44 to 0.57 of its
// median over interleaved runs. On one CPU it spread by 0.05 to 0.16, with
// steal at 0.3 to 2.4%.
constexpr int kMixedReadClients = 1;
constexpr double kProbeMinSeconds = 0.05;
// Traced runs time the read-view call before one query in this many (the
// extra call takes the catalog's snapshot lock, so timing every query
// would itself slow the traced run).
constexpr size_t kReadViewSampling = 8;

/// Receives every probe's folded output, so no timed loop is optimized out.
volatile double g_probe_sink = 0.0;

DatabaseConfig ConfigFor(Workload w, const Size& size, const std::string& dir,
                         size_t trace_every) {
  DatabaseConfig config;
  config.collection.num_docs = size.docs;
  config.collection.vocabulary = size.vocabulary;
  config.collection.mean_doc_length = 150;
  config.collection.zipf_skew = 1.0;
  config.collection.seed = 900913;
  config.fragmentation.small_volume_fraction = 0.05;
  config.scoring = ScoringModelKind::kBm25;
  config.trace_every = trace_every;
  if (w == Workload::kSearchMemory) return config;
  config.catalog_dir = dir;
  if (w == Workload::kMixedRw) {
    config.num_shards = kNumShards;
    config.wal_enabled = true;
    // Group commit fsyncs once 32 records are pending. With an fsync per
    // commit, the VM disk's fsync latency, which varied from run to run,
    // reached every query through the sharded catalog's snapshot lock
    // (writers hold it across the commit): query_p50_ms spread 0.64 of
    // its median over ten seeds. At 32 the spread was a few percent, and
    // the WAL, its fsyncs and every rotation still run.
    config.wal_fsync_every = 32;
    config.background_maintenance = true;
    config.flush_trigger_docs = size.flush_trigger;
    config.merge_trigger_segments = kMergeTriggerSegments;
    config.merge_fanin = kMergeFanin;
    config.backpressure_memtable_docs = kBackpressureFlushes * size.flush_trigger;
    config.backpressure_soft_fail = false;
  }
  return config;
}

// -------------------------------------------------------------- queries

/// The seeded query stream every workload shares: the e13 mixed class,
/// the selective uniform class and a head-heavy Zipf class in exact
/// 30/60/10 shares, shuffled by the seed; n = 10, planner on, quality
/// target 1.0. Clients walk it in order and wrap around. The selective
/// class is the majority so that query_p50_ms sits inside the short
/// queries on every workload (on a merged segment the planner sends most
/// mixed-class queries down a slow path, and at 45% mixed the median fell
/// into the gap between the two modes, moving with the seed); the long
/// classes set query_p99_ms.
std::vector<QueryRequest> MakeStream(const Collection& collection,
                                     uint64_t seed, size_t pool) {
  static constexpr QueryTermDistribution kClasses[] = {
      QueryTermDistribution::kMixed, QueryTermDistribution::kUniform,
      QueryTermDistribution::kZipf};
  static constexpr size_t kPercent[] = {30, 60, 10};
  std::vector<QueryRequest> stream;
  for (int c = 0; c < 3; ++c) {
    QueryWorkloadConfig qc;
    qc.num_queries = static_cast<uint32_t>(
        std::max<size_t>(1, pool * kPercent[c] / 100));
    qc.terms_per_query = 4;
    qc.distribution = kClasses[c];
    qc.seed = seed * 1000003 + static_cast<uint64_t>(c);
    for (Query& q : Check(GenerateQueries(collection, qc), "GenerateQueries")) {
      QueryRequest request;
      request.query = std::move(q);
      request.n = kTopN;
      stream.push_back(std::move(request));
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(stream.begin(), stream.end(), rng);
  return stream;
}

/// Score-for-score equality with the expected answer, rank by rank. The
/// strategies sum a document's term weights in another order than the
/// exact evaluator, so scores agree to rounding (the tolerance the repo's
/// own ground-truth tests use), not bit for bit.
bool SameScores(const std::vector<ScoredDoc>& got,
                const std::vector<ScoredDoc>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i].score - want[i].score) >
        1e-9 * std::max(1.0, std::abs(want[i].score))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- setup

struct Served {
  std::unique_ptr<MmDatabase> db;
  std::string dir;  ///< catalog directory ("" for the in-memory workload)
};

/// Opens the workload's database and serves its first query; *setup_s is
/// the time from Open until that query returned. `first` yields the
/// query from the opened database (untimed: generating the stream is the
/// benchmark's own work, not the engine's).
template <typename FirstQuery>
Served SetUp(Workload w, const Size& size, const std::string& dir,
             size_t trace_every, FirstQuery&& first, double* setup_s) {
  if (!dir.empty()) std::filesystem::remove_all(dir);
  const DatabaseConfig config = ConfigFor(w, size, dir, trace_every);
  const Clock::time_point t0 = Clock::now();
  Served s;
  s.dir = config.catalog_dir;
  s.db = Check(MmDatabase::Open(config), "Open");
  if (w != Workload::kSearchMemory) {
    // The first mutation seeds the catalog from the collection; Flush
    // persists it as one bit-packed segment (one per shard).
    Check(s.db->Flush(), "Flush");
    if (w == Workload::kSearchSegments) Check(s.db->Merge().status(), "Merge");
  }
  const double opened = Seconds(Clock::now() - t0);
  const QueryRequest& request = first(*s.db);
  const Clock::time_point t1 = Clock::now();
  Check(s.db->Search(request).status(), "first query");
  *setup_s = opened + Seconds(Clock::now() - t1);
  return s;
}

/// The storage snapshot a query reads, taken through the public call the
/// engine itself makes for the workload's serving mode.
double TimeReadView(const MmDatabase& db) {
  const Clock::time_point t0 = Clock::now();
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    std::shared_ptr<const ShardedSnapshot> snapshot = sharded->Snapshot();
  } else if (const IndexCatalog* catalog = db.catalog()) {
    std::shared_ptr<const CatalogReadView> view = catalog->OpenReadView();
  } else {
    ExecContext context = db.exec_context();
  }
  return Micros(Clock::now() - t0);
}

/// The current state of every catalog shard (one entry for a single
/// catalog, none for the in-memory workload).
std::vector<std::shared_ptr<const CatalogState>> ShardStates(
    const MmDatabase& db) {
  std::vector<std::shared_ptr<const CatalogState>> states;
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      states.push_back(sharded->shard(s).Snapshot());
    }
  } else if (const IndexCatalog* catalog = db.catalog()) {
    states.push_back(catalog->Snapshot());
  }
  return states;
}

uint64_t LiveDocs(const MmDatabase& db) {
  uint64_t live = 0;
  for (const auto& state : ShardStates(db)) live += state->stats().num_live_docs;
  return live;
}

// ---------------------------------------------------------- run records

/// What one measured phase observed (merged across client threads).
struct PhaseStats {
  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::vector<double> lag_ms;
  std::vector<double> read_view_us;  ///< traced phases only
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  size_t stale_targets = 0;
  size_t adds = 0, updates = 0, deletes = 0;
  double user_bytes = 0.0;  ///< posting bytes of acknowledged adds/updates
  size_t max_backlog = 0;
  double elapsed_s = 0.0;
  CostCounters cost;  ///< summed over completed queries
  double predicted_scalar = 0.0;
  double observed_scalar = 0.0;
  /// Stage span wall time summed over traced queries, by stage name.
  std::map<std::string, double> span_ms;
  size_t traced_queries = 0;
  /// Per-pool-entry observed scalar cost (-1 = never ran); read workloads.
  std::vector<double> scalar_by_query;
  // mixed_rw samplers (time averages over the phase).
  double segments_per_shard = 0.0;
  double tombstone_density = 0.0;
  double merge_bytes = 0.0;  ///< catalog bytes written by merges

  size_t writes_acked() const { return adds + updates + deletes; }

  void Merge(PhaseStats&& o) {
    auto append = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(query_ms, o.query_ms);
    append(write_ms, o.write_ms);
    append(read_view_us, o.read_view_us);
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    stale_targets += o.stale_targets;
    adds += o.adds;
    updates += o.updates;
    deletes += o.deletes;
    user_bytes += o.user_bytes;
    cost += o.cost;
    predicted_scalar += o.predicted_scalar;
    observed_scalar += o.observed_scalar;
    for (const auto& [stage, ms] : o.span_ms) span_ms[stage] += ms;
    traced_queries += o.traced_queries;
    if (scalar_by_query.size() < o.scalar_by_query.size()) {
      scalar_by_query.resize(o.scalar_by_query.size(), -1.0);
    }
    for (size_t i = 0; i < o.scalar_by_query.size(); ++i) {
      if (o.scalar_by_query[i] >= 0.0) scalar_by_query[i] = o.scalar_by_query[i];
    }
  }

  /// Books one completed query into the record.
  void RecordQuery(const SearchResult& r, double ms) {
    query_ms.push_back(ms);
    cost += r.top.stats.cost;
    predicted_scalar += r.estimate.scalar;
    observed_scalar += r.top.stats.cost.Scalar();
    if (r.traced) {
      ++traced_queries;
      for (const obs::TraceSpanData& span : r.trace.spans) {
        span_ms[span.stage] += span.wall_millis;
      }
    }
  }
};

// ------------------------------------------------- read workloads (closed)

/// Closed loop: kReadClients threads each send their next query of the
/// shared stream as soon as the previous one returns, for `seconds`.
/// Every answer is checked against the expected one computed at set-up.
/// Nothing writes, so a query error is a defect and counts as a mismatch.
PhaseStats ClosedLoop(const MmDatabase& db,
                      const std::vector<QueryRequest>& stream,
                      const std::vector<std::vector<ScoredDoc>>& expected,
                      double seconds, bool traced) {
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<PhaseStats> per_client(kReadClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kReadClients; ++c) {
    clients.emplace_back([&, c] {
      PhaseStats& st = per_client[c];
      st.scalar_by_query.assign(stream.size(), -1.0);
      while (Clock::now() < deadline) {
        const size_t i = next.fetch_add(1) % stream.size();
        if (traced && i % kReadViewSampling == 0) {
          st.read_view_us.push_back(TimeReadView(db));
        }
        const Clock::time_point t0 = Clock::now();
        Result<SearchResult> r = db.Search(stream[i]);
        const Clock::time_point t1 = Clock::now();
        const double ms = Millis(t1 - t0);
        ++st.attempted;
        if (!r.ok()) {
          ++st.failed;
          ++st.mismatches;
          continue;
        }
        const SearchResult& res = r.ValueOrDie();
        st.RecordQuery(res, ms);
        st.scalar_by_query[i] = res.top.stats.cost.Scalar();
        if (!SameScores(res.top.items, expected[i])) ++st.mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseStats out;
  out.elapsed_s = Seconds(Clock::now() - start);
  for (PhaseStats& st : per_client) out.Merge(std::move(st));
  return out;
}

// ------------------------------------------------------------- mixed_rw

struct PlannedWrite {
  enum Kind : uint8_t { kAdd, kUpdate, kDelete } kind = kAdd;
  int64_t due_ns = 0;  ///< offset from the run's start
  uint32_t doc = 0;    ///< collection document copied by an add/update
  uint64_t pick = 0;   ///< chooses the delete/update target at send time
};

/// The seeded open-loop write schedule: Poisson arrivals at `rate` per
/// second, half adds, a quarter updates, a quarter deletes.
std::vector<PlannedWrite> PlanWrites(uint64_t seed, double rate, double seconds,
                                     uint32_t num_docs) {
  std::mt19937_64 rng(seed ^ 0x6d6978656472775fULL);
  std::exponential_distribution<double> gap(rate);
  std::vector<PlannedWrite> writes;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    PlannedWrite w;
    w.due_ns = static_cast<int64_t>(t * 1e9);
    const uint64_t u = rng() % 4;
    w.kind = u < 2 ? PlannedWrite::kAdd
                   : (u == 2 ? PlannedWrite::kUpdate : PlannedWrite::kDelete);
    w.doc = static_cast<uint32_t>(rng() % num_docs);
    w.pick = rng();
    writes.push_back(w);
  }
  return writes;
}

/// The collection documents the write schedule copies, as (term, tf)
/// pairs indexed by document id (others left empty): new documents are
/// drawn like the collection by copying a random one. Only those few
/// hundred are transposed, so the harness's own memory stays out of
/// peak_rss_mb.
std::vector<DocTerms> PlannedDocs(const InvertedFile& file,
                                  const std::vector<PlannedWrite>& writes) {
  std::vector<bool> wanted(file.num_docs(), false);
  for (const PlannedWrite& w : writes) {
    if (w.kind != PlannedWrite::kDelete) wanted[w.doc] = true;
  }
  std::vector<DocTerms> docs(file.num_docs());
  for (TermId t = 0; t < file.num_terms(); ++t) {
    const PostingList& list = file.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      if (wanted[list[i].doc]) docs[list[i].doc].emplace_back(t, list[i].tf);
    }
  }
  return docs;
}

/// Delete and update targets, taken from the engine's own read path: the
/// documents of the most recent search result. Merges renumber doc ids,
/// so a target can go stale between the search and the write; such a
/// NotFound / out-of-range answer counts as a stale target, not a failure.
class Targets {
 public:
  void Offer(const std::vector<ScoredDoc>& items) {
    if (items.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ids_.clear();
    for (const ScoredDoc& sd : items) ids_.push_back(sd.doc);
  }
  bool Take(uint64_t pick, DocId* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ids_.empty()) return false;
    const size_t i = pick % ids_.size();
    *out = ids_[i];
    ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }

 private:
  std::mutex mutex_;
  std::vector<DocId> ids_;
};

bool IsStaleTarget(const Status& s) {
  return s.code() == StatusCode::kNotFound ||
         s.code() == StatusCode::kInvalidArgument;
}

/// Catalog-level counters the sampler attributes merge bytes from.
struct CatalogCounters {
  double flushes = 0.0, merges = 0.0, bytes = 0.0;
  static CatalogCounters Read() {
    return CatalogCounters{CounterValue("moa_catalog_flush_total"),
                           CounterValue("moa_catalog_merge_total"),
                           CounterValue("moa_catalog_bytes_written_total")};
  }
};

/// Sends one planned write, timed from its due time. Only `measured`
/// writes book a latency; the ledger counts every acknowledged write.
void ExecuteWrite(MmDatabase& db, const std::vector<QueryRequest>& stream,
                  const std::vector<DocTerms>& docs, const PlannedWrite& op,
                  Clock::time_point due, bool measured, Targets* targets,
                  PhaseStats* st) {
  ++st->attempted;
  DocId target = 0;
  if (op.kind != PlannedWrite::kAdd && !targets->Take(op.pick, &target)) {
    // No recent result to draw from yet: ask the read path now.
    Result<SearchResult> r = db.Search(stream[op.pick % stream.size()]);
    if (r.ok()) targets->Offer(r.ValueOrDie().top.items);
    if (!targets->Take(op.pick, &target)) {
      ++st->stale_targets;
      return;
    }
  }
  const DocTerms& terms = docs[op.doc];
  Status status;
  switch (op.kind) {
    case PlannedWrite::kAdd:
      status = db.AddDocument(terms).status();
      break;
    case PlannedWrite::kUpdate:
      status = db.UpdateDocument(target, terms).status();
      break;
    case PlannedWrite::kDelete:
      status = db.DeleteDocument(target);
      break;
  }
  if (!status.ok()) {
    if (op.kind != PlannedWrite::kAdd && IsStaleTarget(status)) {
      ++st->stale_targets;
    } else {
      ++st->failed;
    }
    return;
  }
  if (measured) st->write_ms.push_back(Millis(Clock::now() - due));
  if (op.kind == PlannedWrite::kDelete) {
    ++st->deletes;
  } else {
    (op.kind == PlannedWrite::kAdd ? st->adds : st->updates) += 1;
    st->user_bytes += 8.0 * static_cast<double>(terms.size());
  }
}

/// mixed_rw: kMixedReadClients closed-loop query clients, as in the read
/// workloads, beside `writers` open-loop writer threads. Each writer sends
/// its share of the write schedule at the due time and is timed from it,
/// so a stalled write also charges the writes due behind it. Readers never
/// sleep; writers sleep until shortly before a write is due and spin the
/// rest, because a sleeping thread on a virtual CPU wakes irregularly late.
/// Operations in the first `warmup_s` run but are not timed (the ledger
/// still counts their writes). The calling thread samples the catalog.
/// A query error is a defect and counts as a mismatch.
PhaseStats MixedLoop(MmDatabase& db, const std::vector<QueryRequest>& stream,
                     const std::vector<DocTerms>& docs,
                     const std::vector<PlannedWrite>& writes, double warmup_s,
                     double seconds, size_t writers, bool traced) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const Clock::time_point deadline =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Targets targets;
  std::atomic<size_t> next{0};
  std::atomic<size_t> running{kMixedReadClients + writers};
  std::vector<PhaseStats> per_thread(kMixedReadClients + writers);
  std::vector<std::thread> threads;

  for (int c = 0; c < kMixedReadClients; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& st = per_thread[c];
      while (Clock::now() < deadline) {
        const size_t i = next.fetch_add(1) % stream.size();
        const Clock::time_point t0 = Clock::now();
        const bool measured = t0 >= measure_from;
        if (traced && measured && i % kReadViewSampling == 0) {
          st.read_view_us.push_back(TimeReadView(db));
        }
        const Clock::time_point t1 = Clock::now();
        Result<SearchResult> r = db.Search(stream[i]);
        const Clock::time_point t2 = Clock::now();
        ++st.attempted;
        if (!r.ok()) {
          ++st.failed;
          ++st.mismatches;
          continue;
        }
        if (measured) st.RecordQuery(r.ValueOrDie(), Millis(t2 - t1));
        targets.Offer(r.ValueOrDie().top.items);
      }
      --running;
    });
  }

  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      PhaseStats& st = per_thread[kMixedReadClients + w];
      for (size_t k = w; k < writes.size(); k += writers) {
        const PlannedWrite& op = writes[k];
        const Clock::time_point due = start + std::chrono::nanoseconds(op.due_ns);
        std::this_thread::sleep_until(due - 300us);
        while (Clock::now() < due) std::this_thread::yield();
        const Clock::time_point sent = Clock::now();
        st.lag_ms.push_back(Millis(sent - due));
        // Backlog: this writer's writes already due when this one went out.
        size_t overdue = 0;
        for (size_t j = k + writers; j < writes.size() &&
                                     start + std::chrono::nanoseconds(
                                                 writes[j].due_ns) <= sent;
             j += writers) {
          ++overdue;
        }
        st.max_backlog = std::max(st.max_backlog, overdue);
        ExecuteWrite(db, stream, docs, op, due, due >= measure_from, &targets, &st);
      }
      --running;
    });
  }

  PhaseStats out;
  double segment_sum = 0.0, dead = 0.0, slots = 0.0;
  size_t samples = 0;
  CatalogCounters last = CatalogCounters::Read();
  auto sample = [&] {
    // Segment count and tombstones per shard, and the bytes the catalog
    // wrote since the last sample, booked to merges when only merges
    // completed in between (split by job count otherwise).
    for (const auto& state : ShardStates(db)) {
      const CatalogComposition c = state->Composition();
      segment_sum += static_cast<double>(c.num_segments);
      dead += static_cast<double>(c.dead_slots);
      slots += static_cast<double>(c.total_slots());
      ++samples;
    }
    const CatalogCounters now = CatalogCounters::Read();
    const double df = now.flushes - last.flushes;
    const double dm = now.merges - last.merges;
    if (dm > 0.0) out.merge_bytes += (now.bytes - last.bytes) * dm / (dm + df);
    last = now;
  };
  while (running.load() > 0) {
    sample();
    std::this_thread::sleep_for(5ms);
  }
  for (std::thread& t : threads) t.join();
  sample();
  out.elapsed_s = seconds;
  out.segments_per_shard = Ratio(segment_sum, static_cast<double>(samples));
  out.tombstone_density = Ratio(dead, slots);
  for (PhaseStats& st : per_thread) {
    out.max_backlog = std::max(out.max_backlog, st.max_backlog);
    out.lag_ms.insert(out.lag_ms.end(), st.lag_ms.begin(), st.lag_ms.end());
    out.Merge(std::move(st));
  }
  return out;
}

/// Options the engine builds its catalog with (database.cc), so the
/// catalog can be reopened directly for the recovery measurement.
ShardedCatalog::Options CatalogOptions(const MmDatabase& db) {
  const DatabaseConfig& config = db.config();
  ShardedCatalog::Options options;
  options.num_shards = config.num_shards;
  options.shard.num_terms = db.file().num_terms();
  options.shard.dir = config.catalog_dir;
  options.shard.scoring = config.scoring;
  options.shard.wal_enabled = config.wal_enabled;
  options.shard.wal_fsync_every = config.wal_fsync_every;
  return options;
}

// ------------------------------------------------------------ layer probes

/// Per-layer probes on the served storage state, with the workload's own
/// queries. Every timing is the median of repeated calls.
class LayerProbes {
 public:
  LayerProbes(Workload w, const MmDatabase& db,
              const std::vector<QueryRequest>& queries)
      : db_(db), queries_(queries), memory_(&db.file()) {
    if (const ShardedCatalog* sharded = db.sharded_catalog()) {
      snapshot_ = sharded->Snapshot();
      for (size_t s = 0; s < snapshot_->num_shards(); ++s) {
        const CatalogState& state = snapshot_->shard_state(s);
        estimators_.push_back(std::make_unique<CardinalityEstimator>(
            &state.stats().df,
            static_cast<int64_t>(state.stats().num_live_docs), nullptr));
        planners_.push_back(std::make_unique<StrategyPlanner>(
            estimators_.back().get(),
            StorageInputsFor(snapshot_->shard_composition(s))));
        sources_.push_back(&snapshot_->shard_source(s));
        models_.push_back(&snapshot_->shard_model(s));
      }
      plan_request_.exclude.push_back(PhysicalStrategy::kFaginNRA);
    } else if (const IndexCatalog* catalog = db.catalog()) {
      view_ = catalog->OpenReadView();
      const CatalogState& state = view_->state();
      estimators_.push_back(std::make_unique<CardinalityEstimator>(
          &state.stats().df, static_cast<int64_t>(state.stats().num_live_docs),
          nullptr));
      planners_.push_back(std::make_unique<StrategyPlanner>(
          estimators_.back().get(), StorageInputsFor(state.Composition())));
      sources_.push_back(view_.get());
      models_.push_back(view_->model());
    } else {
      estimators_.push_back(std::make_unique<CardinalityEstimator>(
          &db.file(), &db.fragmentation()));
      planners_.push_back(
          std::make_unique<StrategyPlanner>(estimators_.back().get()));
      sources_.push_back(&memory_);
      models_.push_back(&db.model());
    }
    context_ = db.exec_context();
    plan_request_.n = kTopN;
    // The strategies the engine's planner may choose here: safe, costed,
    // and runnable with what Search hands it (static serving carries a
    // fragmentation; catalog serving at quality 1.0 does not).
    for (PhysicalStrategy s : StrategyRegistry::Global().Registered()) {
      const StrategyRegistry::Entry* e = StrategyRegistry::Global().Find(s);
      if (!e->safe || e->planner.cost == nullptr) continue;
      if (e->planner.needs_fragmentation && w != Workload::kSearchMemory) continue;
      if (snapshot_ != nullptr && s == PhysicalStrategy::kFaginNRA) continue;
      candidates_.push_back(s);
    }
  }

  std::map<std::string, double> Run() {
    std::map<std::string, double> m;
    std::vector<double> search_us, overhead_us, choice_us, regret, coord_us;
    double chosen_sum = 0.0, fastest_sum = 0.0;
    std::map<PhysicalStrategy, std::vector<double>> exec_us;
    for (const QueryRequest& req : queries_) {
      PhysicalStrategy chosen = PhysicalStrategy::kHeap;
      const double t_search = MedianMicros(3, [&] {
        chosen = Check(db_.Search(req), "probe Search").strategy;
      });
      search_us.push_back(t_search);

      std::map<PhysicalStrategy, double> t;
      for (PhysicalStrategy s : candidates_) {
        bool ok = true;
        t[s] = MedianMicros(3, [&] { ok = ExecForced(s, req).ok(); });
        if (!ok) t.erase(s);
      }
      double fastest = 0.0;
      for (const auto& [s, us] : t) {
        exec_us[s].push_back(us);
        if (fastest == 0.0 || us < fastest) fastest = us;
      }
      if (t.count(chosen) != 0) {
        regret.push_back(Ratio(t[chosen], fastest));
        chosen_sum += t[chosen];
        fastest_sum += fastest;
        overhead_us.push_back(t_search - t[chosen]);
      }

      std::vector<PhysicalStrategy> per_shard(planners_.size());
      choice_us.push_back(MedianMicros(20, [&] {
        for (size_t s = 0; s < planners_.size(); ++s) {
          per_shard[s] =
              Check(planners_[s]->PlanChoice(req.query, plan_request_),
                    "PlanChoice")
                  .strategy;
        }
      }));

      if (snapshot_ != nullptr) CoordinatorProbe(req, per_shard, &coord_us);
    }
    m["engine.search_us"] = Median(search_us);
    m["engine.overhead_us"] = Median(overhead_us);
    m["planner.choice_us"] = Median(choice_us);
    // Regret over the whole probe stream: time of the planner's choices
    // over time of the per-query fastest safe strategy. The per-query
    // median is printed beside it; it hides a slow minority class.
    m["planner.regret"] = Ratio(chosen_sum, fastest_sum);
    m["planner.regret_median"] = Median(regret);
    m["exec.maxscore_us"] = Median(exec_us[PhysicalStrategy::kMaxScore]);
    m["exec.fagin_ta_us"] = Median(exec_us[PhysicalStrategy::kFaginTA]);
    m["exec.heap_us"] = Median(exec_us[PhysicalStrategy::kHeap]);
    m["coordinator.overhead_us"] = Median(coord_us);
    m["coordinator.samples"] = static_cast<double>(coord_us.size());

    std::vector<TermId> terms;
    for (const QueryRequest& req : queries_) {
      terms.insert(terms.end(), req.query.terms.begin(), req.query.terms.end());
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    m["codec.decode_ns_per_posting"] = CodecDecodeNs(terms);
    m["cursor.scan_ns_per_posting"] = ScanNs(terms);
    m["cursor.advance_ns"] = AdvanceNs();
    m["cursor.impact_open_us"] = ImpactOpenUs(terms);
    g_probe_sink = sink_;
    return m;
  }

  /// Stage spans of sharded queries. Search runs the shards on pool
  /// threads, whose spans have no trace to attach to, so the probe runs
  /// the coordinator with every shard inline under its own trace.
  void ShardedSpans(PhaseStats* st) const {
    ShardCoordinator::Options inline_shards;
    inline_shards.parallelism = 1;
    for (const QueryRequest& req : queries_) {
      SearchResult r = Check(
          ShardCoordinator::Run(snapshot_, req, false, true, nullptr,
                                inline_shards),
          "traced coordinator run");
      ++st->traced_queries;
      for (const obs::TraceSpanData& span : r.trace.spans) {
        st->span_ms[span.stage] += span.wall_millis;
      }
    }
  }

 private:
  /// Forced execution with no planner in the loop on the served storage:
  /// registry Execute on exec_context(), or the coordinator's forced
  /// scatter-gather under sharding.
  Result<TopNResult> ExecForced(PhysicalStrategy s,
                                const QueryRequest& req) const {
    if (snapshot_ != nullptr) {
      return ShardCoordinator::Execute(snapshot_, s, req.query, req.n,
                                       ExecOptions{},
                                       ShardCoordinator::Options{});
    }
    return StrategyRegistry::Global().Execute(s, context_, req.query, req.n);
  }

  /// ShardCoordinator::Run minus the shards' own executions of the
  /// strategies their planners picked. mixed_rw runs on one CPU, where the
  /// shards execute one after the other, so their sum is the critical
  /// path. Only queries on which the coordinator visited every shard are
  /// sampled.
  void CoordinatorProbe(const QueryRequest& req,
                        const std::vector<PhysicalStrategy>& per_shard,
                        std::vector<double>* out) const {
    int64_t skipped = 0;
    const double t_run = MedianMicros(3, [&] {
      skipped = Check(ShardCoordinator::Run(snapshot_, req, false, false,
                                            nullptr, ShardCoordinator::Options{}),
                      "coordinator run")
                    .top.stats.cost.shards_skipped;
    });
    if (skipped != 0) return;
    double shards = 0.0;
    for (size_t s = 0; s < snapshot_->num_shards(); ++s) {
      ExecContext ctx;
      ctx.model = &snapshot_->shard_model(s);
      ctx.postings = &snapshot_->shard_source(s);
      ctx.sparse_cache = &snapshot_->shard_sparse_cache(s);
      ctx.postings_owner = snapshot_;
      shards += MedianMicros(3, [&] {
        Check(StrategyRegistry::Global().Execute(per_shard[s], ctx, req.query,
                                                  req.n),
              "shard execute");
      });
    }
    out->push_back(t_run - shards);
  }

  /// Block codec decode of the query terms' postings, encoded bit-packed
  /// in segment-sized blocks from the collection's lists.
  double CodecDecodeNs(const std::vector<TermId>& terms) const {
    struct Block {
      size_t offset, bytes, count;
      DocId last;
    };
    std::vector<uint8_t> data;
    std::vector<Block> blocks;
    size_t postings = 0;
    std::vector<Posting> list;
    for (TermId t : terms) {
      const PostingList& pl = db_.file().list(t);
      list.clear();
      for (size_t i = 0; i < pl.size(); ++i) list.push_back(pl[i]);
      for (size_t b = 0; b < list.size(); b += kDefaultSegmentBlockSize) {
        const size_t count =
            std::min<size_t>(kDefaultSegmentBlockSize, list.size() - b);
        const size_t offset = data.size();
        EncodePostingBlock(SegmentCodec::kBitPacked, &list[b], count, data);
        blocks.push_back(
            Block{offset, data.size() - offset, count, list[b + count - 1].doc});
        postings += count;
      }
    }
    std::vector<DocId> docs(kDefaultSegmentBlockSize);
    std::vector<uint32_t> tfs(kDefaultSegmentBlockSize);
    return TimePerItem(postings, [&] {
      for (const Block& b : blocks) {
        Check(DecodePostingBlock(SegmentCodec::kBitPacked,
                                 data.data() + b.offset, b.bytes, b.count,
                                 b.last, docs.data(), tfs.data()),
              "DecodePostingBlock");
      }
    });
  }

  /// Full scans of the query terms' lists through the served cursors:
  /// block_postings + shallow_advance where the cursor has columnar
  /// blocks, doc()/next() otherwise.
  double ScanNs(const std::vector<TermId>& terms) {
    size_t postings = 0;
    for (const PostingSource* src : sources_) {
      for (TermId t : terms) postings += Scan(*src, t);  // also warms bounds
    }
    return TimePerItem(postings, [&] {
      for (const PostingSource* src : sources_) {
        for (TermId t : terms) Scan(*src, t);
      }
    });
  }

  size_t Scan(const PostingSource& src, TermId t) {
    std::unique_ptr<PostingCursor> cur = src.OpenCursor(t);
    size_t n = 0;
    while (cur->block_last_doc() != kEndDoc) {
      const DocId* docs = nullptr;
      const uint32_t* tfs = nullptr;
      const size_t got = cur->block_postings(&docs, &tfs);
      if (got == 0) {
        for (; !cur->at_end(); cur->next(), ++n) sink_ += cur->tf();
        break;
      }
      sink_ += docs[got - 1] + tfs[0];
      n += got;
      cur->shallow_advance(cur->block_last_doc() + 1);
    }
    return n;
  }

  /// advance_to: every query's non-rarest term cursors advanced to each
  /// document of its rarest term, in order.
  double AdvanceNs() {
    size_t calls = 0;
    auto pass = [&] {
      for (const PostingSource* src : sources_) {
        for (const QueryRequest& req : queries_) {
          const std::vector<TermId>& qt = req.query.terms;
          const TermId rare = *std::min_element(
              qt.begin(), qt.end(), [&](TermId a, TermId b) {
                return src->DocFrequency(a) < src->DocFrequency(b);
              });
          std::vector<DocId> targets;
          for (auto c = src->OpenCursor(rare); !c->at_end(); c->next()) {
            targets.push_back(c->doc());
          }
          for (TermId t : qt) {
            if (t == rare) continue;
            std::unique_ptr<PostingCursor> c = src->OpenCursor(t);
            for (DocId d : targets) {
              c->advance_to(d);
              sink_ += c->doc();
            }
            calls += targets.size();
          }
        }
      }
    };
    pass();
    const size_t per_pass = calls;
    return TimePerItem(per_pass, pass);
  }

  /// OpenImpactCursor plus the first n postings in impact order.
  double ImpactOpenUs(const std::vector<TermId>& terms) {
    std::vector<double> t;
    for (size_t s = 0; s < sources_.size(); ++s) {
      for (TermId term : terms) {
        t.push_back(MedianMicros(3, [&] {
          std::unique_ptr<ImpactCursor> c =
              sources_[s]->OpenImpactCursor(term, *models_[s]);
          for (size_t k = 0; k < kTopN && !c->at_end(); ++k, c->next()) {
            sink_ += c->weight();
          }
        }));
      }
    }
    return Median(t);
  }

  /// Nanoseconds per item of `pass`, repeated for at least
  /// kProbeMinSeconds (median of the passes).
  template <typename Fn>
  static double TimePerItem(size_t items_per_pass, Fn&& pass) {
    if (items_per_pass == 0) return 0.0;
    std::vector<double> ns;
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      pass();
      ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                       .count() /
                   static_cast<double>(items_per_pass));
    } while (Seconds(Clock::now() - start) < kProbeMinSeconds || ns.size() < 3);
    return Median(ns);
  }

  const MmDatabase& db_;
  const std::vector<QueryRequest>& queries_;
  InMemoryPostingSource memory_;
  std::shared_ptr<const ShardedSnapshot> snapshot_;
  std::shared_ptr<const CatalogReadView> view_;
  std::vector<std::unique_ptr<CardinalityEstimator>> estimators_;
  std::vector<std::unique_ptr<StrategyPlanner>> planners_;
  std::vector<const PostingSource*> sources_;
  std::vector<const ScoringModel*> models_;
  ExecContext context_;
  PlanRequest plan_request_;
  std::vector<PhysicalStrategy> candidates_;
  double sink_ = 0.0;  ///< consumes probe outputs so no loop folds away
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;
};

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-30s %.6g %s (samples %zu)\n", kind, m.name.c_str(),
                m.value, m.unit, m.samples);
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ main

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg, 2);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload_name = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--workdir") {
      a.workdir = value();
    } else if (arg == "--size") {
      const std::string size = value();
      if (size != "smoke" && size != "full") Die("unknown size " + size, 2);
      a.smoke = size == "smoke";
    } else if (arg == "--inject-wrong-answer") {
      a.wrong_answer = true;
    } else if (arg == "--inject-failed-query") {
      a.failed_query = true;
    } else {
      Die("unknown argument " + arg, 2);
    }
  }
  if (a.workload_name == "search_memory") {
    a.workload = Workload::kSearchMemory;
  } else if (a.workload_name == "search_segments") {
    a.workload = Workload::kSearchSegments;
  } else if (a.workload_name == "mixed_rw") {
    a.workload = Workload::kMixedRw;
  } else {
    Die("unknown workload '" + a.workload_name + "'", 2);
  }
  if (!(a.seconds > 0.0)) Die("--seconds must be positive", 2);
  return a;
}

void RefuseUnfitBuild() {
  const std::string build_type = MOABENCH_BUILD_TYPE;
  bool sanitized = MOABENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type == "Debug" || sanitized || asserts) {
    Die("refusing to report numbers from a " + build_type +
            (sanitized ? " sanitizer" : "") + " build with" +
            (asserts ? "" : "out") + " assertions",
        4);
  }
}

/// Restricts the process to the first CPU it may run on (see
/// kMixedReadClients) and returns that CPU.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) Die("sched_setaffinity failed");
  return cpu;
}

/// One measured phase of the workload on a fresh set-up.
struct Phase {
  Served served;
  PhaseStats stats;
  std::vector<double> setup_s;
  bool correct = true;
  // mixed_rw only.
  uint64_t initial_live = 0;
  double write_amp = 0.0, space_amp = 0.0, recover_s = 0.0;
  double wal_groups = 0.0, wal_group_ops = 0.0, wal_fsyncs = 0.0,
         wal_bytes = 0.0, flush_ms = 0.0, merge_ms = 0.0, stalls = 0.0,
         bg_flushes = 0.0, bg_merges = 0.0;
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), size_(args.smoke ? kSmokeSize : kFullSize) {}

  int Main() {
    std::filesystem::create_directories(args_.workdir);
    // Client threads never outnumber the CPUs: mixed_rw's writers fill
    // what the query client leaves, up to two (concurrent writers are what
    // group commit could batch).
    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    writers_ =
        static_cast<size_t>(std::clamp(nproc - kMixedReadClients, 1L, 2L));
    // Before any thread exists, so the engine's pool threads inherit it.
    const int cpu =
        args_.workload == Workload::kMixedRw ? PinToOneCpu() : -1;
    std::printf("env nproc=%ld compiler=\"%s\" build_type=%s moa_obs=%s "
                "seed=%llu workload=%s size=%s client_threads=%d "
                "pinned_cpu=%s\n",
                nproc, MOABENCH_COMPILER,
                MOABENCH_BUILD_TYPE, obs::kEnabled ? "ON" : "OFF",
                static_cast<unsigned long long>(args_.seed),
                args_.workload_name.c_str(), args_.smoke ? "smoke" : "full",
                args_.workload == Workload::kMixedRw
                    ? kMixedReadClients + static_cast<int>(writers_)
                    : kReadClients,
                cpu < 0 ? "none" : std::to_string(cpu).c_str());

    // Untraced phase: the end-to-end numbers (set-up repeated, median).
    Phase a = RunPhase(/*traced=*/false, args_.trace ? 1 : size_.setups);
    if (!a.correct) return Wrong(a);
    if (!args_.trace) {
      ReportEndToEnd(a);
      Cleanup(a);
      return 0;
    }
    const double untraced_p50 = Quantile(a.stats.query_ms, 0.5);
    Cleanup(a);

    // Traced phase: same seed, trace_every = 1, then the layer probes.
    Phase b = RunPhase(/*traced=*/true, 1);
    if (!b.correct) return Wrong(b);
    ReportLayers(b, untraced_p50);
    Cleanup(b);
    return 0;
  }

 private:
  std::string DirFor(int k) const {
    if (args_.workload == Workload::kSearchMemory) return "";
    return args_.workdir + "/" + args_.workload_name + "-" + std::to_string(k);
  }

  /// Set-up of the workload's database, yielding the stream's first query
  /// (the stream is generated once, from the first opened collection).
  Served SetUpServed(bool traced, double* setup_s) {
    return SetUp(args_.workload, size_, DirFor(++dir_seq_), traced ? 1 : 0,
                 [&](const MmDatabase& db) -> const QueryRequest& {
                   if (stream_.empty()) {
                     stream_ = MakeStream(db.collection(), args_.seed, size_.pool);
                   }
                   return stream_[0];
                 },
                 setup_s);
  }

  Phase RunPhase(bool traced, int setups) {
    Phase p;
    for (int k = 0; k < setups; ++k) {
      Served previous = std::move(p.served);
      previous.db.reset();
      if (!previous.dir.empty()) std::filesystem::remove_all(previous.dir);
      double s = 0.0;
      p.served = SetUpServed(traced, &s);
      p.setup_s.push_back(s);
    }
    MmDatabase& db = *p.served.db;
    if (args_.workload == Workload::kMixedRw) {
      RunMixed(db, traced, &p);
    } else {
      RunRead(db, traced, &p);
    }
    return p;
  }

  void RunRead(const MmDatabase& db, bool traced, Phase* p) {
    // Before the clock starts, on up to workers + 1 threads: the expected
    // answers, and one untimed pass of the stream so the snapshot's
    // lazily built per-term bounds and the mapped segment pages are warm
    // (nothing moves the snapshot afterwards).
    std::vector<std::vector<ScoredDoc>> expected(stream_.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (long t = 0; t < std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)); ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < stream_.size(); i = next++) {
          expected[i] = db.GroundTruth(stream_[i].query, kTopN);
          expected[i].shrink_to_fit();  // drops the evaluator's candidate buffer
          Check(db.Search(stream_[i]).status(), "warm-up Search");
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (args_.wrong_answer && !expected[0].empty()) expected[0][0].score += 1.0;
    InjectFailedQuery();
    obs::MetricsRegistry::Global().ResetForTest();
    p->stats = ClosedLoop(db, stream_, expected, args_.seconds, traced);
    p->correct = p->stats.mismatches == 0;
    if (p->stats.mismatches != 0) {
      std::printf("check %zu of %zu queries failed or differ from the exact "
                  "top-%zu\n",
                  p->stats.mismatches, p->stats.attempted, kTopN);
    }
  }

  /// --inject-failed-query: a malformed first query (negative deadline),
  /// which Search refuses, so the test can see a query error fail the run.
  void InjectFailedQuery() {
    if (args_.failed_query) stream_[0].options.deadline_millis = -1.0;
  }

  void RunMixed(MmDatabase& db, bool traced, Phase* p) {
    if (writes_.empty()) {
      writes_ = PlanWrites(args_.seed, kWriteRate,
                           kWarmupSeconds + args_.seconds, size_.docs);
      docs_ = PlannedDocs(db.file(), writes_);
    }
    InjectFailedQuery();
    Check(db.WaitForMaintenance(), "WaitForMaintenance");
    p->initial_live = LiveDocs(db);
    obs::MetricsRegistry::Global().ResetForTest();
    const double written0 = ProcessWrittenBytes();

    p->stats = MixedLoop(db, stream_, docs_, writes_, kWarmupSeconds,
                         args_.seconds, writers_, traced);
    PhaseStats& st = p->stats;
    Check(db.WaitForMaintenance(), "WaitForMaintenance");

    const double lag_p99 = Quantile(st.lag_ms, 0.99);
    std::printf("writes offered=%.0f/s sent=%zu writer_lag_p99_ms=%.3f "
                "max_backlog=%zu stale_targets=%zu\n",
                kWriteRate, writes_.size(), lag_p99, st.max_backlog,
                st.stale_targets);
    if (lag_p99 > kMaxWriterLagP99Ms || st.max_backlog > kMaxBacklog) {
      Die("invalid open-loop run: writer lag p99 " +
              std::to_string(lag_p99) + " ms (bound " +
              std::to_string(kMaxWriterLagP99Ms) + "), backlog " +
              std::to_string(st.max_backlog) + " (bound " +
              std::to_string(kMaxBacklog) + ")",
          3);
    }

    p->write_amp = Ratio(ProcessWrittenBytes() - written0, st.user_bytes);
    p->wal_groups = CounterValue("moa_wal_group_commit_total");
    p->wal_group_ops = Histogram("moa_wal_group_ops")->Sum();
    p->wal_fsyncs = CounterValue("moa_wal_fsync_total");
    p->wal_bytes = CounterValue("moa_wal_appended_bytes_total");
    p->flush_ms = Histogram("moa_catalog_flush_ms")->Quantile(0.5);
    p->merge_ms = Histogram("moa_catalog_merge_ms")->Quantile(0.5);
    p->stalls = CounterValue("moa_bg_backpressure_total");
    p->bg_flushes = CounterValue("moa_bg_flush_total");
    p->bg_merges = CounterValue("moa_bg_merge_total");

    // Correctness: no query error in the loop, the ledger of acknowledged
    // writes, then answers on the settled state against the exact top-n.
    if (st.mismatches != 0) {
      std::printf("check %zu of %zu queries failed\n", st.mismatches,
                  st.attempted);
      p->correct = false;
    }
    const uint64_t expected_live = LedgerLive(*p);
    if (LiveDocs(db) != expected_live) {
      std::printf("check live documents %llu, ledger says %llu\n",
                  static_cast<unsigned long long>(LiveDocs(db)),
                  static_cast<unsigned long long>(expected_live));
      p->correct = false;
    }
    const size_t checked = std::min<size_t>(stream_.size(), 100);
    for (size_t i = 0; i < checked; ++i) {
      std::vector<ScoredDoc> want = db.GroundTruth(stream_[i].query, kTopN);
      if (i == 0 && args_.wrong_answer && !want.empty()) want[0].score += 1.0;
      const Result<SearchResult> got = db.Search(stream_[i]);
      if (!got.ok() || !SameScores(got.ValueOrDie().top.items, want)) {
        std::printf("check query %zu differs from the exact top-%zu\n", i, kTopN);
        p->correct = false;
      }
    }
    double live_postings = 0.0;
    for (const auto& state : ShardStates(db)) {
      for (uint32_t df : state->stats().df) live_postings += df;
    }
    p->space_amp = Ratio(static_cast<double>(DirectoryBytes(p->served.dir)),
                         8.0 * live_postings);
  }

  /// Closes the mixed_rw database and reopens its catalog: WAL replay plus
  /// segment verification, timed; the live count must match the ledger.
  void Recover(Phase* p, uint64_t expected_live) {
    const ShardedCatalog::Options options = CatalogOptions(*p->served.db);
    p->served.db.reset();
    const Clock::time_point t0 = Clock::now();
    const uint64_t live = Check(ShardedCatalog::Open(options), "reopen catalog")
                              ->Snapshot()->stats().num_live_docs;
    p->recover_s = Seconds(Clock::now() - t0);
    if (live != expected_live) {
      std::printf("check after reopen live documents %llu, ledger says %llu\n",
                  static_cast<unsigned long long>(live),
                  static_cast<unsigned long long>(expected_live));
      p->correct = false;
    }
  }

  /// Live documents the client's ledger of acknowledged writes predicts.
  static uint64_t LedgerLive(const Phase& p) {
    return p.initial_live + p.stats.adds - p.stats.deletes;
  }

  int Wrong(Phase& p) {
    std::printf("check FAILED: no numbers reported\n");
    PrintResult(false, p.stats.attempted, p.stats.failed, {});
    Cleanup(p);
    return 1;
  }

  void Cleanup(Phase& p) {
    p.served.db.reset();
    if (!p.served.dir.empty()) std::filesystem::remove_all(p.served.dir);
  }

  double WorkPerQuery(const PhaseStats& st) const {
    if (args_.workload == Workload::kMixedRw) {
      return Ratio(st.observed_scalar, static_cast<double>(st.query_ms.size()));
    }
    // Read workloads: the mean over the stream's distinct queries, which
    // is exact once every query has run.
    std::vector<double> ran;
    for (double s : st.scalar_by_query) {
      if (s >= 0.0) ran.push_back(s);
    }
    return Mean(ran);
  }

  void ReportEndToEnd(Phase& p) {
    const PhaseStats& st = p.stats;
    const size_t q = st.query_ms.size();
    std::vector<Metric> e2e = {
        {"setup_s", Median(p.setup_s), "s", p.setup_s.size()},
        {"query_qps", Ratio(static_cast<double>(q), st.elapsed_s), "1/s", q},
        {"query_p50_ms", Quantile(st.query_ms, 0.5), "ms", q},
        {"query_p99_ms", Quantile(st.query_ms, 0.99), "ms", q},
        {"work_per_query", WorkPerQuery(st), "ticks", q},
        {"peak_rss_mb", PeakRssMb(), "MB", 1},
    };
    if (args_.workload == Workload::kMixedRw) {
      Recover(&p, LedgerLive(p));
      if (!p.correct) {
        Wrong(p);
        std::exit(1);
      }
      PrintWriteSide(p);
    }
    PrintMetrics("metric", e2e);
    PrintResult(true, st.attempted, st.failed, e2e);
  }

  /// The write-side end-to-end numbers of mixed_rw (informational lines:
  /// the read-only workloads have no such numbers, and every metric in
  /// the JSON result must exist on every workload).
  void PrintWriteSide(const Phase& p) {
    const PhaseStats& st = p.stats;
    const size_t w = st.write_ms.size();
    PrintMetrics("write",
                 {{"write_ops_s", Ratio(static_cast<double>(w), st.elapsed_s),
                   "1/s", w},
                  {"write_p50_ms", Quantile(st.write_ms, 0.5), "ms", w},
                  {"write_p99_ms", Quantile(st.write_ms, 0.99), "ms", w},
                  {"failed_share",
                   Ratio(static_cast<double>(st.failed),
                         static_cast<double>(st.attempted)),
                   "ratio", st.attempted},
                  {"stale_target", static_cast<double>(st.stale_targets),
                   "count", st.attempted},
                  {"writer_lag_p99_ms", Quantile(st.lag_ms, 0.99), "ms",
                   st.lag_ms.size()},
                  {"write_amp", p.write_amp, "ratio", w},
                  {"space_amp", p.space_amp, "ratio", 1},
                  {"recover_s", p.recover_s, "s", 1}});
  }

  void ReportLayers(Phase& p, double untraced_p50) {
    MmDatabase& db = *p.served.db;
    PhaseStats& st = p.stats;
    const bool mixed = args_.workload == Workload::kMixedRw;
    const std::vector<QueryRequest> probe(
        stream_.begin(),
        stream_.begin() + static_cast<std::ptrdiff_t>(
                              std::min(size_.probe_queries, stream_.size())));
    std::map<std::string, double> m;
    {
      LayerProbes probes(args_.workload, db, probe);
      m = probes.Run();
      if (mixed) {
        st.span_ms.clear();
        st.traced_queries = 0;
        probes.ShardedSpans(&st);
      }
    }
    const double traced = static_cast<double>(st.traced_queries);
    m["planner.cost_error"] = Ratio(st.observed_scalar, st.predicted_scalar);
    m["topn.cursor_open_us"] = 1e3 * Ratio(st.span_ms["cursor_open"], traced);
    m["topn.accumulate_us"] = 1e3 * Ratio(st.span_ms["accumulate"], traced);
    m["topn.heap_merge_us"] = 1e3 * Ratio(st.span_ms["heap_merge"], traced);
    m["segment.skip_ratio"] =
        Ratio(static_cast<double>(st.cost.blocks_skipped),
              static_cast<double>(st.cost.blocks_decoded + st.cost.blocks_skipped));
    m["catalog.read_view_us"] = Mean(st.read_view_us);
    m["coordinator.skip_rate"] =
        Ratio(static_cast<double>(st.cost.shards_skipped),
              static_cast<double>(st.cost.shards_visited + st.cost.shards_skipped));
    if (const IndexCatalog* catalog = db.catalog()) {
      const CatalogComposition c = catalog->Snapshot()->Composition();
      m["catalog.segments"] = static_cast<double>(c.num_segments);
      m["catalog.tombstone_density"] = Ratio(
          static_cast<double>(c.dead_slots), static_cast<double>(c.total_slots()));
    } else {
      m["catalog.segments"] = st.segments_per_shard;
      m["catalog.tombstone_density"] = st.tombstone_density;
    }
    const double writes = static_cast<double>(st.writes_acked());
    m["wal.records_per_group"] = Ratio(p.wal_group_ops, p.wal_groups);
    m["wal.fsyncs_per_write"] = Ratio(p.wal_fsyncs, writes);
    m["wal.bytes_per_write"] = Ratio(p.wal_bytes, writes);
    m["flush.ms"] = p.flush_ms;
    m["merge.ms"] = p.merge_ms;
    m["merge.rewrite_per_user_byte"] = Ratio(st.merge_bytes, st.user_bytes);
    m["bg.backpressure_stalls"] = p.stalls;
    m["bg.flushes"] = p.bg_flushes;
    m["bg.merges"] = p.bg_merges;
    m["obs.trace_overhead"] = Quantile(st.query_ms, 0.5) / untraced_p50 - 1.0;

    if (mixed) {
      Recover(&p, LedgerLive(p));
      if (!p.correct) {
        Wrong(p);
        std::exit(1);
      }
      PrintWriteSide(p);
    }
    const size_t probes = probe.size();
    const size_t q = st.query_ms.size();
    std::vector<Metric> layers = {
        {"engine.search_us", m["engine.search_us"], "us", probes},
        {"engine.overhead_us", m["engine.overhead_us"], "us", probes},
        {"planner.choice_us", m["planner.choice_us"], "us", probes},
        {"planner.regret", m["planner.regret"], "ratio", probes},
        {"planner.cost_error", m["planner.cost_error"], "ratio", q},
        {"exec.maxscore_us", m["exec.maxscore_us"], "us", probes},
        {"exec.fagin_ta_us", m["exec.fagin_ta_us"], "us", probes},
        {"exec.heap_us", m["exec.heap_us"], "us", probes},
        {"topn.cursor_open_us", m["topn.cursor_open_us"], "us", st.traced_queries},
        {"topn.accumulate_us", m["topn.accumulate_us"], "us", st.traced_queries},
        {"topn.heap_merge_us", m["topn.heap_merge_us"], "us", st.traced_queries},
        {"codec.decode_ns_per_posting", m["codec.decode_ns_per_posting"], "ns", probes},
        {"cursor.scan_ns_per_posting", m["cursor.scan_ns_per_posting"], "ns", probes},
        {"cursor.advance_ns", m["cursor.advance_ns"], "ns", probes},
        {"segment.skip_ratio", m["segment.skip_ratio"], "ratio", q},
        {"cursor.impact_open_us", m["cursor.impact_open_us"], "us", probes},
        {"catalog.read_view_us", m["catalog.read_view_us"], "us", st.read_view_us.size()},
        {"catalog.segments", m["catalog.segments"], "count", 1},
        {"catalog.tombstone_density", m["catalog.tombstone_density"], "ratio", 1},
        {"wal.records_per_group", m["wal.records_per_group"], "records", static_cast<size_t>(p.wal_groups)},
        {"wal.fsyncs_per_write", m["wal.fsyncs_per_write"], "ratio", st.writes_acked()},
        {"wal.bytes_per_write", m["wal.bytes_per_write"], "B", st.writes_acked()},
        {"flush.ms", m["flush.ms"], "ms", static_cast<size_t>(p.bg_flushes)},
        {"merge.ms", m["merge.ms"], "ms", static_cast<size_t>(p.bg_merges)},
        {"merge.rewrite_per_user_byte", m["merge.rewrite_per_user_byte"], "ratio", st.writes_acked()},
        {"bg.backpressure_stalls", m["bg.backpressure_stalls"], "count", 1},
        {"bg.flushes", m["bg.flushes"], "count", 1},
        {"bg.merges", m["bg.merges"], "count", 1},
        {"coordinator.overhead_us", m["coordinator.overhead_us"], "us",
         static_cast<size_t>(m["coordinator.samples"])},
        {"coordinator.skip_rate", m["coordinator.skip_rate"], "ratio", q},
        {"obs.trace_overhead", m["obs.trace_overhead"], "ratio", q},
    };
    PrintMetrics("layer", layers);
    PrintMetrics("info", {{"planner.regret_median", m["planner.regret_median"],
                           "ratio", probes}});
    PrintResult(true, st.attempted, st.failed, layers);
  }

  const Args args_;
  const Size size_;
  size_t writers_ = 1;
  int dir_seq_ = 0;
  std::vector<QueryRequest> stream_;
  std::vector<PlannedWrite> writes_;  ///< mixed_rw's schedule, from the seed
  std::vector<DocTerms> docs_;        ///< the documents writes_ copies
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RefuseUnfitBuild();
  return Bench(args).Main();
}
