// MmDatabase: the public facade tying everything together.
//
// Owns a (synthetic) collection, its inverted file with impact orders, the
// Step-1 fragmentation, a scoring model and a sparse-index cache — and
// executes top-N retrieval queries with any of the physical strategies.
// Every query enters as a QueryRequest: when it names a strategy, that
// strategy is forced; otherwise the Step-3 cost-based StrategyPlanner
// chooses per query, in static *and* dynamic mode, from live statistics
// and storage signals (segment decode cost, tombstone density, component
// count, the segment share of sorted access).
//
// Storage spine. The database starts *static*: queries stream the
// immutable in-memory InvertedFile through one InMemoryPostingSource the
// database owns. The first mutation (AddDocument / DeleteDocument) seeds
// a ShardedCatalog (storage/catalog/sharded_catalog.h) of
// DatabaseConfig::num_shards shards — one by default — with the
// collection and flips the database to *dynamic* serving: every query,
// write and lifecycle call then takes one path, facade → ShardCoordinator
// → ShardedCatalog, at every shard count. Queries snapshot the catalog
// per query, statistics track the live documents exactly, and the index
// evolves through the memtable → flush → merge lifecycle; segment files
// are served only by the catalog. Every executor is cursor-based and
// reads ExecContext::postings on every path; in dynamic mode the Step-1
// fragmentation is derived from the snapshot's live global statistics
// (cached per snapshot version), and sparse-probe indexes live in a
// snapshot-scoped cache.
//
// Concurrency: Search / Execute / SearchBatch are safe from many threads,
// and remain safe while another thread mutates the catalog. Static
// queries read immutable state and take no lock; dynamic queries pin the
// storage they started with via a shared_ptr snapshot
// (ExecContext::postings_owner) and wait for no writer except one whose
// commits span shards; mutations serialize internally and publish by
// pointer swap.
#ifndef MOA_ENGINE_DATABASE_H_
#define MOA_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "ir/collection.h"
#include "ir/exact_eval.h"
#include "ir/metrics.h"
#include "obs/query_trace.h"
#include "optimizer/explain.h"
#include "optimizer/strategy_planner.h"
#include "storage/catalog/background_jobs.h"
#include "storage/catalog/index_catalog.h"
#include "storage/catalog/sharded_catalog.h"
#include "storage/fragmentation.h"
#include "storage/segment/posting_cursor.h"
#include "storage/sparse_index_cache.h"
#include "topn/fragment_topn.h"
#include "topn/topn_result.h"

namespace moa {

/// \brief Everything needed to open a database.
struct DatabaseConfig {
  CollectionConfig collection;
  FragmentationPolicy fragmentation;
  ScoringModelKind scoring = ScoringModelKind::kBm25;
  /// Directory for the index catalog's segments + manifest, used once the
  /// database turns dynamic. Empty = memory-only catalog: mutations work,
  /// Flush/Merge return FailedPrecondition. If the directory already
  /// holds a catalog (a MANIFEST from an earlier process), the first
  /// mutation *recovers* it instead of seeding from the generated
  /// collection — the durable surviving documents become the served
  /// corpus.
  std::string catalog_dir;
  /// Number of catalog shards once the database turns dynamic (>= 1;
  /// Open rejects 0). The document space is partitioned across that many
  /// independent shards (storage/catalog/sharded_catalog.h) and every
  /// query goes through the bound-aware scatter-gather ShardCoordinator:
  /// shards are visited in descending impact-upper-bound order on the
  /// shared thread pool, shards that cannot beat the running global n-th
  /// score are skipped entirely (CostCounters::shards_skipped), and later
  /// shards' max-score executions are seeded with the running threshold.
  /// Results for safe strategies are bit-identical at every shard count
  /// (global statistics view; fagin_nra excepted — set-level only). With
  /// 1 (the default) the one shard is a plain catalog in catalog_dir
  /// itself; with more, each shard keeps its own catalog in a
  /// subdirectory. Reopening requires the same shard count.
  size_t num_shards = 1;
  /// Write-ahead log for the dynamic catalog (directory-backed only; see
  /// IndexCatalog::Options::wal_enabled): acknowledged mutations are
  /// fsync'ed before the call returns and replayed on recovery.
  bool wal_enabled = true;
  /// Group-commit fsync batching (IndexCatalog::Options::wal_fsync_every):
  /// 1 = every commit group syncs; larger values trade the tail of
  /// acknowledged records on power loss for fewer fsyncs.
  size_t wal_fsync_every = 1;
  /// Run Flush/Merge as background jobs on the shared thread pool
  /// (storage/catalog/background_jobs.h), triggered by the knobs below.
  /// Off by default: the explicit Flush()/Merge() lifecycle stays fully
  /// caller-driven unless opted in. Each shard gets its own maintenance
  /// loop.
  bool background_maintenance = false;
  /// Background flush trigger: memtable documents (per shard).
  size_t flush_trigger_docs = 1024;
  /// Background merge trigger: segment count (per shard).
  size_t merge_trigger_segments = 8;
  /// Segments compacted per background merge (size-tiered pick).
  size_t merge_fanin = 4;
  /// Write backpressure, enforced only while background maintenance is
  /// attached: adds/updates block (or soft-fail with ResourceExhausted)
  /// once the memtable exceeds this many documents (0 = unbounded).
  size_t backpressure_memtable_docs = 0;
  /// Over budget: false = block writers until maintenance catches up,
  /// true = fail fast with ResourceExhausted.
  bool backpressure_soft_fail = false;
  /// Stage-span trace sampling period: one in every `trace_every`
  /// queries per worker thread records a full per-stage QueryTrace and
  /// retires it to the engine's trace ring. 1 traces every query, 0
  /// disables sampling entirely (ExplainSearch always traces). Aggregate
  /// metrics — per-strategy query counts, latency histograms, the
  /// predicted-vs-observed scalar feed — are exact and unsampled
  /// regardless; sampling only bounds the cost of span collection, which
  /// would otherwise dominate on microsecond-scale queries.
  size_t trace_every = 16;
};

/// \brief Per-query knobs of a QueryRequest.
struct QueryOptions {
  /// Forced strategy. Absent = the cost-based StrategyPlanner decides
  /// from live statistics and storage signals.
  std::optional<PhysicalStrategy> strategy;
  /// Minimum predicted overlap@n for planner-chosen strategies, in
  /// [0, 1]: 1.0 (default) admits only exact (safe) strategies; lower
  /// values let the planner pick cheap unsafe ones whose predicted quality
  /// still meets the target. Ignored when `strategy` is set, but NaN or
  /// out-of-range values are rejected with InvalidArgument either way.
  double quality_target = 1.0;
  /// Quality-switch threshold used by fragment strategies.
  double switch_threshold = 0.0;
  /// Reserved: per-query deadline in milliseconds (0 = none). Validated —
  /// negative and NaN values are rejected with InvalidArgument — but not
  /// yet enforced; carried so the wire format is stable.
  double deadline_millis = 0.0;
};

/// \brief One retrieval query: the single entry point Search /
/// SearchBatch / ExplainSearch all consume.
struct QueryRequest {
  Query query;
  size_t n = 10;
  QueryOptions options;
};

/// \brief Predicted work + scalar cost of the strategy a query ran with.
struct PlanCostEstimate {
  PhysicalStrategy strategy = PhysicalStrategy::kHeap;
  CostCounters predicted;
  double scalar = 0.0;  ///< predicted.Scalar()
};

/// \brief A search answer plus plan/bookkeeping.
struct SearchResult {
  TopNResult top;
  PhysicalStrategy strategy;
  PlanCostEstimate estimate;
  /// True when the strategy was chosen by the cost-based planner (false
  /// = forced by the request).
  bool planned = false;
  /// The planner's predicted overlap@n for the chosen strategy (1.0 for
  /// safe strategies).
  double predicted_quality = 1.0;
  double wall_millis = 0.0;
  /// True when this query was sampled for stage tracing (see
  /// DatabaseConfig::trace_every); `trace` below is populated only then.
  bool traced = false;
  /// Per-stage trace of this execution (plan / cursor-open / accumulate /
  /// heap-merge spans, wall time + CostCounters deltas). Empty when the
  /// query was not sampled or the observability layer is compiled out
  /// (MOA_OBS=OFF).
  obs::QueryTraceData trace;
};

/// \brief Aggregate statistics of one SearchBatch call.
struct BatchStats {
  size_t num_queries = 0;
  /// Worker threads actually used (after clamping to the batch size).
  size_t parallelism = 1;
  /// End-to-end batch wall time (not the sum of per-query times).
  double wall_millis = 0.0;
  /// num_queries / batch seconds.
  double qps = 0.0;
  /// Per-query latency percentiles, estimated from an equi-width
  /// Histogram over the individual wall times.
  double p50_millis = 0.0;
  double p95_millis = 0.0;
  double p99_millis = 0.0;
  /// Summed deterministic work counters across all queries.
  CostCounters total_cost;
};

/// \brief Per-query results plus aggregate stats of one batch.
struct BatchSearchResult {
  /// results[i] answers queries[i] (order preserved regardless of the
  /// execution interleaving).
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// \brief The MM retrieval database.
class MmDatabase {
 public:
  /// Generates the collection, builds impact orders and fragmentation.
  /// Rejects num_shards == 0 with InvalidArgument.
  static Result<std::unique_ptr<MmDatabase>> Open(const DatabaseConfig& config);

  /// The single query entry point: plans (or obeys request.options.
  /// strategy) and executes. With no forced strategy the cost-based
  /// StrategyPlanner chooses — in static *and* dynamic mode — the
  /// cheapest registered strategy whose predicted quality meets
  /// request.options.quality_target, from live statistics and storage
  /// signals (segment decode cost, tombstones, component count, segment
  /// share of sorted access).
  /// Rejects a NaN or out-of-range quality_target, a NaN or negative
  /// deadline_millis and a term id >= file().num_terms() with
  /// InvalidArgument (SearchBatch and ExplainSearch share the check).
  /// Thread-safe.
  Result<SearchResult> Search(const QueryRequest& request) const;

  /// Fans `requests` out across a ThreadPool of `parallelism` workers
  /// (0 = ThreadPool::DefaultParallelism(), clamped to the batch size;
  /// 1 runs inline) and executes each with Search(request). Results keep
  /// request order and are bit-identical to sequential execution — all
  /// shared state is read-only or build-once (the sparse cache), and
  /// per-query scoring state is thread-private. Returns the first
  /// per-query error if any request fails.
  Result<BatchSearchResult> SearchBatch(
      const std::vector<QueryRequest>& requests, size_t parallelism = 0) const;

  /// Executes a specific strategy directly, bypassing the planner (bench
  /// / harness path: no validation beyond the term ids, which must be
  /// below file().num_terms(), and the registry's own, so it can drive
  /// any strategy over any backend). `switch_threshold` is a common
  /// hint consulted by the fragment strategies only; every other strategy
  /// ignores it by design (typed per-strategy options go through the
  /// ExecOptions overload, where the registry rejects family mismatches).
  /// Thread-safe.
  Result<TopNResult> Execute(PhysicalStrategy strategy, const Query& query,
                             size_t n, double switch_threshold = 0.0) const;

  /// Registry execution with full per-strategy options (no default: keeps
  /// the overload above unambiguous). Rejects typed options that do not
  /// belong to `strategy`'s family. Thread-safe.
  Result<TopNResult> Execute(PhysicalStrategy strategy, const Query& query,
                             size_t n, const ExecOptions& options) const;

  /// Borrowed exec-layer view of this database's state; hand it to
  /// StrategyRegistry::Global().Execute (benches swap in their own
  /// fragmentation or sparse cache before doing so). In static mode this
  /// is the in-memory file behind the database's InMemoryPostingSource;
  /// in dynamic mode it is shard 0 of the current catalog snapshot — the
  /// whole collection with one shard, shard 0's local postings under the
  /// global statistics with more — plus the fragmentation built from the
  /// global df. Whole-collection queries go through Search/Execute, which
  /// scatter-gather across every shard. Copies of the context may execute
  /// concurrently.
  ExecContext exec_context() const;

  // ---------------------------------------------------- index lifecycle
  // The first mutation seeds the catalog from the generated collection
  // (same doc ids) and flips the database to dynamic serving. Mutations
  // are thread-safe against each other and against in-flight searches.

  /// Adds a document (any order of (term, tf) pairs; terms must be below
  /// the collection's vocabulary). Returns its doc id.
  Result<DocId> AddDocument(const DocTerms& terms);
  /// Bulk ingest; returns every document's id, in input order. Documents
  /// go to the least-loaded shard, so with more than one shard ids need
  /// not be consecutive; one snapshot publication per touched shard.
  Result<std::vector<DocId>> AddDocuments(const std::vector<DocTerms>& docs);
  /// Tombstones a document: it disappears from results immediately and
  /// statistics drop its exact composition; storage is reclaimed by
  /// Merge.
  Status DeleteDocument(DocId doc);
  /// Upserts a document: tombstones `doc` and re-ingests `terms` under a
  /// fresh id (returned), following the insertion-order id contract of
  /// AddDocument. When the fresh id lands on `doc`'s own shard — always
  /// with one shard — this is one atomic commit: no query observes the
  /// document missing, and a refused add (backpressure) deletes nothing.
  /// A cross-shard upsert is two commits (delete, then add): queries still
  /// never see it half applied, but a refused add or a crash between the
  /// two loses the document.
  Result<DocId> UpdateDocument(DocId doc, const DocTerms& terms);
  /// Persists the memtable as an immutable segment (requires
  /// DatabaseConfig::catalog_dir).
  Status Flush();
  /// Compacts segments (default: all into one), dropping tombstones and
  /// compacting doc ids above the merged range. Returns segments merged.
  Result<size_t> Merge(const MergePolicy& policy = {});

  /// Blocks until background maintenance (if configured) has no job in
  /// flight and no trigger pending, then returns the first sticky
  /// background-job error (OK when none, or when maintenance is off).
  /// The "settle" point for tests and orderly shutdown; foreground
  /// writers may of course re-trigger afterwards.
  Status WaitForMaintenance();

  /// True once a mutation has occurred: queries now serve catalog
  /// snapshots.
  bool is_dynamic() const {
    return dynamic_.load(std::memory_order_acquire);
  }
  /// The sharded catalog every dynamic call goes through, at every shard
  /// count (nullptr while static).
  const ShardedCatalog* sharded_catalog() const {
    return is_dynamic() ? catalog_.get() : nullptr;
  }
  /// The only shard's IndexCatalog when DatabaseConfig::num_shards == 1
  /// (nullptr while static, or with more shards).
  const IndexCatalog* catalog() const {
    const ShardedCatalog* sharded = sharded_catalog();
    return sharded != nullptr && sharded->num_shards() == 1 ? &sharded->shard(0)
                                                            : nullptr;
  }

  /// The last completed query traces (oldest first; capacity 64). Empty
  /// when the observability layer is compiled out. Thread-safe.
  std::vector<obs::QueryTraceData> RecentTraces() const {
    return trace_ring_.Snapshot();
  }

  /// Exact ground truth for quality evaluation (catalog-aware).
  /// Precondition: every term id of `query` is below file().num_terms();
  /// unlike Search and Execute, the oracle does not check.
  std::vector<ScoredDoc> GroundTruth(const Query& query, size_t n) const;
  /// Dense exact scores for quality evaluation, indexed by doc id
  /// (tombstoned slots score 0). Same precondition as GroundTruth.
  std::vector<double> GroundTruthScores(const Query& query) const;

  /// Planner Explain, structured. Runs the query the way Search does —
  /// one snapshot, each shard executing its own plan — traced, and
  /// reports that run: the full planning decision (every candidate with
  /// predicted cost, predicted quality and a reject reason, forced
  /// strategies included; the highest-bound shard's over a catalog), the
  /// storage the run read (the in-memory file or the catalog snapshot
  /// composition), the fragmentation a fragment strategy used, and the
  /// run's observed CostCounters and stage trace. A plan that cannot
  /// execute here is still reported, with has_blocks false. Explain runs
  /// record no query metrics and no trace in RecentTraces().
  Result<ExplainReport> ExplainSearch(const QueryRequest& request) const;

  const InvertedFile& file() const { return collection_->inverted_file(); }
  const Collection& collection() const { return *collection_; }
  const Fragmentation& fragmentation() const { return fragmentation_; }
  const ScoringModel& model() const { return *model_; }
  const DatabaseConfig& config() const { return config_; }

 private:
  MmDatabase() = default;

  /// Creates (and seeds) or recovers the catalog on first mutation
  /// (caller holds mutation_mutex_).
  Status EnsureDynamicLocked();
  /// The static-mode context (the in-memory file through memory_);
  /// exec_context() dispatches here when not dynamic.
  ExecContext static_context() const;
  /// Fragmentation of one catalog snapshot, derived from its live global
  /// df under this database's policy — the term classification every
  /// shard executes with. Cached per snapshot version (a single entry —
  /// mutations invalidate by bumping the version).
  std::shared_ptr<const Fragmentation> DynamicFragmentation(
      const ShardedSnapshot& snapshot) const;
  /// The one implementation behind Search / SearchBatch / ExplainSearch:
  /// snapshots storage once, plans, and executes. A forced strategy takes
  /// the PlanForced fast path (no enumeration). With `explain` set the run
  /// is traced and fills the report: the planner enumerates the full
  /// candidate table (forced requests included), and a strategy that fails
  /// to execute returns the plan alone (ShardCoordinator::Run's contract).
  Result<SearchResult> RunQuery(const QueryRequest& request,
                                ExplainReport* explain) const;
  /// Records per-query metrics and pushes the trace into the ring
  /// (Search's runs only; explain runs record neither). Pass-through for
  /// errors.
  Result<SearchResult> FinishQuery(Result<SearchResult> result) const;

  DatabaseConfig config_;
  std::unique_ptr<Collection> collection_;
  /// The cursor view every static query streams the collection through.
  std::unique_ptr<const InMemoryPostingSource> memory_;
  Fragmentation fragmentation_;
  std::unique_ptr<ScoringModel> model_;
  std::unique_ptr<CardinalityEstimator> estimator_;

  /// Index lifecycle (dynamic mode). catalog_ is created once under
  /// mutation_mutex_ and never replaced; dynamic_ flips (release) after
  /// it is fully seeded, so readers seeing true (acquire) see a complete
  /// catalog.
  std::mutex mutation_mutex_;
  std::unique_ptr<ShardedCatalog> catalog_;
  /// One maintenance loop per shard when
  /// DatabaseConfig::background_maintenance is on. Declared after
  /// catalog_ so destruction detaches and drains every loop before its
  /// catalog dies.
  std::vector<std::unique_ptr<BackgroundMaintenance>> maintenance_;
  std::atomic<bool> dynamic_{false};

  /// Lazily filled by sparse-probe executions; mutable because filling the
  /// cache is not an observable mutation of the database (build-once,
  /// internally locked — the one piece of shared state Search may write).
  /// Static mode only: catalog snapshots carry their own snapshot-scoped
  /// cache (stale-proof across mutations).
  mutable SparseIndexCache sparse_cache_;

  /// Single-entry cache of DynamicFragmentation, keyed by snapshot
  /// version. shared_ptr so in-flight queries keep their fragmentation
  /// alive (bundled into ExecContext::postings_owner) while mutations
  /// replace the cache entry.
  mutable std::mutex dyn_frag_mutex_;
  mutable uint64_t dyn_frag_version_ = 0;
  mutable std::shared_ptr<const Fragmentation> dyn_frag_;

  /// Last K completed query traces (mutable: Search is const; the ring is
  /// engine bookkeeping, not database state). Never written when the
  /// observability layer is compiled out.
  mutable obs::TraceRing trace_ring_{64};
};

}  // namespace moa

#endif  // MOA_ENGINE_DATABASE_H_
