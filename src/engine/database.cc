#include "engine/database.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/timer.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "obs/metrics.h"
#include "optimizer/explain.h"

namespace moa {

Result<std::unique_ptr<MmDatabase>> MmDatabase::Open(
    const DatabaseConfig& config) {
  if (config.num_shards == 0) {
    return Status::InvalidArgument("database: num_shards must be >= 1");
  }
  auto db = std::unique_ptr<MmDatabase>(new MmDatabase());
  db->config_ = config;

  Result<Collection> coll = Collection::Generate(config.collection);
  if (!coll.ok()) return coll.status();
  db->collection_ = std::make_unique<Collection>(std::move(coll).ValueOrDie());

  InvertedFile& file = db->collection_->mutable_inverted_file();
  switch (config.scoring) {
    case ScoringModelKind::kTfIdf:
      db->model_ = MakeTfIdf(&file);
      break;
    case ScoringModelKind::kBm25:
      db->model_ = MakeBm25(&file);
      break;
    case ScoringModelKind::kLanguageModel:
      db->model_ = MakeLanguageModel(&file);
      break;
  }
  file.BuildImpactOrders([&](TermId t, const Posting& p) {
    return db->model_->Weight(t, p);
  });
  db->memory_ = std::make_unique<const InMemoryPostingSource>(&file);
  db->fragmentation_ = Fragmentation::Build(file, config.fragmentation);
  db->estimator_ = std::make_unique<CardinalityEstimator>(
      &file, &db->fragmentation_);
  return db;
}

std::shared_ptr<const Fragmentation> MmDatabase::DynamicFragmentation(
    const ShardedSnapshot& snapshot) const {
  std::lock_guard<std::mutex> lock(dyn_frag_mutex_);
  if (dyn_frag_ == nullptr || dyn_frag_version_ != snapshot.version()) {
    // Live df is all the assignment depends on, so this fragments exactly
    // like a fresh index of the surviving documents. The df is the global
    // aggregate, so every shard executes with the term classification of
    // one catalog of the whole collection.
    dyn_frag_ = std::make_shared<const Fragmentation>(
        Fragmentation::Build(snapshot.stats().df, config_.fragmentation));
    dyn_frag_version_ = snapshot.version();
  }
  return dyn_frag_;
}

namespace {

/// What exec_context() lends out, bundled so one shared_ptr
/// (ExecContext::postings_owner) keeps both alive across concurrent
/// mutations.
struct BorrowedSnapshot {
  std::shared_ptr<const ShardedSnapshot> snapshot;
  std::shared_ptr<const Fragmentation> fragmentation;
};

/// The strategies that read ExecContext::fragmentation — registry
/// metadata (PlannerHooks::needs_fragmentation), not a hard-coded list,
/// so custom registrations participate.
bool NeedsFragmentation(PhysicalStrategy s) {
  const StrategyRegistry::Entry* entry = StrategyRegistry::Global().Find(s);
  return entry != nullptr && entry->planner.needs_fragmentation;
}

/// Executors and storage index per-term arrays by term id unchecked, so
/// the facade rejects ids outside the vocabulary before any of them runs.
Status CheckTermIds(const Query& query, size_t num_terms) {
  for (const TermId t : query.terms) {
    if (t >= num_terms) {
      return Status::InvalidArgument(
          "query: term id " + std::to_string(t) +
          " is outside the vocabulary of " + std::to_string(num_terms) +
          " terms");
    }
  }
  return Status::OK();
}

}  // namespace

ExecContext MmDatabase::static_context() const {
  // The generated collection never changes, so the borrowed context needs
  // no snapshot owner and no lock.
  ExecContext context;
  context.postings = memory_.get();
  context.model = model_.get();
  context.fragmentation = &fragmentation_;
  context.sparse_cache = &sparse_cache_;
  return context;
}

ExecContext MmDatabase::exec_context() const {
  if (!is_dynamic()) return static_context();
  // No single PostingSource spans more than one shard: the borrowed
  // context covers shard 0 under the global statistics (the whole
  // collection at one shard). Callers of the borrowed view don't name a
  // strategy up front, so it carries every capability, fragmentation
  // included.
  auto bundle = std::make_shared<BorrowedSnapshot>();
  bundle->snapshot = catalog_->Snapshot();
  bundle->fragmentation = DynamicFragmentation(*bundle->snapshot);
  ExecContext context;
  context.model = &bundle->snapshot->shard_model(0);
  context.postings = &bundle->snapshot->shard_source(0);
  context.fragmentation = bundle->fragmentation.get();
  context.sparse_cache = &bundle->snapshot->shard_sparse_cache(0);
  context.postings_owner = std::move(bundle);
  return context;
}

// ------------------------------------------------------ index lifecycle

namespace {

/// The seed batch of a fresh catalog: the generated collection transposed
/// into per-document compositions, indexed by its doc ids.
std::vector<DocTerms> SeedDocuments(const InvertedFile& f) {
  std::vector<DocTerms> docs(f.num_docs());
  for (TermId t = 0; t < f.num_terms(); ++t) {
    const PostingList& list = f.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      docs[list[i].doc].emplace_back(t, list[i].tf);
    }
  }
  return docs;
}

}  // namespace

Status MmDatabase::EnsureDynamicLocked() {
  if (catalog_ != nullptr) return Status::OK();

  ShardedCatalog::Options options;
  options.num_shards = config_.num_shards;
  options.shard.num_terms = file().num_terms();
  options.shard.dir = config_.catalog_dir;
  options.shard.scoring = config_.scoring;
  options.shard.wal_enabled = config_.wal_enabled;
  options.shard.wal_fsync_every = config_.wal_fsync_every;
  if (config_.background_maintenance) {
    options.shard.backpressure_memtable_docs =
        config_.backpressure_memtable_docs;
    options.shard.backpressure_soft_fail = config_.backpressure_soft_fail;
  }

  // A directory that already holds a catalog (an earlier process's
  // writes) is recovered: its surviving documents — not the freshly
  // generated collection — become the served corpus; re-seeding would
  // duplicate every durable document.
  const bool recover = ShardedCatalog::Exists(options);
  Result<std::unique_ptr<ShardedCatalog>> opened =
      recover ? ShardedCatalog::Open(options) : ShardedCatalog::Create(options);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<ShardedCatalog> catalog = std::move(opened).ValueOrDie();
  if (!recover && file().num_docs() > 0) {
    // One batch. Round-robin routing from an empty catalog assigns
    // document k the global id k, so the seed keeps the generated
    // collection's ids at every shard count.
    MOA_RETURN_NOT_OK(catalog->AddDocuments(SeedDocuments(file())).status());
  }
  catalog_ = std::move(catalog);

  // Maintenance needs a directory to flush into; memory-only catalogs
  // would fail every background job.
  if (config_.background_maintenance && !config_.catalog_dir.empty()) {
    MaintenancePolicy policy;
    policy.flush_trigger_docs = config_.flush_trigger_docs;
    policy.merge_trigger_segments = config_.merge_trigger_segments;
    policy.merge_fanin = config_.merge_fanin;
    // One loop per shard; every background publish marks the cached
    // snapshot stale (a merge compacts the shard's local ids).
    const ShardedCatalog* catalog_ptr = catalog_.get();
    for (size_t s = 0; s < catalog_->num_shards(); ++s) {
      maintenance_.push_back(std::make_unique<BackgroundMaintenance>(
          &catalog_->shard(s), policy,
          [catalog_ptr] { catalog_ptr->InvalidateSnapshotCache(); }));
    }
  }
  // Release-publish: readers that observe dynamic_ == true see the fully
  // seeded catalog.
  dynamic_.store(true, std::memory_order_release);
  return Status::OK();
}

Status MmDatabase::WaitForMaintenance() {
  // maintenance_ is created once under mutation_mutex_ and only destroyed
  // with the database; snapshotting the loops here (not holding the lock
  // while waiting) keeps foreground mutations flowing while we drain.
  std::vector<BackgroundMaintenance*> loops;
  {
    std::lock_guard<std::mutex> lock(mutation_mutex_);
    for (const auto& m : maintenance_) loops.push_back(m.get());
  }
  Status first_error;
  for (BackgroundMaintenance* m : loops) {
    m->WaitIdle();
    const Status s = m->TakeLastError();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Result<DocId> MmDatabase::AddDocument(const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->AddDocument(terms);
}

Result<std::vector<DocId>> MmDatabase::AddDocuments(
    const std::vector<DocTerms>& docs) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->AddDocuments(docs);
}

Status MmDatabase::DeleteDocument(DocId doc) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->DeleteDocument(doc);
}

Result<DocId> MmDatabase::UpdateDocument(DocId doc, const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->UpdateDocument(doc, terms);
}

Status MmDatabase::Flush() {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->FlushAll();
}

Result<size_t> MmDatabase::Merge(const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return catalog_->MergeAll(policy);
}

// --------------------------------------------------------------- queries

Result<TopNResult> MmDatabase::Execute(PhysicalStrategy strategy,
                                       const Query& query, size_t n,
                                       double switch_threshold) const {
  ExecOptions options;
  options.switch_threshold = switch_threshold;
  return Execute(strategy, query, n, options);
}

Result<TopNResult> MmDatabase::Execute(PhysicalStrategy strategy,
                                       const Query& query, size_t n,
                                       const ExecOptions& options) const {
  // Direct registry execution, no planner in the loop: benches and
  // harnesses use this to drive any strategy over any backend with no
  // validation beyond the term ids and the registry's own. The strategy
  // is known here, so dynamic queries only pay for the live-statistics
  // fragmentation when a fragment strategy runs. The dynamic flag is read
  // once, as in RunQuery.
  MOA_RETURN_NOT_OK(CheckTermIds(query, file().num_terms()));
  if (!is_dynamic()) {
    return StrategyRegistry::Global().Execute(strategy, static_context(),
                                              query, n, options);
  }
  const std::shared_ptr<const ShardedSnapshot> snapshot = catalog_->Snapshot();
  const std::shared_ptr<const Fragmentation> frag =
      NeedsFragmentation(strategy) ? DynamicFragmentation(*snapshot) : nullptr;
  ShardCoordinator::Options copts;
  copts.fragmentation = frag.get();
  return ShardCoordinator::Execute(snapshot, strategy, query, n, options,
                                   copts);
}

namespace {

/// Per-thread sampling decision for stage tracing. A plain thread_local
/// round-robin — no atomics, and SearchBatch workers each sample their
/// own every-Nth query independently.
bool SampleTrace(size_t every) {
  if (every == 0) return false;
  if (every == 1) return true;
  thread_local uint64_t counter = 0;
  return (counter++ % every) == 0;
}

/// Static serving: plan on the in-memory statistics, then execute on the
/// in-memory file. Dynamic queries take ShardCoordinator::Run instead,
/// whose `explain`, `trace` and `decision_out` this shares.
Result<SearchResult> PlanAndRun(const StrategyPlanner& planner,
                                const ExecContext& context,
                                const QueryRequest& request, bool explain,
                                bool trace, PlanDecision* decision_out) {
  // When sampled, activates per-query tracing for this thread: the plan
  // span and the stage spans the executors open all attach here (spans
  // against no current trace are no-ops). Stage CostCounters are ticker
  // deltas at span boundaries — the per-posting loop never sees the
  // trace.
  std::optional<obs::QueryTrace> qtrace;
  if (trace || explain) qtrace.emplace();

  PlanRequest preq;
  preq.n = request.n;
  preq.quality_target = request.options.quality_target;
  preq.force = request.options.strategy;
  Result<PlanCandidate> choice =
      planner.Decide(request.query, preq, decision_out);
  if (!choice.ok()) return choice.status();
  const PlanCandidate& chosen = choice.ValueOrDie();

  SearchResult out;
  out.planned = !preq.force.has_value();
  out.strategy = chosen.strategy;
  out.estimate.strategy = chosen.strategy;
  out.estimate.predicted = chosen.predicted;
  out.estimate.scalar = chosen.scalar;
  out.predicted_quality = chosen.predicted_quality;

  ExecOptions eopts;
  eopts.switch_threshold = request.options.switch_threshold;
  WallTimer timer;
  Result<TopNResult> top = StrategyRegistry::Global().Execute(
      out.strategy, context, request.query, request.n, eopts);
  if (!top.ok()) {
    if (explain) return out;
    return top.status();
  }
  out.wall_millis = timer.ElapsedMillis();
  out.top = std::move(top).ValueOrDie();

  if (qtrace.has_value()) {
    out.trace = qtrace->Finish();
    out.trace.strategy = StrategyName(out.strategy);
    out.trace.planned = out.planned;
    out.trace.predicted_scalar = chosen.scalar;
    out.trace.predicted_quality = chosen.predicted_quality;
    out.traced = true;
  }
  return out;
}

/// Fills what an explain reports of the run it explains: the storage the
/// run read, the split a fragment strategy used and, when the plan
/// executed (an explain run is traced exactly then), the run's counters
/// and stage trace.
void RecordExplainedRun(const Result<SearchResult>& run, std::string storage,
                        const Fragmentation& fragmentation,
                        ExplainReport* report) {
  if (!run.ok()) return;
  report->storage = std::move(storage);
  if (NeedsFragmentation(report->decision.strategy)) {
    report->fragmentation = fragmentation.ToString();
  }
  const SearchResult& r = run.ValueOrDie();
  report->has_blocks = r.traced;
  if (!report->has_blocks) return;
  report->observed = r.top.stats.cost;
  report->trace = r.trace;
}

}  // namespace

Result<SearchResult> MmDatabase::RunQuery(const QueryRequest& request,
                                          ExplainReport* explain) const {
  // deadline_millis is reserved (not yet enforced), but a negative or NaN
  // value is malformed today, not merely unenforced —
  // reject it instead of silently accepting a request no future version
  // could honor. A NaN quality_target would pass every
  // `predicted_quality < target` test in the planner and admit unsafe
  // strategies, so it is rejected with the out-of-range targets. The
  // negated comparisons are false for NaN.
  const QueryOptions& options = request.options;
  if (!(options.deadline_millis >= 0.0)) {
    return Status::InvalidArgument(
        "query: deadline_millis must be >= 0 (0 = no deadline)");
  }
  if (!(options.quality_target >= 0.0 && options.quality_target <= 1.0)) {
    return Status::InvalidArgument("query: quality_target must be in [0, 1]");
  }
  MOA_RETURN_NOT_OK(CheckTermIds(request.query, file().num_terms()));
  // One storage snapshot per query: plan and execution must see the same
  // state. The dynamic/static decision is read once; a query that raced
  // the first mutation onto the static side stays static end-to-end (the
  // generated collection is immutable), instead of planning statically
  // and then executing against the catalog.
  const bool explaining = explain != nullptr;
  const bool trace = !explaining && SampleTrace(config_.trace_every);
  PlanDecision* decision_out = explaining ? &explain->decision : nullptr;
  if (!is_dynamic()) {
    // Static serving: neutral in-memory storage signals.
    const StrategyPlanner planner(estimator_.get());
    Result<SearchResult> run = PlanAndRun(planner, static_context(), request,
                                          explaining, trace, decision_out);
    if (!explaining) return FinishQuery(std::move(run));
    RecordExplainedRun(run, "in-memory inverted file", fragmentation_,
                       explain);
    return run;
  }

  // The live-statistics fragmentation is only built when a fragment
  // strategy could actually run: a forced fragment strategy, or planner
  // choice with a quality target that admits unsafe strategies. At target
  // 1.0 no fragment strategy can win — the safe one (quality_switch_full)
  // predicts exactly heap's cost and loses the deterministic tie — so the
  // default cursor path skips the build and its cache lock entirely.
  // Explain always builds it: the candidate table should show the fragment
  // strategies' predictions.
  const bool want_frag =
      explaining || (options.strategy.has_value()
                         ? NeedsFragmentation(*options.strategy)
                         : options.quality_target < 1.0);
  // One consistent multi-shard snapshot, then the bound-aware
  // scatter-gather coordinator (per-shard planning, bound-ordered visits
  // with suffix skipping, threshold-seeded max-score).
  const std::shared_ptr<const ShardedSnapshot> snapshot = catalog_->Snapshot();
  const std::shared_ptr<const Fragmentation> frag =
      want_frag ? DynamicFragmentation(*snapshot) : nullptr;
  ShardCoordinator::Options copts;
  copts.fragmentation = frag.get();
  Result<SearchResult> run = ShardCoordinator::Run(
      snapshot, request, explaining, trace, decision_out, copts);
  if (!explaining) return FinishQuery(std::move(run));
  RecordExplainedRun(run, snapshot->Describe(), *frag, explain);
  return run;
}

namespace {

/// Per-query metric handles. Registry handles are process-stable
/// (metrics are never erased; ResetForTest zeroes values in place), so
/// they are resolved once — the per-query cost is a handful of relaxed
/// sharded adds, never a string-keyed map probe.
struct QueryMetrics {
  obs::Counter* query_total[16];  // indexed by PhysicalStrategy
  obs::HistogramMetric* latency_ms;
  obs::Counter* plan_planned;
  obs::Counter* plan_forced;
  obs::Counter* predicted_scalar;
  obs::Counter* observed_scalar;
  obs::Counter* shard_visited;
  obs::Counter* shard_skipped;
  obs::Counter* shard_postings_skipped;

  static const QueryMetrics& Get() {
    static const QueryMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      QueryMetrics m{};  // unregistered slots stay null
      for (PhysicalStrategy strategy : AllStrategies()) {
        const auto i = static_cast<size_t>(strategy);
        if (i < std::size(m.query_total)) {
          m.query_total[i] = registry.GetCounter(
              "moa_query_total",
              "strategy=" + std::string(StrategyName(strategy)));
        }
      }
      m.latency_ms = registry.GetHistogram("moa_query_latency_ms");
      m.plan_planned = registry.GetCounter("moa_plan_total", "mode=planned");
      m.plan_forced = registry.GetCounter("moa_plan_total", "mode=forced");
      m.predicted_scalar =
          registry.GetCounter("moa_plan_predicted_scalar_total");
      m.observed_scalar = registry.GetCounter("moa_plan_observed_scalar_total");
      m.shard_visited = registry.GetCounter("moa_shard_visited_total");
      m.shard_skipped = registry.GetCounter("moa_shard_skipped_total");
      m.shard_postings_skipped =
          registry.GetCounter("moa_shard_postings_skipped_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Result<SearchResult> MmDatabase::FinishQuery(
    Result<SearchResult> result) const {
  if (!result.ok()) return result;
  const SearchResult& r = result.ValueOrDie();
  const QueryMetrics& metrics = QueryMetrics::Get();
  const auto strategy_index = static_cast<size_t>(r.strategy);
  if (strategy_index < std::size(metrics.query_total) &&
      metrics.query_total[strategy_index] != nullptr) {
    metrics.query_total[strategy_index]->Add();
  } else {
    // A strategy registered after the handle table was built (tests
    // with custom registrations): slow path, still correct.
    obs::MetricsRegistry::Global()
        .GetCounter("moa_query_total",
                    "strategy=" + std::string(StrategyName(r.strategy)))
        ->Add();
  }
  metrics.latency_ms->Observe(r.wall_millis);
  (r.planned ? metrics.plan_planned : metrics.plan_forced)->Add();
  // The raw predicted-vs-observed feed for the calibration loop: the
  // ratio of these two running sums is the planner's global cost-model
  // drift (bench_compare.py --calibration distills it from the JSON
  // dump). Driven off the result's own plan estimate and CostScope
  // counters, so it stays exact for untraced (unsampled) queries.
  metrics.predicted_scalar->Add(r.estimate.scalar);
  metrics.observed_scalar->Add(r.top.stats.cost.Scalar());
  // Shard scatter-gather accounting (zero on static queries, so the
  // counters move only when the coordinator ran): visited vs bound-pruned
  // shards and the exact posting volume the pruned shards held.
  const CostCounters& cost = r.top.stats.cost;
  if (cost.shards_visited != 0 || cost.shards_skipped != 0) {
    metrics.shard_visited->Add(static_cast<double>(cost.shards_visited));
    metrics.shard_skipped->Add(static_cast<double>(cost.shards_skipped));
    metrics.shard_postings_skipped->Add(
        static_cast<double>(cost.shard_postings_skipped));
  }
  if (r.traced) trace_ring_.Push(r.trace);
  return result;
}

Result<SearchResult> MmDatabase::Search(const QueryRequest& request) const {
  return RunQuery(request, /*explain=*/nullptr);
}

std::vector<ScoredDoc> MmDatabase::GroundTruth(const Query& query,
                                               size_t n) const {
  if (!is_dynamic()) return ExactTopN(file(), *model_, query, n);
  // Exact per-shard top-N under the global statistics, merged under the
  // global (score desc, doc asc) order — the exact global top-N, since
  // every document lives in exactly one shard.
  const std::shared_ptr<const ShardedSnapshot> snapshot = catalog_->Snapshot();
  std::vector<ScoredDoc> all;
  for (size_t s = 0; s < snapshot->num_shards(); ++s) {
    for (ScoredDoc sd : ExactTopN(snapshot->shard_source(s),
                                  snapshot->shard_model(s), query, n)) {
      sd.doc = ShardedCatalog::GlobalOf(sd.doc, s, snapshot->num_shards());
      all.push_back(sd);
    }
  }
  std::sort(all.begin(), all.end(), ScoredDocLess);
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<double> MmDatabase::GroundTruthScores(const Query& query) const {
  if (!is_dynamic()) return AccumulateScores(file(), *model_, query);
  // Dense by *global* id: each shard's local score vector scattered
  // through the interleaved id mapping; unmapped slots stay 0.
  const std::shared_ptr<const ShardedSnapshot> snapshot = catalog_->Snapshot();
  std::vector<double> scores(snapshot->doc_space(), 0.0);
  for (size_t s = 0; s < snapshot->num_shards(); ++s) {
    const std::vector<double> local = AccumulateScores(
        snapshot->shard_source(s), snapshot->shard_model(s), query);
    for (size_t l = 0; l < local.size(); ++l) {
      const DocId g = ShardedCatalog::GlobalOf(static_cast<DocId>(l), s,
                                               snapshot->num_shards());
      if (static_cast<size_t>(g) < scores.size()) scores[g] = local[l];
    }
  }
  return scores;
}

Result<ExplainReport> MmDatabase::ExplainSearch(
    const QueryRequest& request) const {
  ExplainReport report;
  const Result<SearchResult> run = RunQuery(request, &report);
  if (!run.ok()) return run.status();
  return report;
}

}  // namespace moa
