#include "engine/database.h"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "common/timer.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "obs/metrics.h"
#include "optimizer/explain.h"

namespace moa {

Result<std::unique_ptr<MmDatabase>> MmDatabase::Open(
    const DatabaseConfig& config) {
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

std::shared_ptr<const CatalogReadView> MmDatabase::catalog_view() const {
  return catalog_->OpenReadView();
}

std::shared_ptr<const Fragmentation> MmDatabase::DynamicFragmentation(
    const CatalogState& state) const {
  return DynamicFragmentation(state.stats().df, state.version());
}

std::shared_ptr<const Fragmentation> MmDatabase::DynamicFragmentation(
    const std::vector<uint32_t>& df, uint64_t version) const {
  std::lock_guard<std::mutex> lock(dyn_frag_mutex_);
  if (dyn_frag_ == nullptr || dyn_frag_version_ != version) {
    // Live df is all the assignment depends on, so this fragments exactly
    // like a fresh index of the surviving documents. Under sharding the
    // df is the global aggregate, so the term classification every shard
    // executes with is identical to a single catalog's.
    dyn_frag_ = std::make_shared<const Fragmentation>(
        Fragmentation::Build(df, config_.fragmentation));
    dyn_frag_version_ = version;
  }
  return dyn_frag_;
}

namespace {

/// Everything a catalog-backed query borrows, bundled so one shared_ptr
/// (ExecContext::postings_owner) keeps the whole chain alive across
/// concurrent mutations: the read view (state + stats + model) and the
/// snapshot's fragmentation.
struct DynamicQueryState {
  std::shared_ptr<const CatalogReadView> view;
  std::shared_ptr<const Fragmentation> fragmentation;
};

/// The strategies that read ExecContext::fragmentation — registry
/// metadata (PlannerHooks::needs_fragmentation), not a hard-coded list,
/// so custom registrations participate.
bool NeedsFragmentation(PhysicalStrategy s) {
  const StrategyRegistry::Entry* entry = StrategyRegistry::Global().Find(s);
  return entry != nullptr && entry->planner.needs_fragmentation;
}

}  // namespace

ExecContext MmDatabase::catalog_context(
    const std::shared_ptr<const CatalogReadView>& view,
    std::shared_ptr<const Fragmentation> fragmentation) const {
  // No materialized InvertedFile describes the evolving collection; every
  // strategy streams the snapshot through the cursor API instead. The
  // fragment strategies additionally get a fragmentation derived from the
  // snapshot's live statistics and the snapshot-scoped sparse cache.
  auto bundle = std::make_shared<DynamicQueryState>();
  bundle->view = view;
  bundle->fragmentation = std::move(fragmentation);

  ExecContext context;
  context.model = view->model();
  context.postings = view.get();
  context.fragmentation = bundle->fragmentation.get();
  context.sparse_cache = &view->state().sparse_cache();
  context.postings_owner = std::move(bundle);
  return context;
}

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
  if (is_dynamic()) {
    if (sharded_ != nullptr) {
      // No single PostingSource spans a sharded collection; the borrowed
      // context covers shard 0 under the global statistics (see the
      // header). Whole-collection queries go through Search/Execute.
      const std::shared_ptr<const ShardedSnapshot> snapshot =
          sharded_->Snapshot();
      ExecContext context;
      context.model = &snapshot->shard_model(0);
      context.postings = &snapshot->shard_source(0);
      context.sparse_cache = &snapshot->shard_sparse_cache(0);
      context.postings_owner = snapshot;
      return context;
    }
    // Callers of the borrowed view don't name a strategy up front, so
    // the context carries every capability, fragmentation included.
    const std::shared_ptr<const CatalogReadView> view = catalog_view();
    return catalog_context(view, DynamicFragmentation(view->state()));
  }
  return static_context();
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
  if (catalog_ != nullptr || sharded_ != nullptr) return Status::OK();

  IndexCatalog::Options options;
  options.num_terms = file().num_terms();
  options.dir = config_.catalog_dir;
  options.scoring = config_.scoring;
  options.wal_enabled = config_.wal_enabled;
  options.wal_fsync_every = config_.wal_fsync_every;
  if (config_.background_maintenance) {
    options.backpressure_memtable_docs = config_.backpressure_memtable_docs;
    options.backpressure_max_segments = config_.backpressure_max_segments;
    options.backpressure_soft_fail = config_.backpressure_soft_fail;
  }

  MaintenancePolicy maintenance_policy;
  maintenance_policy.flush_trigger_docs = config_.flush_trigger_docs;
  maintenance_policy.merge_trigger_segments = config_.merge_trigger_segments;
  maintenance_policy.merge_fanin = config_.merge_fanin;
  maintenance_policy.min_interval_millis =
      config_.maintenance_min_interval_millis;
  // Maintenance needs a directory to flush into; memory-only catalogs
  // would fail every background job.
  const bool attach_maintenance =
      config_.background_maintenance && !config_.catalog_dir.empty();

  if (config_.num_shards > 1) {
    ShardedCatalog::Options soptions;
    soptions.num_shards = config_.num_shards;
    soptions.shard = options;  // shard.dir is the root; shards nest under it

    std::unique_ptr<ShardedCatalog> sharded;
    if (!options.dir.empty() &&
        std::filesystem::exists(options.dir + "/shard_0/" +
                                kManifestFileName)) {
      // A durable sharded catalog from an earlier process: recover every
      // shard instead of re-seeding (same rule as the single catalog).
      Result<std::unique_ptr<ShardedCatalog>> opened =
          ShardedCatalog::Open(soptions);
      if (!opened.ok()) return opened.status();
      sharded = std::move(opened).ValueOrDie();
    } else {
      Result<std::unique_ptr<ShardedCatalog>> created =
          ShardedCatalog::Create(soptions);
      if (!created.ok()) return created.status();
      sharded = std::move(created).ValueOrDie();
      if (file().num_docs() > 0) {
        // Round-robin routing from an empty catalog assigns document k
        // the global id k — the seed keeps the generated collection's ids
        // under sharding too.
        MOA_RETURN_NOT_OK(
            sharded->AddDocuments(SeedDocuments(file())).status());
      }
    }

    sharded_ = std::move(sharded);
    if (attach_maintenance) {
      // One loop per shard; every background publish drops the cached
      // multi-shard snapshot (a merge compacts the shard's local ids).
      ShardedCatalog* sharded_ptr = sharded_.get();
      for (size_t s = 0; s < sharded_->num_shards(); ++s) {
        maintenance_.push_back(std::make_unique<BackgroundMaintenance>(
            &sharded_->shard(s), maintenance_policy,
            [sharded_ptr] { sharded_ptr->InvalidateSnapshotCache(); }));
      }
    }
    dynamic_.store(true, std::memory_order_release);
    return Status::OK();
  }

  std::unique_ptr<IndexCatalog> catalog;
  if (!options.dir.empty() &&
      std::filesystem::exists(options.dir + "/" + kManifestFileName)) {
    // The directory already holds a durable catalog (an earlier process's
    // flushes): recover it. Its surviving documents — not the freshly
    // generated collection — become the served corpus; re-seeding would
    // duplicate every previously flushed document.
    Result<std::unique_ptr<IndexCatalog>> opened = IndexCatalog::Open(options);
    if (!opened.ok()) return opened.status();
    catalog = std::move(opened).ValueOrDie();
  } else {
    Result<std::unique_ptr<IndexCatalog>> created =
        IndexCatalog::Create(options);
    if (!created.ok()) return created.status();
    catalog = std::move(created).ValueOrDie();
    // Seed the fresh catalog with the generated collection under the
    // same doc ids, as one batch.
    if (file().num_docs() > 0) {
      MOA_RETURN_NOT_OK(catalog->AddDocuments(SeedDocuments(file())).status());
    }
  }

  catalog_ = std::move(catalog);
  if (attach_maintenance) {
    maintenance_.push_back(std::make_unique<BackgroundMaintenance>(
        catalog_.get(), maintenance_policy));
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
  if (sharded_ != nullptr) return sharded_->AddDocument(terms);
  return catalog_->AddDocument(terms);
}

Result<std::vector<DocId>> MmDatabase::AddDocuments(
    const std::vector<DocTerms>& docs) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  if (sharded_ != nullptr) return sharded_->AddDocuments(docs);
  // A single catalog appends the batch under consecutive ids.
  Result<DocId> first = catalog_->AddDocuments(docs);
  if (!first.ok()) return first.status();
  std::vector<DocId> ids(docs.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = first.ValueOrDie() + static_cast<DocId>(i);
  }
  return ids;
}

Status MmDatabase::DeleteDocument(DocId doc) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  if (sharded_ != nullptr) return sharded_->DeleteDocument(doc);
  return catalog_->DeleteDocument(doc);
}

Result<DocId> MmDatabase::UpdateDocument(DocId doc, const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  if (sharded_ != nullptr) return sharded_->UpdateDocument(doc, terms);
  return catalog_->UpdateDocument(doc, terms);
}

Status MmDatabase::Flush() {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  if (sharded_ != nullptr) return sharded_->FlushAll();
  return catalog_->Flush();
}

Result<size_t> MmDatabase::Merge(const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  if (sharded_ != nullptr) return sharded_->MergeAll(policy);
  return catalog_->Merge(policy);
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
  // validation beyond the registry's own. The strategy is known here, so
  // dynamic contexts only pay for the live-statistics fragmentation when
  // a fragment strategy runs. The dynamic flag is read once, as in
  // RunQuery.
  if (!is_dynamic()) {
    return StrategyRegistry::Global().Execute(strategy, static_context(),
                                              query, n, options);
  }
  if (sharded_ != nullptr) {
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    const std::shared_ptr<const Fragmentation> frag =
        NeedsFragmentation(strategy)
            ? DynamicFragmentation(snapshot->stats().df, snapshot->version())
            : nullptr;
    ShardCoordinator::Options copts;
    copts.fragmentation = frag.get();
    return ShardCoordinator::Execute(snapshot, strategy, query, n, options,
                                     copts);
  }
  const std::shared_ptr<const CatalogReadView> view = catalog_view();
  return StrategyRegistry::Global().Execute(
      strategy,
      catalog_context(view, NeedsFragmentation(strategy)
                                ? DynamicFragmentation(view->state())
                                : nullptr),
      query, n, options);
}

StrategyCostInputs MmDatabase::DynamicStorageInputs(
    const CatalogState& state) const {
  // Composition() walks every component, so the digest is cached per
  // snapshot version (single entry — mutations invalidate by bumping the
  // version, exactly like the fragmentation cache).
  std::lock_guard<std::mutex> lock(dyn_storage_mutex_);
  if (!dyn_storage_valid_ || dyn_storage_version_ != state.version()) {
    dyn_storage_ = StorageInputsFor(state.Composition());
    dyn_storage_version_ = state.version();
    dyn_storage_valid_ = true;
  }
  return dyn_storage_;
}

namespace {

/// The shared tail of RunQuery once storage has been snapshotted into a
/// planner + context: plan (PlanForced fast path unless `explain` wants
/// the full candidate table), fill the result's plan fields, execute.
/// Per-thread sampling decision for stage tracing. A plain thread_local
/// round-robin — no atomics, and SearchBatch workers each sample their
/// own every-Nth query independently.
bool SampleTrace(size_t every) {
  if (!obs::kEnabled || every == 0) return false;
  if (every == 1) return true;
  thread_local uint64_t counter = 0;
  return (counter++ % every) == 0;
}

Result<SearchResult> PlanAndRun(const StrategyPlanner& planner,
                                const ExecContext& context,
                                const QueryRequest& request, bool explain,
                                bool trace, PlanDecision* decision_out) {
  // When sampled, activates per-query tracing for this thread: the plan
  // span below and the stage spans the executors open all attach here
  // (spans against no current trace are no-ops). Stage CostCounters are
  // ticker deltas at span boundaries — the per-posting loop never sees
  // the trace. Compiles to nothing under MOA_OBS=OFF.
  std::optional<obs::QueryTrace> qtrace;
  if (trace) qtrace.emplace();

  PlanRequest preq;
  preq.n = request.n;
  preq.quality_target = request.options.quality_target;
  preq.force = request.options.strategy;

  SearchResult out;
  PlanCandidate chosen;
  {
    obs::TraceSpan span(obs::kStagePlan);
    if (!explain && !preq.force.has_value()) {
      // Unforced hot path: same choice as Plan(), no candidate table.
      Result<PlanCandidate> choice = planner.PlanChoice(request.query, preq);
      if (!choice.ok()) return choice.status();
      chosen = std::move(choice).ValueOrDie();
      out.planned = true;
    } else {
      Result<PlanDecision> plan = (preq.force.has_value() && !explain)
                                      ? planner.PlanForced(request.query, preq)
                                      : planner.Plan(request.query, preq);
      if (!plan.ok()) return plan.status();
      PlanDecision decision = std::move(plan).ValueOrDie();
      chosen = decision.chosen;
      out.planned = !decision.forced;
      if (decision_out != nullptr) *decision_out = std::move(decision);
    }
  }

  out.strategy = chosen.strategy;
  out.estimate.strategy = chosen.strategy;
  out.estimate.predicted = chosen.predicted;
  out.estimate.scalar = chosen.scalar;
  out.predicted_quality = chosen.predicted_quality;
  if (explain) return out;

  ExecOptions eopts;
  eopts.switch_threshold = request.options.switch_threshold;
  WallTimer timer;
  Result<TopNResult> top = StrategyRegistry::Global().Execute(
      out.strategy, context, request.query, request.n, eopts);
  if (!top.ok()) return top.status();
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

}  // namespace

Result<SearchResult> MmDatabase::RunQuery(const QueryRequest& request,
                                          bool explain,
                                          PlanDecision* decision_out) const {
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
  // One storage snapshot per query: plan and execution must see the same
  // state. The dynamic/static decision is read once; a query that raced
  // the first mutation onto the static side stays static end-to-end (the
  // generated collection is immutable), instead of planning statically
  // and then executing against the catalog.
  const bool trace = !explain && SampleTrace(config_.trace_every);
  if (!is_dynamic()) {
    // Static serving: neutral in-memory storage signals.
    const StrategyPlanner planner(estimator_.get());
    return FinishQuery(PlanAndRun(planner, static_context(), request, explain,
                                  trace, decision_out),
                       explain);
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
      explain || (options.strategy.has_value()
                      ? NeedsFragmentation(*options.strategy)
                      : options.quality_target < 1.0);
  if (sharded_ != nullptr) {
    // Sharded serving: one consistent multi-shard snapshot, then the
    // bound-aware scatter-gather coordinator (per-shard planning, bound-
    // ordered visits with suffix skipping, threshold-seeded max-score).
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    const std::shared_ptr<const Fragmentation> frag =
        want_frag
            ? DynamicFragmentation(snapshot->stats().df, snapshot->version())
            : nullptr;
    ShardCoordinator::Options copts;
    copts.fragmentation = frag.get();
    return FinishQuery(ShardCoordinator::Run(snapshot, request, explain, trace,
                                             decision_out, copts),
                       explain);
  }

  const std::shared_ptr<const CatalogReadView> view = catalog_view();
  const CatalogState& state = view->state();
  const std::shared_ptr<const Fragmentation> frag =
      want_frag ? DynamicFragmentation(state) : nullptr;
  // Statistics are borrowed straight from the snapshot (pinned by the read
  // view for the query's lifetime) — planning copies nothing.
  const CardinalityEstimator estimator(
      &state.stats().df, static_cast<int64_t>(state.stats().num_live_docs),
      frag.get());
  const StrategyPlanner planner(&estimator, DynamicStorageInputs(state));
  return FinishQuery(PlanAndRun(planner, catalog_context(view, frag), request,
                                explain, trace, decision_out),
                     explain);
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

Result<SearchResult> MmDatabase::FinishQuery(Result<SearchResult> result,
                                             bool explain) const {
  if (!obs::kEnabled || explain || !result.ok()) return result;
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
  // Shard scatter-gather accounting (zero on unsharded queries, so the
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
  return RunQuery(request, /*explain=*/false, nullptr);
}

std::vector<ScoredDoc> MmDatabase::GroundTruth(const Query& query,
                                               size_t n) const {
  if (is_dynamic()) {
    if (sharded_ != nullptr) {
      // Exact per-shard top-N under the global statistics, merged under
      // the global (score desc, doc asc) order — the exact global top-N,
      // since every document lives in exactly one shard.
      const std::shared_ptr<const ShardedSnapshot> snapshot =
          sharded_->Snapshot();
      std::vector<ScoredDoc> all;
      for (size_t s = 0; s < snapshot->num_shards(); ++s) {
        std::vector<ScoredDoc> top =
            ExactTopN(snapshot->shard_source(s), snapshot->shard_model(s),
                      query, n);
        for (ScoredDoc& sd : top) {
          sd.doc = ShardedCatalog::GlobalOf(sd.doc, s,
                                            snapshot->num_shards());
          all.push_back(sd);
        }
      }
      std::sort(all.begin(), all.end(), ScoredDocLess);
      if (all.size() > n) all.resize(n);
      return all;
    }
    const std::shared_ptr<const CatalogReadView> view = catalog_view();
    return ExactTopN(*view, *view->model(), query, n);
  }
  return ExactTopN(file(), *model_, query, n);
}

std::vector<double> MmDatabase::GroundTruthScores(const Query& query) const {
  if (is_dynamic()) {
    if (sharded_ != nullptr) {
      // Dense by *global* id: each shard's local score vector scattered
      // through the interleaved id mapping; unmapped slots stay 0.
      const std::shared_ptr<const ShardedSnapshot> snapshot =
          sharded_->Snapshot();
      std::vector<double> scores(snapshot->doc_space(), 0.0);
      for (size_t s = 0; s < snapshot->num_shards(); ++s) {
        const std::vector<double> local = AccumulateScores(
            snapshot->shard_source(s), snapshot->shard_model(s), query);
        for (size_t l = 0; l < local.size(); ++l) {
          const DocId g = ShardedCatalog::GlobalOf(
              static_cast<DocId>(l), s, snapshot->num_shards());
          if (static_cast<size_t>(g) < scores.size()) scores[g] = local[l];
        }
      }
      return scores;
    }
    const std::shared_ptr<const CatalogReadView> view = catalog_view();
    return AccumulateScores(*view, *view->model(), query);
  }
  return AccumulateScores(file(), *model_, query);
}

std::string MmDatabase::DescribeStorage() const {
  // Payload only — ExplainReport::ToString prepends the "storage: " key.
  if (is_dynamic()) {
    if (sharded_ != nullptr) return sharded_->Snapshot()->Describe();
    return catalog_->Snapshot()->Describe();
  }
  return "in-memory inverted file";
}

bool MmDatabase::TracedExecution(PhysicalStrategy strategy, const Query& query,
                                 size_t n, double switch_threshold,
                                 ExplainReport* report) const {
  // Best effort: re-run the query and report how the storage layer
  // behaved, with per-query tracing active so the report also carries
  // stage spans and observed CostCounters. A strategy that cannot execute
  // here (missing impacts, precondition failures) simply contributes no
  // counters — the explain itself must not fail because of it.
  obs::QueryTrace qtrace;
  const Result<TopNResult> run = Execute(strategy, query, n, switch_threshold);
  obs::QueryTraceData data = qtrace.Finish();
  if (!run.ok()) return false;
  const CostCounters& cost = run.ValueOrDie().stats.cost;
  report->blocks_decoded = cost.blocks_decoded;
  report->blocks_skipped = cost.blocks_skipped;
  report->has_shards = cost.shards_visited != 0 || cost.shards_skipped != 0;
  report->shards_visited = cost.shards_visited;
  report->shards_skipped = cost.shards_skipped;
  report->trace = std::move(data);
  return true;
}

Result<ExplainReport> MmDatabase::ExplainSearch(
    const QueryRequest& request) const {
  ExplainReport report;
  Result<SearchResult> planned =
      RunQuery(request, /*explain=*/true, &report.decision);
  if (!planned.ok()) return planned.status();
  report.storage = DescribeStorage();
  // Fragment strategies run over a fragmentation; show the split the
  // chosen strategy would use.
  if (NeedsFragmentation(report.decision.strategy)) {
    if (!is_dynamic()) {
      report.fragmentation = fragmentation_.ToString();
    } else if (sharded_ != nullptr) {
      const std::shared_ptr<const ShardedSnapshot> snapshot =
          sharded_->Snapshot();
      report.fragmentation =
          DynamicFragmentation(snapshot->stats().df, snapshot->version())
              ->ToString();
    } else {
      report.fragmentation =
          DynamicFragmentation(*catalog_->Snapshot())->ToString();
    }
  }
  report.has_blocks = TracedExecution(report.decision.strategy, request.query,
                                      request.n,
                                      request.options.switch_threshold,
                                      &report);
  if (report.has_blocks && obs::kEnabled) {
    report.has_trace = true;
    report.trace.strategy = StrategyName(report.decision.strategy);
    report.trace.planned = !report.decision.forced;
    report.trace.predicted_scalar = report.decision.chosen.scalar;
    report.trace.predicted_quality = report.decision.chosen.predicted_quality;
  }
  return report;
}

}  // namespace moa
