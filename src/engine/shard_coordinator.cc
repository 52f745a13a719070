#include "engine/shard_coordinator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cost_ticker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exec/registry.h"
#include "obs/query_trace.h"
#include "optimizer/cardinality.h"
#include "topn/maxscore.h"

namespace moa {

namespace {

/// One shard in visit order: its index and aggregate query upper bound.
struct ShardOrder {
  size_t shard = 0;
  double bound = 0.0;
};

/// Shards by descending query bound; stable sort keeps equal-bound shards
/// in ascending index order, making the visit order fully deterministic.
/// A bound the snapshot has not cached yet emits the first posting of the
/// term's impact order (ShardedSnapshot::ShardTermBound), and a segment's
/// first use of the term builds its layers; `*bound_cost` receives the
/// postings scored and layered for that, which the caller books to the
/// query (BookBoundCost).
std::vector<ShardOrder> BoundOrder(const ShardedSnapshot& snapshot,
                                   const Query& query,
                                   CostCounters* bound_cost) {
  const CostScope scope;
  std::vector<ShardOrder> order(snapshot.num_shards());
  for (size_t s = 0; s < order.size(); ++s) {
    order[s] = ShardOrder{s, snapshot.ShardQueryBound(s, query)};
  }
  *bound_cost = scope.Snapshot();
  std::stable_sort(order.begin(), order.end(),
                   [](const ShardOrder& a, const ShardOrder& b) {
                     return a.bound > b.bound;
                   });
  return order;
}

/// Books the impact-order work BoundOrder did to the query's counters.
void BookBoundCost(const CostCounters& bound_cost, CostCounters* cost) {
  cost->impact_postings += bound_cost.impact_postings;
  cost->layer_postings += bound_cost.layer_postings;
}

size_t EffectiveParallelism(size_t requested, size_t num_shards) {
  const size_t p =
      requested == 0 ? std::min(num_shards, ThreadPool::DefaultParallelism())
                     : requested;
  return std::max<size_t>(1, std::min(p, num_shards));
}

/// The shard's live posting volume for the query's terms — what a skipped
/// shard would have streamed; the shard_postings_skipped currency.
int64_t LocalQueryPostings(const CatalogState& state, const Query& query) {
  const std::vector<uint32_t>& df = state.stats().df;
  int64_t total = 0;
  for (TermId t : query.terms) {
    if (static_cast<size_t>(t) < df.size()) total += df[t];
  }
  return total;
}

/// Overlays the running global n-th score onto a max-score-family
/// execution as MaxScoreOptions::initial_threshold (the distributed
/// max-score seed). Strategies of any other option family run `base`
/// unchanged — the seed is a pruning hint, not a semantic change, and
/// only the max-score family consumes it. Strict engagement is forced
/// with the seed (required by the initial_threshold contract).
ExecOptions SeededOptions(const ExecOptions& base, PhysicalStrategy strategy,
                          double seed) {
  if (seed <= 0.0) return base;
  const StrategyRegistry::Entry* entry =
      StrategyRegistry::Global().Find(strategy);
  if (entry == nullptr ||
      entry->accepts_options != ExecOptionsIndexOf<MaxScoreOptions>()) {
    return base;
  }
  ExecOptions seeded = base;
  MaxScoreOptions ms;
  if (const MaxScoreOptions* existing = base.GetIf<MaxScoreOptions>()) {
    ms = *existing;
  }
  ms.initial_threshold = std::max(ms.initial_threshold, seed);
  ms.strict = true;
  seeded.strategy_options = ms;
  return seeded;
}

/// The gather core shared by the planned and forced paths: visits shards
/// in `order` in waves of `parallelism`, skipping every remaining shard
/// whose bound is strictly below the merged n-th score, and merges the
/// per-shard top-N heaps under the global (score desc, doc asc) order.
///
/// Cost accounting: an outer CostScope on the calling thread captures the
/// gather-side work (merge compares, skip bookkeeping) plus every shard
/// execution that ran inline on this thread; executions that ran on pool
/// helpers tick their own thread-local frames, so their registry-reported
/// per-execution costs are added explicitly. The sum is exactly the work
/// done on the query's behalf, with nothing double-counted.
Result<TopNResult> ScatterGatherExec(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    const std::vector<ShardOrder>& order,
    const std::vector<PhysicalStrategy>& strategy_by_shard, const Query& query,
    size_t n, const ExecOptions& base_options, const Fragmentation* frag,
    size_t parallelism, bool bound_pruning) {
  const size_t num_shards = snapshot->num_shards();
  const std::thread::id caller_tid = std::this_thread::get_id();

  CostScope outer;
  TopNResult merged;
  CostCounters helper_cost;
  bool skipped_any = false;

  size_t next = 0;
  while (next < order.size() && n > 0) {
    // Bound-based suffix skip: shards are in descending bound order, so
    // the first shard that cannot beat the current n-th score proves the
    // same for every shard after it. Equality still visits — a tying
    // document with a lower global id would win the (score desc, doc asc)
    // tie-break.
    const double kth =
        merged.items.size() >= n ? merged.items.back().score : 0.0;
    if (bound_pruning && merged.items.size() >= n && order[next].bound < kth) {
      for (size_t i = next; i < order.size(); ++i) {
        CostTicker::TickShardSkipped();
        CostTicker::TickShardPostingsSkipped(LocalQueryPostings(
            snapshot->shard_state(order[i].shard), query));
      }
      skipped_any = true;
      break;
    }

    const size_t wave = std::min(parallelism, order.size() - next);
    const double seed =
        bound_pruning && merged.items.size() >= n ? kth : 0.0;

    std::vector<std::optional<Result<TopNResult>>> results(wave);
    std::vector<std::thread::id> ran_on(wave);
    const auto body = [&](size_t i) {
      const size_t s = order[next + i].shard;
      ran_on[i] = std::this_thread::get_id();
      ExecContext context;
      context.model = &snapshot->shard_model(s);
      context.postings = &snapshot->shard_source(s);
      context.fragmentation = frag;
      context.sparse_cache = &snapshot->shard_sparse_cache(s);
      context.postings_owner = snapshot;
      results[i] = StrategyRegistry::Global().Execute(
          strategy_by_shard[s], context, query, n,
          SeededOptions(base_options, strategy_by_shard[s], seed));
    };
    if (wave == 1) {
      body(0);
    } else {
      ThreadPool::Shared().ParallelFor(wave, body, wave - 1);
    }

    obs::TraceSpan span(obs::kStageShardGather);
    // Each shard's top-N is already in (score desc, doc asc) order and
    // GlobalOf is increasing within a shard, so a list merged into an
    // empty running top-N needs no sort.
    bool sorted = true;
    for (size_t i = 0; i < wave; ++i) {
      const size_t s = order[next + i].shard;
      Result<TopNResult>& r = *results[i];
      if (!r.ok()) return r.status();
      TopNResult shard_top = std::move(r).ValueOrDie();
      if (!merged.items.empty() && !shard_top.items.empty()) sorted = false;
      CostTicker::TickShardVisited();
      if (ran_on[i] != caller_tid) helper_cost += shard_top.stats.cost;
      merged.stats.sorted_accesses += shard_top.stats.sorted_accesses;
      merged.stats.random_accesses += shard_top.stats.random_accesses;
      merged.stats.candidates += shard_top.stats.candidates;
      merged.stats.stopped_early |= shard_top.stats.stopped_early;
      merged.stats.restarts += shard_top.stats.restarts;
      merged.stats.used_large_fragment |= shard_top.stats.used_large_fragment;
      for (ScoredDoc& sd : shard_top.items) {
        sd.doc = ShardedCatalog::GlobalOf(sd.doc, s, num_shards);
        merged.items.push_back(sd);
      }
    }
    if (!sorted) {
      std::sort(merged.items.begin(), merged.items.end(),
                [](const ScoredDoc& a, const ScoredDoc& b) {
                  CostTicker::TickCompare();
                  return ScoredDocLess(a, b);
                });
    }
    if (merged.items.size() > n) merged.items.resize(n);
    next += wave;
  }

  merged.stats.stopped_early |= skipped_any;
  merged.stats.cost = outer.Snapshot() + helper_cost;
  return merged;
}

}  // namespace

Result<SearchResult> ShardCoordinator::Run(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    const QueryRequest& request, bool explain, bool trace,
    PlanDecision* decision_out, const Options& options) {
  // When sampled, a QueryTrace is installed for this thread — the plan,
  // scatter and gather spans and any inline shard execution's stage spans
  // attach here; executions on pool helpers have no installed trace and
  // report through their result's CostCounters instead.
  std::optional<obs::QueryTrace> qtrace;
  if (trace || explain) qtrace.emplace();

  const size_t num_shards = snapshot->num_shards();

  PlanRequest preq;
  preq.n = request.n;
  preq.quality_target = request.options.quality_target;
  preq.force = request.options.strategy;
  if (num_shards > 1) {
    // NRA reports drain-order lower-bound scores, not full sums; merging
    // such scores across shards would compare lower bounds from one shard
    // against exact scores from another, so cost-based choice never picks
    // it under sharding. Forcing it remains allowed (set-level contract).
    preq.exclude.push_back(PhysicalStrategy::kFaginNRA);
  }

  std::vector<ShardOrder> order;
  CostCounters bound_cost;
  {
    obs::TraceSpan span(obs::kStageShardScatter);
    order = BoundOrder(*snapshot, request.query, &bound_cost);
  }

  // Per-shard planning: each shard is costed from its own local df and
  // storage signals, so a memtable-heavy shard can legitimately pick a
  // different strategy than a merged one. The highest-bound shard is
  // planned first and supplies the result's headline strategy (and the
  // full decision table when explaining); the estimate sums every shard's
  // prediction and the predicted quality is the worst across shards.
  SearchResult out;
  out.planned = !preq.force.has_value();
  std::vector<PhysicalStrategy> strategies(num_shards, PhysicalStrategy::kHeap);
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t s = order[i].shard;
    const CatalogState& state = snapshot->shard_state(s);
    const CardinalityEstimator estimator(
        &state.stats().df, static_cast<int64_t>(state.stats().num_live_docs),
        options.fragmentation);
    const StrategyPlanner planner(
        &estimator, StorageInputsFor(snapshot->shard_composition(s)));
    Result<PlanCandidate> choice = planner.Decide(
        request.query, preq, i == 0 && explain ? decision_out : nullptr);
    if (!choice.ok()) return choice.status();
    const PlanCandidate& chosen = choice.ValueOrDie();
    strategies[s] = chosen.strategy;
    if (i == 0) {
      out.strategy = chosen.strategy;
      out.estimate.strategy = chosen.strategy;
    }
    out.estimate.predicted += chosen.predicted;
    out.estimate.scalar += chosen.scalar;
    out.predicted_quality =
        std::min(out.predicted_quality, chosen.predicted_quality);
  }
  ExecOptions eopts;
  eopts.switch_threshold = request.options.switch_threshold;
  WallTimer timer;
  Result<TopNResult> top = ScatterGatherExec(
      snapshot, order, strategies, request.query, request.n, eopts,
      options.fragmentation,
      EffectiveParallelism(options.parallelism, num_shards),
      options.bound_pruning);
  if (!top.ok()) {
    if (explain) return out;
    return top.status();
  }
  out.wall_millis = timer.ElapsedMillis();
  out.top = std::move(top).ValueOrDie();
  BookBoundCost(bound_cost, &out.top.stats.cost);

  if (qtrace.has_value()) {
    out.trace = qtrace->Finish();
    out.trace.strategy = StrategyName(out.strategy);
    out.trace.planned = out.planned;
    out.trace.predicted_scalar = out.estimate.scalar;
    out.trace.predicted_quality = out.predicted_quality;
    out.traced = true;
  }
  return out;
}

Result<TopNResult> ShardCoordinator::Execute(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    PhysicalStrategy strategy, const Query& query, size_t n,
    const ExecOptions& exec_options, const Options& options) {
  const size_t num_shards = snapshot->num_shards();
  std::vector<ShardOrder> order;
  CostCounters bound_cost;
  {
    obs::TraceSpan span(obs::kStageShardScatter);
    order = BoundOrder(*snapshot, query, &bound_cost);
  }
  const std::vector<PhysicalStrategy> strategies(num_shards, strategy);
  Result<TopNResult> top = ScatterGatherExec(
      snapshot, order, strategies, query, n, exec_options,
      options.fragmentation,
      EffectiveParallelism(options.parallelism, num_shards),
      options.bound_pruning);
  if (top.ok()) BookBoundCost(bound_cost, &top.ValueOrDie().stats.cost);
  return top;
}

}  // namespace moa
