// MmDatabase::SearchBatch: concurrent fan-out of a query workload.
//
// Each worker runs the ordinary Search path — same planner, same registry
// dispatch — against the shared read-only ExecContext; the only shared
// mutable state is the build-once SparseIndexCache (and the per-snapshot
// planner caches, internally locked). Per-query work accounting stays
// exact because CostTicker frames are thread-local.
#include <algorithm>
#include <optional>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/database.h"
#include "obs/metrics.h"

namespace moa {

Result<BatchSearchResult> MmDatabase::SearchBatch(
    const std::vector<QueryRequest>& requests, size_t parallelism) const {
  BatchSearchResult out;
  out.stats.num_queries = requests.size();
  if (requests.empty()) return out;

  size_t workers =
      parallelism == 0 ? ThreadPool::DefaultParallelism() : parallelism;
  workers = std::min(workers, requests.size());
  out.stats.parallelism = workers;

  // Per-slot results keep request order independent of interleaving; the
  // pool is joined before any slot is read.
  std::vector<std::optional<SearchResult>> slots(requests.size());
  std::vector<Status> statuses(requests.size(), Status::OK());
  auto run_one = [&](size_t i) {
    Result<SearchResult> r = Search(requests[i]);
    if (r.ok()) {
      slots[i] = std::move(r).ValueOrDie();
    } else {
      statuses[i] = r.status();
    }
  };

  // Batch fan-out runs on the process-wide shared pool (no per-call
  // thread spawn/join inside the timed region, and no second pool racing
  // the shard-level ParallelFor for cores — see thread_pool.h for the
  // parallelism budget). The calling thread is one of the `workers`
  // claimants, so `workers - 1` helpers give the requested concurrency.
  WallTimer timer;
  if (workers > 1) {
    ThreadPool::Shared().ParallelFor(requests.size(), run_one,
                                     /*max_helpers=*/workers - 1);
  } else {
    for (size_t i = 0; i < requests.size(); ++i) run_one(i);
  }
  out.stats.wall_millis = timer.ElapsedMillis();

  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  std::vector<double> latencies;
  latencies.reserve(requests.size());
  out.results.reserve(requests.size());
  for (std::optional<SearchResult>& slot : slots) {
    latencies.push_back(slot->wall_millis);
    out.stats.total_cost += slot->top.stats.cost;
    out.results.push_back(std::move(*slot));
  }

  out.stats.qps = static_cast<double>(requests.size()) /
                  (std::max(out.stats.wall_millis, 1e-6) / 1000.0);
  const Histogram latency_hist = Histogram::FromData(latencies, 64);
  out.stats.p50_millis = latency_hist.ValueAtQuantile(0.50);
  out.stats.p95_millis = latency_hist.ValueAtQuantile(0.95);
  out.stats.p99_millis = latency_hist.ValueAtQuantile(0.99);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("moa_batch_total")->Add();
  registry.GetCounter("moa_batch_queries_total")
      ->Add(static_cast<double>(requests.size()));
  registry.GetHistogram("moa_batch_wall_ms")->Observe(out.stats.wall_millis);
  return out;
}

}  // namespace moa
