// Fixed-size worker pool for concurrent batch query execution.
//
// Deliberately simple — one locked queue, no work stealing: batch top-N
// fan-out produces coarse, similar-cost tasks (whole queries), so a shared
// queue is never the bottleneck and the implementation stays auditable
// under TSan. Tasks must not throw; fallible work reports through Status
// captured in the task's own state (the library is exception-free across
// public boundaries, see common/status.h).
//
// Parallelism budget: the engine runs every data-parallel loop — batch
// query fan-out (SearchBatch) and per-query shard fan-out
// (ShardCoordinator) — on the single process-wide `Shared()` pool.
// ParallelFor enlists the *calling* thread as a claimant and joins on
// completed-index count, never on helper exit, so the two levels compose
// on one pool without oversubscription: when all workers are busy with
// batch-level queries, a nested shard-level ParallelFor simply degrades
// toward inline execution on its caller (its queued helpers find no index
// left to claim and no-op). Total live threads stay bounded by the pool
// size plus its callers regardless of nesting depth.
#ifndef MOA_COMMON_THREAD_POOL_H_
#define MOA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace moa {

/// \brief Fixed-size thread pool with a single FIFO task queue.
///
/// Destruction drains the queue: every task submitted before the
/// destructor runs is executed before the workers join.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task; must not be called during/after destruction.
  void Submit(std::function<void()> task);

  /// Runs body(0) .. body(count-1) and blocks until all calls return.
  /// Indexes are claimed dynamically (one atomic increment per call), so
  /// uneven per-index cost still balances.
  ///
  /// The calling thread participates as a claimant alongside at most
  /// `max_helpers` pool workers (so at most `max_helpers + 1` calls run
  /// concurrently), and the join waits for index *completion*, never for
  /// helper exit — safe to call from inside a pool task (nested use
  /// degrades gracefully instead of deadlocking; see the header comment).
  void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                   size_t max_helpers = std::numeric_limits<size_t>::max());

  /// max(1, hardware_concurrency): the default batch parallelism. Read
  /// once per process — hardware_concurrency() can cost microseconds (a
  /// sysfs read on glibc), and per-query callers ask for it.
  static size_t DefaultParallelism();

  /// The process-wide pool (DefaultParallelism() workers, never
  /// destroyed): every engine-internal data-parallel loop shares it so
  /// nested fan-out cannot oversubscribe the machine.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace moa

#endif  // MOA_COMMON_THREAD_POOL_H_
