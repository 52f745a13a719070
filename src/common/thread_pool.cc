#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace moa {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body,
                             size_t max_helpers) {
  if (count == 0) return;
  if (count == 1) {
    body(0);
    return;
  }
  // Shared claim/completion state. The state (body included) lives in a
  // shared_ptr because helper tasks may still be sitting in the queue
  // when ParallelFor returns: the join below waits for every *index* to
  // complete, not for every helper to run, so a late helper must find
  // valid state, observe next >= count, and no-op.
  struct State {
    std::function<void(size_t)> body;
    size_t count;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::mutex mutex;
    std::condition_variable done;
  };
  auto state = std::make_shared<State>();
  state->body = body;
  state->count = count;

  const auto run = [](State& s) {
    size_t i;
    while ((i = s.next.fetch_add(1)) < s.count) {
      s.body(i);
      if (s.completed.fetch_add(1) + 1 == s.count) {
        // Lock pairs with the waiter's predicate check: without it the
        // notify could fire between the caller's predicate evaluation
        // and its wait, and the wake would be lost.
        std::lock_guard<std::mutex> lock(s.mutex);
        s.done.notify_all();
      }
    }
  };

  // The caller claims indexes too, so at most count-1 helpers are ever
  // useful — and if none of them is scheduled (every worker busy with an
  // outer-level ParallelFor), the caller alone still finishes the loop.
  const size_t helpers =
      std::min({workers_.size(), count - 1, max_helpers});
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state, run] { run(*state); });
  }
  run(*state);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(
      lock, [&] { return state->completed.load() == state->count; });
}

size_t ThreadPool::DefaultParallelism() {
  static const size_t parallelism =
      std::max(1u, std::thread::hardware_concurrency());
  return parallelism;
}

ThreadPool& ThreadPool::Shared() {
  // Leaked deliberately: worker threads must outlive every static-storage
  // engine object that might run a batch during shutdown, and joining
  // threads from a static destructor is itself undefined-behavior bait.
  static ThreadPool* pool = new ThreadPool(DefaultParallelism());
  return *pool;
}

}  // namespace moa
