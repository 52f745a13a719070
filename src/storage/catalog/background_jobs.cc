#include "storage/catalog/background_jobs.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace moa {
namespace {

struct BgMetrics {
  obs::Counter* flushes;
  obs::Counter* merges;
  static const BgMetrics& Get() {
    static const BgMetrics m = [] {
      auto& r = obs::MetricsRegistry::Global();
      return BgMetrics{r.GetCounter("moa_bg_flush_total"),
                       r.GetCounter("moa_bg_merge_total")};
    }();
    return m;
  }
};

/// Size-tiered pick: the adjacent run of `fanin` segments with the
/// smallest total document count — cheap to compact and usually the
/// young, small tail the flusher keeps producing.
MergePolicy PickMergeRun(const CatalogState& state, size_t fanin) {
  const auto& segments = state.segments();
  if (fanin < 2) fanin = 2;
  if (segments.size() < fanin) fanin = segments.size();
  MergePolicy policy;
  policy.count = fanin;
  uint64_t best = std::numeric_limits<uint64_t>::max();
  uint64_t window = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    window += segments[i]->num_docs();
    if (i + 1 > fanin) window -= segments[i - fanin]->num_docs();
    if (i + 1 >= fanin && window < best) {
      best = window;
      policy.first = i + 1 - fanin;
    }
  }
  return policy;
}

}  // namespace

BackgroundMaintenance::BackgroundMaintenance(
    IndexCatalog* catalog, MaintenancePolicy policy,
    std::function<void()> on_state_change)
    : catalog_(catalog),
      policy_(policy),
      on_state_change_(std::move(on_state_change)) {
  if (obs::kEnabled) BgMetrics::Get();  // register the family eagerly
  catalog_->SetWriteObserver([this] { MaybeSchedule(); });
  // Ingest may have preceded attachment (e.g. a reopened catalog whose
  // replayed memtable is already over the trigger).
  MaybeSchedule();
}

BackgroundMaintenance::~BackgroundMaintenance() {
  // Detach first: after this returns no new observer call can start, so
  // no new job can be scheduled behind our back.
  catalog_->SetWriteObserver(nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  idle_cv_.wait(lock, [this] { return !job_in_flight_; });
}

bool BackgroundMaintenance::TriggersFire() const {
  const std::shared_ptr<const CatalogState> snap = catalog_->Snapshot();
  if (policy_.flush_trigger_docs > 0 &&
      snap->memtable().num_docs() >= policy_.flush_trigger_docs) {
    return true;
  }
  if (policy_.merge_trigger_segments > 0 &&
      snap->segments().size() >= policy_.merge_trigger_segments) {
    return true;
  }
  return false;
}

void BackgroundMaintenance::MaybeSchedule() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || job_in_flight_) return;
  if (!TriggersFire()) return;
  job_in_flight_ = true;
  ThreadPool::Shared().Submit([this] { RunJob(); });
}

void BackgroundMaintenance::RunJob() {
  Status error;

  std::shared_ptr<const CatalogState> snap = catalog_->Snapshot();
  if (policy_.flush_trigger_docs > 0 &&
      snap->memtable().num_docs() >= policy_.flush_trigger_docs) {
    const Status s = catalog_->Flush();
    if (s.ok()) {
      if (obs::kEnabled) BgMetrics::Get().flushes->Add();
    } else {
      error = s;
      MOA_LOG(Error) << "background flush failed: " << s.ToString();
    }
  }

  snap = catalog_->Snapshot();
  if (error.ok() && policy_.merge_trigger_segments > 0 &&
      snap->segments().size() >= policy_.merge_trigger_segments) {
    const Status s =
        catalog_->Merge(PickMergeRun(*snap, policy_.merge_fanin)).status();
    if (s.ok()) {
      if (obs::kEnabled) BgMetrics::Get().merges->Add();
    } else {
      error = s;
      MOA_LOG(Error) << "background merge failed: " << s.ToString();
    }
  }

  if (on_state_change_) on_state_change_();

  // Tail protocol: the destructor may return (and the object die) the
  // instant `job_in_flight_` is observed false, so everything after the
  // job — error recording, the ingest-outran-us re-check, the idle
  // notify — must happen under this one lock hold, and rescheduling
  // keeps the slot (resubmit with `job_in_flight_` still true) rather
  // than dropping and re-taking it. No member access follows the
  // unlock.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error.ok()) last_error_ = error;
  // Re-check triggers: ingest may have outrun this job. Never after an
  // error — retrying a failing disk in a tight loop starves the pool,
  // and the next successful write re-triggers anyway.
  if (!stopping_ && error.ok() && TriggersFire()) {
    ThreadPool::Shared().Submit([this] { RunJob(); });
    return;  // slot stays claimed; the destructor keeps waiting
  }
  job_in_flight_ = false;
  idle_cv_.notify_all();
}

void BackgroundMaintenance::WaitIdle() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      idle_cv_.wait(lock, [this] { return !job_in_flight_; });
      if (stopping_) return;
      if (!TriggersFire()) return;
      if (!last_error_.ok()) return;  // a broken disk would never settle
    }
    MaybeSchedule();
    // If the trigger fired but scheduling lost a race with a concurrent
    // writer's observer, loop: the wait above re-blocks until idle.
  }
}

Status BackgroundMaintenance::TakeLastError() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status s = std::move(last_error_);
  last_error_ = Status::OK();
  return s;
}

}  // namespace moa
