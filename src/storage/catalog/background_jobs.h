// Background maintenance for an IndexCatalog: flushes and merges run as
// jobs on the shared ThreadPool while foreground writers keep committing.
//
//      AddDocument ──┐ (observer fires after every committed group)
//                    ▼
//          MaybeSchedule ── over trigger? ──▶ ThreadPool::Shared()
//                │ job already in flight: skip                     │
//                ▼                                                 ▼
//          (writer returns)                    RunJob: Flush / size-tiered
//                                              Merge, then re-check triggers
//
// The catalog's two-phase Flush/Merge (file writes unlocked, publish
// re-derived from the then-current state) is what makes this safe: a
// maintenance job and a foreground mutation can never interleave into a
// torn manifest, and readers keep serving immutable snapshots throughout.
//
// Policy. A flush triggers once the memtable holds `flush_trigger_docs`
// documents; a merge triggers once `merge_trigger_segments` segments
// accumulate, compacting the adjacent run of `merge_fanin` segments with
// the smallest total document count (size-tiered: small young segments
// merge often, big old ones rarely). A trigger that fires while a job is
// in flight is not lost: the job re-checks the triggers when it ends.
//
// At most one job runs per BackgroundMaintenance instance; the write
// observer only *schedules* (O(1), no I/O), so commit latency stays flat.
//
// Backpressure pairs with this: IndexCatalog::Options'
// backpressure_memtable_docs bounds how far ingest may outrun maintenance
// — writers block (or soft-fail) over budget and are woken by the
// flush/merge publish.
//
// Shutdown: the destructor detaches the observer, waits for the in-flight
// job, and drops any pending trigger. WaitIdle() drains outstanding work
// for tests and orderly close.
#ifndef MOA_STORAGE_CATALOG_BACKGROUND_JOBS_H_
#define MOA_STORAGE_CATALOG_BACKGROUND_JOBS_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "storage/catalog/index_catalog.h"

namespace moa {

/// \brief When background maintenance fires and how much it compacts.
struct MaintenancePolicy {
  /// Flush once the memtable buffers this many documents.
  size_t flush_trigger_docs = 1024;
  /// Merge once this many segments accumulate.
  size_t merge_trigger_segments = 8;
  /// Segments per merge: the adjacent run of this many segments with the
  /// smallest total document count is compacted (size-tiered).
  size_t merge_fanin = 4;
};

/// \brief Runs Flush/Merge for one catalog on the shared thread pool.
///
/// Attaches itself as the catalog's write observer on construction and
/// detaches on destruction. `on_state_change` (optional) is invoked after
/// every completed job — the ShardedCatalog uses it to invalidate its
/// cached snapshot. Thread-safe; at most one job in flight.
class BackgroundMaintenance {
 public:
  BackgroundMaintenance(IndexCatalog* catalog, MaintenancePolicy policy,
                        std::function<void()> on_state_change = nullptr);
  ~BackgroundMaintenance();

  BackgroundMaintenance(const BackgroundMaintenance&) = delete;
  BackgroundMaintenance& operator=(const BackgroundMaintenance&) = delete;

  /// Blocks until no trigger is pending and no job is in flight — the
  /// "settle" for tests and shutdown.
  /// Foreground writers may of course re-trigger afterwards.
  void WaitIdle();

  /// Last error a background job hit (jobs have no caller to report to);
  /// OK when none. Sticky until read.
  Status TakeLastError();

  const MaintenancePolicy& policy() const { return policy_; }

 private:
  /// Write-observer hook: re-checks triggers and schedules at most one
  /// job.
  void MaybeSchedule();
  /// True when the catalog's current state crosses a trigger.
  bool TriggersFire() const;
  /// The scheduled job: flush and/or size-tiered merge, then re-check.
  void RunJob();

  IndexCatalog* catalog_;
  const MaintenancePolicy policy_;
  std::function<void()> on_state_change_;

  std::mutex mutex_;
  std::condition_variable idle_cv_;
  bool job_in_flight_ = false;
  bool stopping_ = false;
  Status last_error_;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_BACKGROUND_JOBS_H_
