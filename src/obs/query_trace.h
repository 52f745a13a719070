// Per-query stage tracing: RAII spans recording wall time and
// CostCounters deltas for the plan / cursor-open / accumulate /
// heap-merge stages of one query, plus an engine-level ring buffer of
// the last K completed traces for post-hoc inspection.
//
// How a trace flows: the engine constructs a QueryTrace on the stack at
// the top of a query (it installs itself as the thread's current trace),
// layers below open TraceSpan scopes against whatever trace is current —
// a null current trace makes the span a no-op, so executors need no
// plumbing and benches that call executors directly pay nothing. Stage
// deltas are taken from the existing thread-local CostTicker at span
// boundaries: the per-posting loop is never touched, and the counters a
// trace reports are bit-identical to what CostScope would capture (the
// trace only *reads* the ticker, it never ticks).
#ifndef MOA_OBS_QUERY_TRACE_H_
#define MOA_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/timer.h"

namespace moa {
namespace obs {

// Canonical stage names (see CONTRIBUTING.md): spans are free-form, but
// the built-in executors report these four.
inline constexpr char kStagePlan[] = "plan";
inline constexpr char kStageCursorOpen[] = "cursor_open";
inline constexpr char kStageAccumulate[] = "accumulate";
inline constexpr char kStageHeapMerge[] = "heap_merge";
/// Sharded scatter-gather (engine thread only: per-shard executions on
/// pool threads have no installed trace, so their stage spans are no-ops;
/// their work lands in the result's CostCounters instead).
inline constexpr char kStageShardScatter[] = "shard_scatter";
inline constexpr char kStageShardGather[] = "shard_gather";

/// \brief One completed stage of a query.
struct TraceSpanData {
  const char* stage = "";  ///< static string (kStage* for built-ins)
  double wall_millis = 0.0;
  CostCounters cost;  ///< ticker delta across the span
};

/// \brief One completed query trace.
struct QueryTraceData {
  /// Monotone id stamped by the TraceRing at Push (0 before).
  uint64_t sequence = 0;
  /// Chosen strategy's registry name; empty for direct Execute calls.
  std::string strategy;
  bool planned = false;  ///< chosen by the planner (vs forced/direct)
  /// Planner-predicted scalar cost for the executed strategy (0 when the
  /// query bypassed the planner). With `cost.Scalar()` this is the raw
  /// predicted-vs-observed feed for the calibration loop.
  double predicted_scalar = 0.0;
  double predicted_quality = 1.0;
  double wall_millis = 0.0;  ///< whole query span
  CostCounters cost;         ///< whole query ticker delta
  std::vector<TraceSpanData> spans;

  double observed_scalar() const { return cost.Scalar(); }

  /// Multi-line rendering: one header line, one line per stage.
  std::string ToString() const;
};

/// \brief Active per-query recorder; stack-allocated by the engine.
///
/// Installs itself as the thread's current trace on construction and
/// restores the previous one on destruction (traces may nest; spans
/// attach to the innermost). Thread-local throughout — no atomics, no
/// locks, SearchBatch workers each trace their own queries.
class QueryTrace {
 public:
  QueryTrace();
  ~QueryTrace();

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// The innermost active trace of this thread (null outside queries).
  static QueryTrace* Current();

  void AddSpan(const char* stage, double wall_millis,
               const CostCounters& cost);

  /// Closes the query span (wall time + ticker delta since construction)
  /// and moves the record out. Call at most once; the trace stays
  /// installed until destruction but records nothing further.
  QueryTraceData Finish();

 private:
  QueryTrace* prev_;
  WallTimer timer_;
  CostCounters base_;
  QueryTraceData data_;
  bool finished_ = false;
};

/// \brief RAII stage span against the thread's current trace (no-op when
/// no trace is active). Constructed at stage granularity only.
class TraceSpan {
 public:
  explicit TraceSpan(const char* stage)
      : trace_(QueryTrace::Current()), stage_(stage) {
    if (trace_ != nullptr) base_ = CostTicker::Current();
  }
  ~TraceSpan() {
    if (trace_ != nullptr) {
      trace_->AddSpan(stage_, timer_.ElapsedMillis(),
                      CostTicker::Current() - base_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  const char* stage_;
  WallTimer timer_;
  CostCounters base_;
};

/// \brief Fixed-capacity ring of the last K completed traces.
///
/// Mutex-protected (one short move per completed query); Snapshot copies
/// out oldest-first. Engine state, not hot-path.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity) {}

  /// Stamps `trace.sequence` and retires the oldest entry when full.
  void Push(QueryTraceData trace);

  /// The retained traces, oldest first.
  std::vector<QueryTraceData> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<QueryTraceData> ring_;  ///< ring_[next_] is the oldest
  size_t next_ = 0;
  uint64_t sequence_ = 0;
};

}  // namespace obs
}  // namespace moa

#endif  // MOA_OBS_QUERY_TRACE_H_
