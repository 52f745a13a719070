#include "obs/query_trace.h"

#include <cstdio>
#include <utility>

namespace moa {
namespace obs {

std::string QueryTraceData::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trace #%llu strategy=%s %s wall=%.3fms observed=%.1f "
                "predicted=%.1f\n",
                static_cast<unsigned long long>(sequence),
                strategy.empty() ? "(direct)" : strategy.c_str(),
                planned ? "planned" : "forced", wall_millis,
                observed_scalar(), predicted_scalar);
  out += buf;
  for (const TraceSpanData& span : spans) {
    std::snprintf(buf, sizeof(buf),
                  "  %-12s %8.3fms scalar=%.1f seq=%lld rand=%lld score=%lld "
                  "cmp=%lld blk=%lld/%lld\n",
                  span.stage, span.wall_millis, span.cost.Scalar(),
                  static_cast<long long>(span.cost.sequential_reads),
                  static_cast<long long>(span.cost.random_reads),
                  static_cast<long long>(span.cost.score_evals),
                  static_cast<long long>(span.cost.compares),
                  static_cast<long long>(span.cost.blocks_decoded),
                  static_cast<long long>(span.cost.blocks_skipped));
    out += buf;
  }
  return out;
}

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

QueryTrace::QueryTrace()
    : prev_(g_current_trace), base_(CostTicker::Current()) {
  // One exact allocation up front instead of three growth steps while
  // the four built-in stage spans trickle in.
  data_.spans.reserve(8);
  g_current_trace = this;
}

QueryTrace::~QueryTrace() { g_current_trace = prev_; }

QueryTrace* QueryTrace::Current() { return g_current_trace; }

void QueryTrace::AddSpan(const char* stage, double wall_millis,
                         const CostCounters& cost) {
  if (finished_) return;
  TraceSpanData span;
  span.stage = stage;
  span.wall_millis = wall_millis;
  span.cost = cost;
  data_.spans.push_back(span);
}

QueryTraceData QueryTrace::Finish() {
  if (!finished_) {
    finished_ = true;
    data_.wall_millis = timer_.ElapsedMillis();
    data_.cost = CostTicker::Current() - base_;
  }
  return std::move(data_);
}

void TraceRing::Push(QueryTraceData trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace.sequence = ++sequence_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else if (capacity_ > 0) {
    ring_[next_] = std::move(trace);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<QueryTraceData> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QueryTraceData> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

size_t TraceRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

}  // namespace obs
}  // namespace moa
