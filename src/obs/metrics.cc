#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "common/histogram.h"

namespace moa {
namespace obs {
namespace {

/// Stable per-thread shard index: threads are striped round-robin over
/// the cells, so a fixed worker pool spreads evenly and two workers
/// never share a line by construction (up to kShards workers).
size_t ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index & (Counter::kShards - 1);
}

/// Relaxed atomic double add. GCC/Clang compile the C++20
/// fetch_add(double) through a CAS loop anyway; writing the loop out
/// keeps the code portable to standard libraries that lack the
/// floating-point overloads.
void AtomicAdd(std::atomic<double>& cell, double delta) {
  double current = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// Shortest round-trip double formatting (%.17g is bit-faithful but
/// noisy; %g keeps integral counters rendering as integers).
std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the short form when it round-trips losslessly.
  char short_buf[64];
  std::snprintf(short_buf, sizeof(short_buf), "%g", value);
  double reparsed = 0.0;
  if (std::sscanf(short_buf, "%lf", &reparsed) == 1 && reparsed == value) {
    return short_buf;
  }
  return buf;
}

/// `strategy=maxscore` -> `strategy="maxscore"` (exposition braces are
/// added by the caller). Empty label -> empty string.
std::string PrometheusLabel(const std::string& label) {
  const size_t eq = label.find('=');
  if (eq == std::string::npos) return label;
  return label.substr(0, eq) + "=\"" + label.substr(eq + 1) + "\"";
}

struct HistogramSnapshot {
  int64_t count;
  double sum, min, max, p50, p95, p99;
};

HistogramSnapshot Snapshot(const HistogramMetric& h) {
  return HistogramSnapshot{h.Count(), h.Sum(),           h.Min(),
                           h.Max(),   h.Quantile(0.50),  h.Quantile(0.95),
                           h.Quantile(0.99)};
}

}  // namespace

// ----------------------------------------------------------------- Counter

void Counter::Add(double delta) { AtomicAdd(cells_[ShardIndex()].value, delta); }

double Counter::Value() const {
  double total = 0.0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) {
    cell.value.store(0.0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------- HistogramMetric

void HistogramMetric::Observe(double value) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
  if (samples_.size() < kMaxSamples) samples_.push_back(value);
}

int64_t HistogramMetric::Count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return count_;
}

double HistogramMetric::Sum() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return sum_;
}

double HistogramMetric::Min() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return min_;
}

double HistogramMetric::Max() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return max_;
}

double HistogramMetric::Quantile(double q) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  // Empty histograms are well-defined by the underlying estimator
  // (ValueAtQuantile of an empty Histogram returns its min) — the lazy
  // population contract the engine's latency metrics rely on.
  const Histogram h = Histogram::FromData(samples_, kBuckets);
  return h.ValueAtQuantile(q);
}

void HistogramMetric::Reset() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  samples_.clear();
}

// --------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metrics outlive every static destructor that might
  // still record during teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(std::map<Key, std::unique_ptr<T>>* map,
                                std::string_view name,
                                std::string_view label) {
  const Key key{std::string(name), std::string(label)};
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = map->find(key);
    if (it != map->end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = map->find(key);
  if (it == map->end()) {
    it = map->emplace(key, std::unique_ptr<T>(new T())).first;
  }
  return it->second.get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view label) {
  return GetOrCreate(&counters_, name, label);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view label) {
  return GetOrCreate(&gauges_, name, label);
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name,
                                               std::string_view label) {
  return GetOrCreate(&histograms_, name, label);
}

std::string MetricsRegistry::Render(MetricsFormat format) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::ostringstream os;
  if (format == MetricsFormat::kPrometheus) {
    std::string last_typed;
    auto type_line = [&](const std::string& name, const char* type) {
      if (name != last_typed) {
        os << "# TYPE " << name << " " << type << "\n";
        last_typed = name;
      }
    };
    for (const auto& [key, counter] : counters_) {
      type_line(key.first, "counter");
      os << key.first;
      if (!key.second.empty()) os << "{" << PrometheusLabel(key.second) << "}";
      os << " " << FormatValue(counter->Value()) << "\n";
    }
    for (const auto& [key, gauge] : gauges_) {
      type_line(key.first, "gauge");
      os << key.first;
      if (!key.second.empty()) os << "{" << PrometheusLabel(key.second) << "}";
      os << " " << FormatValue(gauge->Value()) << "\n";
    }
    for (const auto& [key, histogram] : histograms_) {
      type_line(key.first, "summary");
      const HistogramSnapshot snap = Snapshot(*histogram);
      const std::string label = PrometheusLabel(key.second);
      auto quantile_line = [&](const char* q, double value) {
        os << key.first << "{" << label << (label.empty() ? "" : ",")
           << "quantile=\"" << q << "\"} " << FormatValue(value) << "\n";
      };
      quantile_line("0.5", snap.p50);
      quantile_line("0.95", snap.p95);
      quantile_line("0.99", snap.p99);
      const std::string suffix_label =
          key.second.empty() ? "" : "{" + label + "}";
      os << key.first << "_sum" << suffix_label << " "
         << FormatValue(snap.sum) << "\n";
      os << key.first << "_count" << suffix_label << " " << snap.count
         << "\n";
    }
    return os.str();
  }

  // JSON: one object, arrays sorted like the maps (deterministic).
  os << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    os << (first ? "" : ",") << "{\"name\":\"" << key.first
       << "\",\"label\":\"" << key.second
       << "\",\"value\":" << FormatValue(counter->Value()) << "}";
    first = false;
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    os << (first ? "" : ",") << "{\"name\":\"" << key.first
       << "\",\"label\":\"" << key.second
       << "\",\"value\":" << FormatValue(gauge->Value()) << "}";
    first = false;
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    const HistogramSnapshot snap = Snapshot(*histogram);
    os << (first ? "" : ",") << "{\"name\":\"" << key.first
       << "\",\"label\":\"" << key.second << "\",\"count\":" << snap.count
       << ",\"sum\":" << FormatValue(snap.sum)
       << ",\"min\":" << FormatValue(snap.min)
       << ",\"max\":" << FormatValue(snap.max)
       << ",\"p50\":" << FormatValue(snap.p50)
       << ",\"p95\":" << FormatValue(snap.p95)
       << ",\"p99\":" << FormatValue(snap.p99) << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [key, value] : counters_) names.push_back(key.first);
  for (const auto& [key, value] : gauges_) names.push_back(key.first);
  for (const auto& [key, value] : histograms_) names.push_back(key.first);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void MetricsRegistry::ResetForTest() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (auto& [key, counter] : counters_) counter->Reset();
  for (auto& [key, gauge] : gauges_) gauge->Set(0.0);
  for (auto& [key, histogram] : histograms_) histogram->Reset();
}

}  // namespace obs
}  // namespace moa
