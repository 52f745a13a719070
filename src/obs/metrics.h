// Process-wide metrics registry: named counters, gauges and
// histogram-backed timers with cheap single-label support.
//
// Design constraints, in order:
//  1. The block-decode hot path must never see this layer. Nothing here
//     is called per posting; engine and storage code records metrics at
//     query/stage/operation granularity only. The layer is always
//     compiled in: what tracing costs is measured in one binary, by
//     DatabaseConfig::trace_every.
//  2. SearchBatch workers must not contend: Counter::Add is a relaxed
//     atomic add into one of kShards cache-line-padded cells picked by a
//     thread-local shard index; cells are merged on read. Value() is
//     O(kShards) — fine for a scrape, never on a query path.
//  3. Render output is deterministic: metrics are kept in ordered maps
//     keyed by (name, label), so two Renders of the same registry state
//     produce byte-identical text, and the exposition is diffable across
//     runs (docs/metrics.txt pins the name inventory in CI).
//
// Naming convention (enforced by the docs/metrics.txt CI diff, spelled
// out in CONTRIBUTING.md): `moa_<layer>_<what>` plus a `_total` suffix
// for counters and a unit suffix (`_ms`, `_bytes`) for everything
// measured. Labels are a single pre-rendered `key=value` pair ("cheap
// label support"): one dimension is enough for per-strategy breakdowns,
// and it keeps the handle lookup a single map probe.
#ifndef MOA_OBS_METRICS_H_
#define MOA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace moa {
namespace obs {

/// Kept only because the benchmark harness (perfbench/moabench.cc) names it.
inline constexpr bool kEnabled = true;

enum class MetricsFormat {
  kPrometheus,  ///< text exposition: `name{label} value` + # TYPE lines
  kJson,        ///< one object: {"counters":[...],"gauges":...,"histograms":...}
};

/// \brief Monotonically increasing sum (doubles: planner scalar costs
/// feed counters too; integer increments stay exact below 2^53).
///
/// Sharded per-thread: Add lands in a cache-line-padded cell chosen by a
/// thread-local index, so concurrent SearchBatch workers never bounce a
/// line. Merged on read.
class Counter {
 public:
  void Add(double delta = 1.0);
  /// Merged sum across all cells. O(kShards); scrape-path only.
  double Value() const;

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  static constexpr size_t kShards = 16;  // power of two: index is a mask

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset();

  struct alignas(64) Cell {
    std::atomic<double> value{0.0};
  };
  Cell cells_[kShards];
};

/// \brief Last-written value (tombstone density, segment count, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// \brief Latency/size distribution: count, sum, min/max plus quantiles
/// estimated through the library's equi-width `Histogram` (the same
/// estimator SearchBatch already uses for its p50/p95/p99).
///
/// Samples are retained up to a fixed cap (first-N; count/sum/min/max
/// keep exact totals beyond it) so a long-lived process stays bounded;
/// quantiles are then estimates over the retained prefix. Populated
/// lazily — an empty histogram renders with count 0 and quantiles equal
/// to Histogram's defined empty behavior (its min), never dividing by
/// zero. Mutex-protected: observations are per-query/per-flush events,
/// not hot-path ticks.
class HistogramMetric {
 public:
  void Observe(double value);

  int64_t Count() const;
  double Sum() const;
  double Min() const;  ///< 0 when empty
  double Max() const;  ///< 0 when empty
  /// q-quantile estimate over the retained samples (0 when empty).
  double Quantile(double q) const;

  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

 private:
  friend class MetricsRegistry;
  HistogramMetric() = default;
  void Reset();

  static constexpr size_t kMaxSamples = 8192;
  static constexpr int kBuckets = 64;

  mutable std::shared_mutex mutex_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
};

/// \brief The process-wide registry behind MetricsRegistry::Global().
///
/// Handles returned by Get* stay valid for the process lifetime (metrics
/// are never erased; ResetForTest zeroes values but keeps the objects),
/// so call sites may cache them in function-local statics. Lookups take
/// a shared lock — one map probe per query-granularity event.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// The counter/gauge/histogram registered under (name, label),
  /// creating it on first use. `label` is one pre-rendered `key=value`
  /// pair (empty = unlabeled). A name must keep one metric kind.
  Counter* GetCounter(std::string_view name, std::string_view label = "");
  Gauge* GetGauge(std::string_view name, std::string_view label = "");
  HistogramMetric* GetHistogram(std::string_view name,
                                std::string_view label = "");

  /// Deterministic text rendering of every registered metric: metrics
  /// sorted by (name, label); histograms expose count/sum/min/max and
  /// p50/p95/p99 (Prometheus summary-style).
  std::string Render(MetricsFormat format) const;

  /// Sorted, de-duplicated metric family names — the CI inventory that
  /// docs/metrics.txt pins.
  std::vector<std::string> MetricNames() const;

  /// Zeroes every value but keeps the registered objects alive (cached
  /// handles stay valid). Tests only; must not race concurrent writers.
  void ResetForTest();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  using Key = std::pair<std::string, std::string>;  // (name, label)

  template <typename T>
  T* GetOrCreate(std::map<Key, std::unique_ptr<T>>* map,
                 std::string_view name, std::string_view label);

  mutable std::shared_mutex mutex_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace obs
}  // namespace moa

#endif  // MOA_OBS_METRICS_H_
