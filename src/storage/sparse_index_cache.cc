#include "storage/sparse_index_cache.h"

#include <mutex>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace moa {
namespace {

// Per-term-per-query events (never per posting): one registry probe plus a
// sharded counter add on the hit path, a wall-clock observation per build.
// Registry handles are process-stable, so they are resolved once — a
// warm-cache probe (the per-query hot case) costs one sharded add, not
// a string-keyed map lookup.
void RecordHit() {
  static obs::Counter* const hits =
      obs::MetricsRegistry::Global().GetCounter("moa_sparse_cache_hits_total");
  hits->Add();
}

void RecordBuild(double build_millis) {
  static obs::Counter* const misses =
      obs::MetricsRegistry::Global().GetCounter(
          "moa_sparse_cache_misses_total");
  static obs::HistogramMetric* const build_ms =
      obs::MetricsRegistry::Global().GetHistogram("moa_sparse_cache_build_ms");
  misses->Add();
  build_ms->Observe(build_millis);
}

}  // namespace

const SparseIndex* SparseIndexCache::Insert(uint64_t key, Entry entry) {
  // Build happened outside the lock so cold-cache builds of different
  // terms run concurrently and readers of warm terms are not stalled; the
  // loser of a rare duplicate build discards its copy at the re-check.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = indexes_.find(key);
  if (it == indexes_.end()) {
    it = indexes_.emplace(key, std::move(entry)).first;
  }
  return &it->second.index;
}

const SparseIndex* SparseIndexCache::GetOrBuild(TermId term,
                                                const PostingList& list,
                                                uint32_t block_size) {
  const uint64_t key = Key(term, block_size);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = indexes_.find(key);
    if (it != indexes_.end()) {
      RecordHit();
      return &it->second.index;
    }
  }
  WallTimer build_timer;
  Entry entry;
  entry.index = SparseIndex(&list, block_size);
  RecordBuild(build_timer.ElapsedMillis());
  return Insert(key, std::move(entry));
}

const SparseIndex* SparseIndexCache::GetOrBuild(TermId term,
                                                const PostingSource& source,
                                                uint32_t block_size) {
  const uint64_t key = Key(term, block_size);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = indexes_.find(key);
    if (it != indexes_.end()) {
      RecordHit();
      return &it->second.index;
    }
  }
  WallTimer build_timer;
  Entry entry;
  entry.owned = std::make_unique<PostingList>();
  for (auto cursor = source.OpenCursor(term); !cursor->at_end();
       cursor->next()) {
    entry.owned->Append(cursor->doc(), cursor->tf());
  }
  entry.owned->Seal();
  entry.index = SparseIndex(entry.owned.get(), block_size);
  RecordBuild(build_timer.ElapsedMillis());
  return Insert(key, std::move(entry));
}

const SparseIndex* SparseIndexCache::Find(TermId term,
                                          uint32_t block_size) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = indexes_.find(Key(term, block_size));
  return it == indexes_.end() ? nullptr : &it->second.index;
}

size_t SparseIndexCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return indexes_.size();
}

void SparseIndexCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  indexes_.clear();
}

}  // namespace moa
