// ShardedCatalog: the document space partitioned across N independent
// IndexCatalog shards, plus the consistent multi-shard snapshot queries
// run against. It is the engine's only dynamic catalog: MmDatabase serves
// every shard count, one included, through it and the ShardCoordinator.
//
// Partitioning. Each shard is a complete IndexCatalog (memtable, segments,
// manifest) over its own dense *local* id space; the global id of local
// document l in shard s is  g = l * N + s  (so s = g % N, l = g / N —
// interleaved, which keeps both directions O(1) and shard-stable across
// per-shard merges: a merge compacts a shard's local ids, and the mapped
// global ids stay disjoint from every other shard's). New documents are
// routed to the least-loaded shard (smallest doc space, ties to the lowest
// shard index), which from an empty catalog degenerates to round-robin —
// a batch seeded into a pristine sharded catalog gets the *identity* ids
// 0..k-1, exactly like a single catalog. With N = 1 every id maps to
// itself and the one shard is a plain IndexCatalog in the root directory
// (ShardDir), so IndexCatalog::Open reads a one-shard catalog directly.
//
// Snapshots. Snapshot() returns one ShardedSnapshot
// (storage/catalog/sharded_snapshot.h): a consistent vector of per-shard
// CatalogStates scored under the global live statistics aggregated across
// shards, with the snapshot's per-(shard, term) impact orders and bounds.
//
// Thread-safety. Two locks. The mutation lock serializes mutations, so a
// routing decision and its commits are atomic. The snapshot lock guards
// the cached snapshot, which is rebuilt on first use after any commit. A
// mutation that commits to one shard — an add, a delete, a same-shard
// update, and every flush and merge, which change no content — holds only
// the mutation lock, so Snapshot() never waits for it, exactly like
// IndexCatalog. A mutation that commits to two or more shards — a
// cross-shard update, a batch spread over shards — also holds the
// snapshot lock across its commits, so no snapshot shows it half applied;
// readers wait for that write only. With one shard, readers never wait
// for a writer. A generation counter marks the cache stale without taking
// a lock, so a background job's invalidation hook never waits for a
// multi-shard writer that may itself be waiting, through backpressure,
// for that job's pool thread.
#ifndef MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_
#define MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog/index_catalog.h"
#include "storage/catalog/sharded_snapshot.h"

namespace moa {

/// \brief N independent IndexCatalog shards behind one global id space.
class ShardedCatalog {
 public:
  struct Options {
    /// Number of shards (>= 1). Fixed at creation; Open must be called
    /// with the same count the catalog was created with.
    size_t num_shards = 1;
    /// Per-shard catalog options. `shard.dir` is the *root* directory;
    /// ShardDir() names where each shard lives. Empty = memory-only shards.
    IndexCatalog::Options shard;
  };

  /// Fresh empty sharded catalog (creates every ShardDir).
  static Result<std::unique_ptr<ShardedCatalog>> Create(const Options& options);
  /// Recovers every shard from the MANIFEST in its ShardDir.
  static Result<std::unique_ptr<ShardedCatalog>> Open(const Options& options);
  /// True when `options.shard.dir` already holds a catalog of this layout
  /// (shard 0's MANIFEST) — Open it rather than Create.
  static bool Exists(const Options& options);
  /// Directory of shard `s`: the root itself for a one-shard catalog (the
  /// layout of a plain IndexCatalog), else a subdirectory per shard. Empty
  /// for memory-only catalogs.
  static std::string ShardDir(const Options& options, size_t s);

  /// Adds one document to the least-loaded shard; returns its global id.
  Result<DocId> AddDocument(const DocTerms& terms);
  /// Adds a batch, routing greedily document-by-document (one per-shard
  /// AddDocuments call per touched shard); returns the global ids in
  /// input order. A batch spread over shards commits shard by shard: a
  /// failing shard leaves the earlier shards' documents committed.
  Result<std::vector<DocId>> AddDocuments(const std::vector<DocTerms>& docs);

  /// Tombstones the document at global id `global` in its owning shard.
  Status DeleteDocument(DocId global);

  /// Upsert: tombstones `global` and re-ingests `terms` under a fresh id
  /// (insertion-order id contract, same as a single catalog's upsert) on
  /// the least-loaded shard; returns the new global id. When that shard
  /// owns `global` — always, with one shard — the upsert is the shard's
  /// own IndexCatalog::UpdateDocument: one commit, and a refused add
  /// (backpressure) deletes nothing. A cross-shard upsert is still two
  /// commits, delete then add: snapshots never show it half applied, but
  /// a refused add or a crash between the two loses the document.
  Result<DocId> UpdateDocument(DocId global, const DocTerms& terms);

  /// Per-shard lifecycle, plus the all-shards conveniences the engine
  /// maps its Flush()/Merge() onto.
  Status Flush(size_t shard);
  Status FlushAll();
  Result<size_t> Merge(size_t shard, const MergePolicy& policy = {});
  /// Applies `policy` to every shard; returns total segments merged.
  Result<size_t> MergeAll(const MergePolicy& policy = {});

  /// The current consistent multi-shard snapshot (cached; rebuilt after a
  /// commit on first use).
  std::shared_ptr<const ShardedSnapshot> Snapshot() const;

  /// Marks the cached snapshot stale so the next Snapshot() rebuilds from
  /// the shards' current states. Lock-free. Mutations through this class
  /// invalidate automatically; background maintenance publishing
  /// *directly* into a shard (via shard(s)) must call this from its
  /// on_state_change hook — a merge compacts the shard's local ids, so a
  /// stale cached snapshot would map global ids wrongly.
  void InvalidateSnapshotCache() const {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  size_t num_shards() const { return shards_.size(); }
  IndexCatalog& shard(size_t s) { return *shards_[s]; }
  const IndexCatalog& shard(size_t s) const { return *shards_[s]; }
  const Options& options() const { return options_; }

  // Global <-> (shard, local) id mapping.
  static size_t ShardOf(DocId global, size_t num_shards) {
    return static_cast<size_t>(global % num_shards);
  }
  static DocId LocalOf(DocId global, size_t num_shards) {
    return global / static_cast<DocId>(num_shards);
  }
  static DocId GlobalOf(DocId local, size_t shard, size_t num_shards) {
    return local * static_cast<DocId>(num_shards) + static_cast<DocId>(shard);
  }

 private:
  explicit ShardedCatalog(Options options) : options_(std::move(options)) {}

  static Result<std::unique_ptr<ShardedCatalog>> Build(
      const Options& options,
      Result<std::unique_ptr<IndexCatalog>> (*open_one)(
          const IndexCatalog::Options&));

  /// Shard with the smallest doc space (ties to the lowest index), based
  /// on the given per-shard doc-space vector. Callers mutate the vector
  /// as they route so a batch distributes evenly.
  static size_t LeastLoaded(const std::vector<uint64_t>& doc_space);
  std::vector<uint64_t> DocSpaces() const;  // requires mutation_mutex_

  Options options_;
  std::vector<std::unique_ptr<IndexCatalog>> shards_;

  /// Serializes mutations: makes each routing decision and its commits
  /// atomic. Per-shard catalogs serialize internally too.
  std::mutex mutation_mutex_;
  /// Guards the snapshot cache; held across the commits of a mutation
  /// that spans shards (see the file comment).
  mutable std::mutex snapshot_mutex_;
  mutable std::shared_ptr<const ShardedSnapshot> cached_;
  mutable uint64_t cached_generation_ = 0;
  /// Bumped after every commit; a cached snapshot built at an older
  /// generation is stale.
  mutable std::atomic<uint64_t> generation_{0};
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_
