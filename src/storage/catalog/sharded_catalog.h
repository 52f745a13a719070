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
// Snapshots. Snapshot() returns one ShardedSnapshot holding a consistent
// vector of per-shard CatalogStates plus the *global* live statistics
// aggregated across shards. Per-shard read views report the global
// statistics (df, N, avgdl, cf) while routing per-document lookups
// (DocLength) to the shard's own state — a scoring model bound to a shard
// view therefore computes bit-identical weights to a single catalog of
// the whole collection, and df-ordered strategies (max-score) process
// terms in the identical order on every shard. This is what makes the
// scatter-gather top-N merge bit-identical to single-catalog execution
// for every strategy whose reported scores are full deterministic sums.
//
// Impact bounds. A shard's CatalogState keeps its own build-once bound
// cache, but those bounds are computed under *that catalog's* statistics;
// under sharding the weights depend on the global statistics, which move
// whenever any other shard mutates — while the unchanged shard's state
// object (and its cache) persists. The ShardedSnapshot therefore owns the
// per-(shard, term) bounds itself: exact max current weight under the
// snapshot's global statistics, computed on first use (with the term's
// impact order, below) and shared by every query on this snapshot. The
// per-shard *query* bound — the sum of a query's term bounds, the
// shard-skipping currency of the coordinator — comes from the same cache.
//
// Impact orders. Sorted access (the Fagin family, sparse-probe champions)
// reads a term's postings by descending weight, which segments and the
// memtable do not store. The first use of a (shard, term) on a snapshot —
// its bound, which the coordinator asks for every query term before
// planning, or a sorted access — scores the shard's live postings once
// into an ImpactOrder (storage/segment/posting_cursor.h), sorted lazily,
// by CatalogState::ScoreLivePostings under the shard model's TermWeight;
// the bound is the order's greatest weight, so bound and sorted access
// share that one scoring pass. The Fagin family's random access reads the
// same order through its cursor (a binary search on the order's
// doc-ordered entries, which carry the weight), so a probe takes no lock,
// decodes no block and weighs nothing.
// The snapshot caches the order, and with it the bound, for every later
// query. The cache is keyed by term, so a fresh snapshot costs nothing
// until a term is used, holds 16 B per live posting of each term used
// and 4 B more once a cursor has read it (at most one in-memory impact
// order of the collection), and dies with the snapshot.
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
#include "ir/query_gen.h"
#include "storage/catalog/index_catalog.h"

namespace moa {

class ShardedSnapshot;

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

/// \brief Per-shard CollectionStatsView: global aggregates, local lengths.
///
/// Strategies running on a shard pass *local* doc ids to the model, so
/// DocLength routes to the shard's state; everything else (df, N, avgdl,
/// cf, token totals) is the cross-shard aggregate, keeping the weight
/// arithmetic — and the df-based term ordering — identical to a single
/// catalog of the whole collection.
class ShardStatsView final : public CollectionStatsView {
 public:
  ShardStatsView(const CatalogStats* global, const CatalogState* state)
      : global_(global), state_(state) {}

  size_t num_terms() const override { return global_->df.size(); }
  size_t num_docs() const override {
    return static_cast<size_t>(global_->num_live_docs);
  }
  uint32_t DocFrequency(TermId t) const override { return global_->df[t]; }
  uint32_t DocLength(DocId local) const override {
    return state_->DocLength(local);
  }
  double AverageDocLength() const override {
    if (global_->num_live_docs == 0) return 0.0;
    return static_cast<double>(global_->total_live_tokens) /
           static_cast<double>(global_->num_live_docs);
  }
  int64_t total_tokens() const override { return global_->total_live_tokens; }
  int64_t CollectionFrequency(TermId t) const override {
    return global_->cf[t];
  }

 private:
  const CatalogStats* global_;
  const CatalogState* state_;
};

/// \brief PostingSource over one shard under global statistics.
///
/// DocFrequency reports the *global* df — strategies that order or gate
/// work by df (max-score's term order, Fagin's accessor construction)
/// must behave identically on every shard; the shard's actual list can be
/// shorter or empty, which cursors handle naturally (their size() is the
/// shard's). MaxImpact serves the snapshot-owned per-shard bound and
/// OpenImpactCursor the snapshot-owned impact order (see file comment).
/// Cursors and random access speak shard-local doc ids.
class ShardReadView final : public PostingSource {
 public:
  ShardReadView(const ShardedSnapshot* snapshot, size_t shard,
                const CatalogState* state)
      : snapshot_(snapshot), shard_(shard), state_(state) {}

  size_t num_terms() const override;
  size_t num_docs() const override {
    return static_cast<size_t>(state_->doc_space());
  }
  uint32_t DocFrequency(TermId t) const override;
  bool HasImpacts(TermId /*t*/) const override { return true; }
  double MaxImpact(TermId t) const override;
  std::unique_ptr<PostingCursor> OpenCursor(TermId t) const override;
  /// Serves the snapshot's cached order (ShardedSnapshot::ShardImpactOrder),
  /// scored under the shard's model, for sorted and random access alike
  /// (see file comment); `model` must have the same arithmetic and is not
  /// consulted.
  std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const override;

 private:
  const ShardedSnapshot* snapshot_;
  size_t shard_;
  const CatalogState* state_;
};

/// \brief One consistent snapshot across all shards.
///
/// Owns the per-shard serving bundles (stats view + scoring model + read
/// view + impact-order cache, which carries the bounds) and the aggregated
/// global statistics. Immutable except for the internally synchronized
/// caches; shared by shared_ptr like CatalogState.
class ShardedSnapshot {
 public:
  ShardedSnapshot(std::vector<std::shared_ptr<const CatalogState>> states,
                  ScoringModelKind scoring);
  ~ShardedSnapshot();

  size_t num_shards() const { return entries_.size(); }
  /// Strictly monotone across mutations (sum of per-shard versions).
  uint64_t version() const { return version_; }
  /// Aggregated live statistics (the "global-stats view" every shard
  /// scores under).
  const CatalogStats& stats() const { return global_; }
  /// Global doc-id space bound: every mapped global id is < doc_space().
  uint64_t doc_space() const;

  const CatalogState& shard_state(size_t s) const;
  /// The shard's PostingSource (local ids, global df, snapshot bounds).
  const PostingSource& shard_source(size_t s) const;
  /// The shard's scoring model, bound to the global stats view.
  const ScoringModel& shard_model(size_t s) const;
  /// The shard's snapshot-scoped sparse cache (postings only — safe to
  /// reuse the state's own cache across global-stat changes).
  SparseIndexCache& shard_sparse_cache(size_t s) const;
  /// Raw composition of shard s, for per-shard planner storage inputs.
  const CatalogComposition& shard_composition(size_t s) const;

  /// Exact max current weight of term t's live postings in shard s under
  /// the snapshot's global statistics. Build-once per (shard, term): the
  /// greatest weight of ShardImpactOrder(s, t), which its first use builds.
  double ShardTermBound(size_t s, TermId t) const;
  /// Upper bound on any single document's score for `query` in shard s:
  /// the sum of the query terms' shard bounds. This is the coordinator's
  /// shard-skipping currency.
  double ShardQueryBound(size_t s, const Query& query) const;
  /// Term t's live postings in shard s (local ids) in impact order under
  /// the shard's model. Built on first use, by the bound or by sorted
  /// access — scoring every live posting once, outside the cache lock;
  /// concurrent first users may both build, and the first insert wins —
  /// then shared by every query on this snapshot. The reference is the
  /// cache's own entry, valid while the snapshot lives; a reader that
  /// only looks (the bound) takes no reference count.
  const std::shared_ptr<const ImpactOrder>& ShardImpactOrder(
      size_t s, TermId t) const;

  // Global-id document access (routes to the owning shard).
  uint32_t DocLength(DocId global) const;
  bool IsDeleted(DocId global) const;
  const DocTerms& TermsOf(DocId global) const;
  /// Live global ids, ascending.
  std::vector<DocId> LiveDocIds() const;

  /// Human-readable per-shard composition, e.g.
  /// "sharded(2): [shard 0: catalog v3: ...; shard 1: catalog v2: ...]";
  /// a one-shard snapshot describes its shard alone ("catalog v3: ...").
  std::string Describe() const;

 private:
  struct ShardEntry;

  std::vector<std::unique_ptr<ShardEntry>> entries_;
  CatalogStats global_;
  uint64_t version_ = 0;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_
