// IndexCatalog: the mutable, multi-segment index lifecycle —
// ingest → flush → merge → delete — behind the PostingCursor API.
//
//            AddDocument / DeleteDocument
//                       │ (group commit + WAL)
//                 ┌─────▼─────┐   Flush()    ┌───────────────┐
//                 │  memtable │ ───────────▶ │ seg_k.moa/fwd │──┐
//                 └───────────┘              └───────────────┘  │ Merge()
//                                            ┌───────────────┐  ▼
//                                            │ seg_j.moa/fwd │─▶ seg_m
//                                            └───────────────┘ (tombstones
//                                                                dropped,
//                                                                ids compacted)
//
// Every mutation builds a *new* immutable CatalogState (copy-on-write with
// structural sharing: segment readers, sidecars and the memtable are
// shared by shared_ptr; only what changed is copied) and publishes it by
// swapping one pointer. Queries take snapshot-per-query: a search holds
// the shared_ptr it started with, so flush/merge/delete during in-flight
// execution is safe and every query sees one consistent state.
//
// Group commit: concurrent mutators enqueue their operation and one
// leader drains the queue — a single copy-on-write set, one WAL batch
// append, one fsync and one state publication cover the whole group, so
// N concurrent writers pay ~one fsync, not N. An UpdateDocument is one
// queue entry (delete + add applied atomically within the group — no
// snapshot ever sees the document missing).
//
// Doc-id contract: ids are assigned densely in insertion order and are
// *internal*. They are stable across AddDocument, DeleteDocument and
// Flush; a Merge physically drops tombstoned documents and compacts every
// id above the merged range downward (the classic LSM text-index
// behaviour — external keys, if any, live above this layer).
//
// Durability: segments and their forward-index sidecars are immutable
// files; the MANIFEST names the live set and is replaced atomically
// (storage/catalog/manifest.h). With the WAL enabled (the default for
// directory-backed catalogs) the memtable is durable too: an
// acknowledged mutation is fsync'ed into `wal_<seq>.log`
// (storage/catalog/wal.h) before the call returns, Open replays the log
// on top of the manifest state, and Flush/Merge rotate to a fresh WAL so
// replay cost stays bounded by the memtable. A catalog whose manifest
// names a WAL stays WAL-backed even if reopened with `wal_enabled =
// false` (silently dropping the log would orphan acknowledged writes).
// With the WAL off the pre-WAL contract holds: unflushed documents are
// lost on crash.
//
// Background maintenance: Flush/Merge are safe to call concurrently with
// mutations (two-phase: file writes run unlocked; the publish section
// re-derives manifest + memtable from the then-current state), which is
// what lets storage/catalog/background_jobs.h run them on the shared
// thread pool while writers keep committing. When a maintenance observer
// is attached, the backpressure budget (Options) gates mutations: over
// budget, an add blocks until a flush catches up — or soft-fails with
// ResourceExhausted when configured.
//
// Mutation cost: one state copy per group — batch adds through
// AddDocuments to amortize (the memtable copy is O(buffered contents)).
#ifndef MOA_STORAGE_CATALOG_INDEX_CATALOG_H_
#define MOA_STORAGE_CATALOG_INDEX_CATALOG_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/scoring.h"
#include "storage/catalog/catalog_state.h"
#include "storage/catalog/manifest.h"
#include "storage/catalog/sharded_snapshot.h"
#include "storage/catalog/wal.h"
#include "storage/segment/segment_format.h"

namespace moa {

/// \brief Which adjacent run of segments a Merge compacts.
struct MergePolicy {
  /// Index of the first segment of the run (catalog order).
  size_t first = 0;
  /// Segments in the run; 0 = through the last segment. Runs must be
  /// adjacent so the compacted id space stays insertion-ordered.
  size_t count = 0;
};

/// \brief The multi-segment index catalog.
///
/// Thread-safety: Snapshot()/OpenReadView() may race freely with any
/// mutation (readers keep serving their snapshot); mutations are
/// serialized internally (group commit); Flush/Merge may race mutations
/// and each other.
class IndexCatalog {
 public:
  struct Options {
    /// Vocabulary size (dense term ids below this). Required.
    size_t num_terms = 0;
    /// Catalog directory for segments + MANIFEST. Empty = memory-only:
    /// adds and deletes work, Flush/Merge return FailedPrecondition.
    std::string dir;
    /// Scoring kind that snapshots of this catalog score by: OpenReadView's
    /// and, for every shard, ShardedCatalog::Snapshot's.
    ScoringModelKind scoring = ScoringModelKind::kBm25;
    uint32_t segment_block_size = kDefaultSegmentBlockSize;
    /// Write-ahead log (directory-backed catalogs only). Acknowledged
    /// mutations survive a crash; see the file comment for the full
    /// contract.
    bool wal_enabled = true;
    /// Group-commit fsync batching: the WAL is fsync'ed once at least
    /// this many records are pending. 1 (default) = every group commit
    /// syncs — full durability. Larger values trade the last
    /// `wal_fsync_every - 1` acknowledged records on power loss for
    /// fewer fsyncs.
    size_t wal_fsync_every = 1;
    /// Backpressure budget: the most documents the memtable may buffer
    /// before adds and updates wait (0 = unbounded). Active only while a
    /// maintenance observer is attached (otherwise nothing would ever
    /// drain the debt and a blocked writer would hang).
    size_t backpressure_memtable_docs = 0;
    /// Over budget: false = block the writer until maintenance catches
    /// up; true = fail fast with ResourceExhausted.
    bool backpressure_soft_fail = false;
    /// Test-only crash injection: called with a named point
    /// ("flush:segment-written", "flush:wal-rotated",
    /// "merge:segment-written", "merge:wal-rotated") between durability
    /// steps; returning an error simulates a crash at that point.
    std::function<Status(const std::string&)> fault_injector;
  };

  /// Fresh empty catalog. Creates `dir` if needed; refuses a directory
  /// that already holds a MANIFEST (use Open to recover one). With the
  /// WAL enabled the empty manifest + WAL are planted immediately, so
  /// even never-flushed catalogs recover acknowledged writes.
  static Result<std::unique_ptr<IndexCatalog>> Create(const Options& options);

  /// Recovers a catalog from `dir`'s MANIFEST: opens and cross-validates
  /// every referenced segment + sidecar, rebuilds live statistics from
  /// the surviving documents, then replays the live WAL (if the manifest
  /// names one) — truncating a torn tail — so the memtable returns to
  /// exactly the acknowledged writes. Unreferenced files (a crashed,
  /// unpublished flush or merge) are ignored.
  static Result<std::unique_ptr<IndexCatalog>> Open(const Options& options);

  ~IndexCatalog();

  /// Adds one document; returns its global id. Prefer AddDocuments for
  /// bulk ingest (one group-commit entry per call).
  Result<DocId> AddDocument(const DocTerms& terms);
  /// Adds a batch under consecutive global ids; returns the first. One
  /// WAL record per document, one fsync for the batch. All-or-nothing on
  /// validation errors.
  Result<DocId> AddDocuments(const std::vector<DocTerms>& docs);

  /// Tombstones the document at `global`. Statistics drop its exact
  /// composition immediately; the posting slots are reclaimed by the next
  /// Merge covering its segment. Durable before the call returns: via
  /// the WAL when enabled, else via a manifest write for segment-level
  /// tombstones.
  Status DeleteDocument(DocId global);

  /// Upserts a document: tombstones `global`, then re-ingests `terms`
  /// under a fresh insertion-order id (returned). Applied atomically
  /// within one group commit — no snapshot observes the document
  /// deleted-but-not-readded. Fails without re-adding when `global` does
  /// not name a live document.
  Result<DocId> UpdateDocument(DocId global, const DocTerms& terms);

  /// Persists the memtable as a new immutable segment (id-stable:
  /// tombstoned memtable docs carry their tombstone into the segment)
  /// and rotates the WAL. No-op on an empty memtable. Safe to run
  /// concurrently with mutations; serialized against Merge.
  Status Flush();

  /// Compacts the policy's run of adjacent segments into one, dropping
  /// tombstoned documents and remapping every id above the run downward,
  /// then rotates the WAL (old records name pre-compaction ids).
  /// Returns the number of segments merged (0 = nothing to do). Safe to
  /// run concurrently with mutations; serialized against Flush.
  Result<size_t> Merge(const MergePolicy& policy = {});

  /// The current published state (snapshot-per-query anchor).
  std::shared_ptr<const CatalogState> Snapshot() const;
  /// The read view of a one-shard ShardedSnapshot over the current state:
  /// PostingSource, scoring model and state in one handle for ExecContext,
  /// scored under the state's own statistics. The pointer aliases the
  /// snapshot, which it keeps alive, with its impact orders and bounds —
  /// also past this catalog's destruction.
  std::shared_ptr<const ShardReadView> OpenReadView() const;

  /// Registers (or clears, with nullptr) the maintenance observer,
  /// invoked after every committed mutation group. While set, the
  /// backpressure budget in Options is enforced. The call synchronizes
  /// with in-flight invocations: after SetWriteObserver(nullptr)
  /// returns, the previous observer is never called again.
  void SetWriteObserver(std::function<void()> observer);

  const Options& options() const { return options_; }

 private:
  struct PendingWrite;

  explicit IndexCatalog(Options options) : options_(std::move(options)) {}

  Status Fault(const char* point) const {
    if (options_.fault_injector) return options_.fault_injector(point);
    return Status::OK();
  }
  void Publish(std::shared_ptr<const CatalogState> next);
  /// Manifest describing `segments` with the given next id + WAL seq.
  static CatalogManifest ManifestFor(
      const std::vector<std::shared_ptr<const CatalogSegment>>& segments,
      uint64_t next_segment_id, uint64_t wal_seq);

  /// Enqueues `write`, possibly becomes the group-commit leader, and
  /// blocks until the write's status is decided.
  void SubmitAndWait(PendingWrite* write);
  /// Leader: drains the queue in groups until it empties. Called with
  /// `lock` held on queue_mutex_; temporarily releases it per group.
  void DrainQueue(std::unique_lock<std::mutex>& lock);
  /// Applies one group under writer_mutex_: COW copies, WAL append +
  /// fsync, single publication.
  void CommitGroup(std::vector<PendingWrite*>& group);

  /// True when the current memtable holds backpressure_memtable_docs or
  /// more documents.
  bool OverBudget() const;
  /// Writes a fresh WAL seeded from `state`'s memtable, publishes the
  /// manifest naming it, swaps it in and retires the old file. Called
  /// under writer_mutex_ from the Flush/Merge publish sections.
  Status RotateWal(
      const std::vector<std::shared_ptr<const CatalogSegment>>& segments,
      const Memtable& memtable, const std::vector<uint8_t>& memtable_deleted,
      const char* fault_point);

  Options options_;

  mutable std::mutex state_mutex_;  ///< guards the state_ pointer swap
  std::shared_ptr<const CatalogState> state_;

  /// Serializes state mutation: group-commit application and the
  /// capture/publish sections of Flush/Merge. The WAL writer and
  /// next_segment_id_/wal_seq_ are touched only under this mutex.
  std::mutex writer_mutex_;
  uint64_t next_segment_id_ = 1;
  uint64_t wal_seq_ = 0;  ///< 0 = no WAL
  std::unique_ptr<WalWriter> wal_;

  /// Serializes Flush against Merge (their unlocked file-writing phases
  /// must not interleave: both splice the segment list).
  std::mutex maintenance_mutex_;

  // Group commit.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;        ///< waiters on group completion
  std::condition_variable backpressure_cv_; ///< writers blocked over budget
  std::deque<PendingWrite*> queue_;
  bool leader_active_ = false;

  std::mutex observer_mutex_;  ///< held while invoking write_observer_
  std::function<void()> write_observer_;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_INDEX_CATALOG_H_
