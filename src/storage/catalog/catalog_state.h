// CatalogState: one immutable snapshot of the multi-segment index, plus
// the merged cursor and the scoring pass that read it. Queries read it
// through a ShardedSnapshot (storage/catalog/sharded_snapshot.h).
//
// Global doc-id space. Segments are ordered; segment i owns the global id
// range [base[i], base[i] + num_docs_i) — including tombstoned documents,
// which keep their slot (and id) until a merge physically drops them. The
// memtable sits after the last segment. Because the ranges are disjoint
// and ascending, the "merged" cursor over a term is a concatenation of
// per-component cursors with an id offset — no heap, and advance_to stays
// a binary search over components plus the component's own skip logic.
//
// Tombstones are per-component bitmaps over local ids; cursors skip dead
// postings, so a deleted document is invisible to every strategy the
// moment the snapshot containing its tombstone is published.
//
// Statistics (CatalogStats) are maintained incrementally by the
// IndexCatalog and describe exactly the *live* documents: df, cf, token
// count. A scoring model bound to a snapshot's stats view therefore
// computes bit-identical weights to one bound to a fresh InvertedFile of
// the surviving documents.
//
// The scoring pass. ScoreLivePostings is the one pass that weighs a term's
// live postings, for ShardedSnapshot's impact orders and with them the
// term's bound. A state caches neither: weights depend on the statistics
// a query scores by, and the snapshot that reads the state owns those.
// The pass skips the chained cursor: each segment hands over one decoded
// block at a time (PostingCursor::block_postings), with lengths from its
// own SegmentReader::DocLength and tombstones from its bitmap, and the
// memtable its posting vector, with Memtable::DocLength and its own
// bitmap; a posting's global id is its component's base plus its local
// id. The term's TermWeight is read once, so a posting costs a block
// decode share, a bitmap test, a length load and the formula.
//
// Thread-safety: a published CatalogState is immutable except for the
// internally synchronized sparse-index cache; states are shared by
// shared_ptr and may serve many queries while the catalog publishes
// successor states.
#ifndef MOA_STORAGE_CATALOG_CATALOG_STATE_H_
#define MOA_STORAGE_CATALOG_CATALOG_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/scoring.h"
#include "storage/catalog/forward_index.h"
#include "storage/catalog/memtable.h"
#include "storage/segment/posting_cursor.h"
#include "storage/segment/segment_reader.h"
#include "storage/sparse_index_cache.h"

namespace moa {

/// \brief Live-document statistics, maintained incrementally and exactly.
struct CatalogStats {
  std::vector<uint32_t> df;   ///< live document frequency per term
  std::vector<int64_t> cf;    ///< live collection frequency per term
  uint64_t num_live_docs = 0;
  int64_t total_live_tokens = 0;

  explicit CatalogStats(size_t num_terms) : df(num_terms, 0),
                                            cf(num_terms, 0) {}

  /// Applies one document's composition (+1 add, -1 delete).
  void Apply(const DocTerms& terms, int direction);
};

/// \brief One immutable segment inside the catalog: the mmap-backed
/// reader, its forward-index sidecar and the tombstone bitmap over local
/// ids.
struct CatalogSegment {
  uint64_t id = 0;            ///< file id (seg_<id>.moa / seg_<id>.fwd)
  std::string segment_path;
  std::shared_ptr<const SegmentReader> reader;
  std::shared_ptr<const ForwardIndex> fwd;
  std::vector<uint8_t> deleted;  ///< one flag per local doc
  uint32_t num_deleted = 0;

  uint32_t num_docs() const {
    return static_cast<uint32_t>(reader->num_docs());
  }
};

/// \brief Raw storage composition of one snapshot.
///
/// The counts the cost-based planner digests into storage signals (decode
/// cost, tombstone overhead, access-path factors). "Slots" are doc-id
/// slots including tombstoned ones — tombstones keep their slot (and its
/// postings, streamed-and-skipped by cursors) until a merge drops them.
struct CatalogComposition {
  size_t num_segments = 0;
  uint64_t segment_slots = 0;    ///< slots across all segments
  uint64_t memtable_slots = 0;
  uint64_t dead_slots = 0;       ///< tombstoned slots, all components

  uint64_t total_slots() const { return segment_slots + memtable_slots; }
};

/// \brief An immutable snapshot of the whole catalog.
class CatalogState {
 public:
  /// Built by IndexCatalog; `memtable` must be non-null (possibly empty)
  /// and `memtable_deleted` sized to its document count.
  CatalogState(std::vector<std::shared_ptr<const CatalogSegment>> segments,
               std::shared_ptr<const Memtable> memtable,
               std::vector<uint8_t> memtable_deleted, CatalogStats stats,
               uint64_t version);

  size_t num_terms() const { return stats_.df.size(); }
  /// Size of the global doc-id space (live + tombstoned slots).
  uint64_t doc_space() const {
    return memtable_base() + memtable_->num_docs();
  }
  uint64_t memtable_base() const { return base_.back(); }
  uint64_t version() const { return version_; }
  const CatalogStats& stats() const { return stats_; }
  const std::vector<std::shared_ptr<const CatalogSegment>>& segments() const {
    return segments_;
  }
  const Memtable& memtable() const { return *memtable_; }
  const std::vector<uint8_t>& memtable_deleted() const {
    return memtable_deleted_;
  }
  std::shared_ptr<const Memtable> memtable_ptr() const { return memtable_; }

  /// Token count of the document at global id g (defined for tombstoned
  /// slots too; they still carry their stored length).
  uint32_t DocLength(DocId g) const;
  bool IsDeleted(DocId g) const;
  /// Composition of the document at global id g (segment sidecar or
  /// memtable forward index).
  const DocTerms& TermsOf(DocId g) const;
  /// Live global ids, ascending — the survivor enumeration used by parity
  /// checks and merges.
  std::vector<DocId> LiveDocIds() const;

  /// Doc-ordered cursor over term t's *live* postings, global ids.
  /// `max_impact` is stamped onto the cursor (callers pass the snapshot's
  /// bound; a caller that reads no bound passes 0).
  std::unique_ptr<PostingCursor> OpenMergedCursor(TermId t,
                                                  double max_impact) const;

  /// Term t's live postings, global ids ascending, scored with `weight`
  /// (the term's TermWeight under the statistics to score by) — the
  /// scoring pass of the file comment. Build() the result for an impact
  /// order; its max_weight() is the term's exact bound.
  ImpactOrder::Builder ScoreLivePostings(TermId t,
                                         const TermWeight& weight) const;

  /// Human-readable storage composition, e.g.
  /// "memtable(3 docs) + segments[seg 1: 100 docs, seg 2: 50 docs (-4)]".
  std::string Describe() const;

  /// Raw composition counts for cost-based planning. O(segments +
  /// memtable docs); no posting access.
  CatalogComposition Composition() const;

  /// Per-snapshot sparse-index cache for the sparse-probe strategy.
  /// Snapshot-scoped on purpose: a sparse index materializes the term's
  /// live postings, which change across snapshots, so a catalog-wide
  /// cache would serve stale postings after any mutation. Internally
  /// synchronized (build-once / read-many).
  SparseIndexCache& sparse_cache() const { return sparse_cache_; }

 private:
  friend class IndexCatalog;

  /// Locates global id g: component index (segments.size() = memtable)
  /// and local id.
  std::pair<size_t, DocId> Locate(DocId g) const;

  std::vector<std::shared_ptr<const CatalogSegment>> segments_;
  std::shared_ptr<const Memtable> memtable_;
  std::vector<uint8_t> memtable_deleted_;
  CatalogStats stats_;
  uint64_t version_;
  bool memtable_has_dead_ = false;
  /// base_[i] = first global id of segment i; base_.back() = memtable.
  std::vector<uint64_t> base_;

  // Snapshot-scoped sparse-index cache (see sparse_cache()).
  mutable SparseIndexCache sparse_cache_;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_CATALOG_STATE_H_
