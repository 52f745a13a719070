// PostingCursor / PostingSource: the representation-agnostic read API over
// posting storage.
//
// Executors that only need doc-ordered (doc, tf) streams — the baselines,
// term-at-a-time max-score and STOP AFTER — talk to this interface instead
// of touching std::vector<Posting> directly, so the same algorithm runs
// unchanged over the in-memory InvertedFile and over a compressed
// mmap-backed MOAIF03 segment (storage/segment/segment_reader.h).
// Executors that read postings by descending weight (the Fagin family,
// sparse-probe champions) use ImpactCursor: the materialized order in
// memory, an ImpactOrder scored from the doc-ordered list everywhere else.
// The same cursor serves the Fagin family's random access (FindWeight), so
// a query term's sorted and random access read one list.
//
// Contract (shared by every implementation, enforced by the conformance
// suite in tests/posting_cursor_test.cc):
//  - A fresh cursor is positioned on the first posting (or at end when the
//    list is empty). doc() returns kEndDoc once exhausted; tf() is
//    meaningless there.
//  - next() moves forward one posting; calling it at end stays at end.
//  - advance_to(target) moves to the first posting with doc >= target and
//    is a no-op when doc() >= target already (cursors never move
//    backwards). advance_to(kEndDoc) exhausts the cursor unless a posting
//    for the largest representable doc exists.
//  - Impact metadata (max_impact / block_max_impact) is an upper bound on
//    the scoring weight of any posting in the term / in the current block.
//    It is only meaningful when the source HasImpacts for the term; the
//    in-memory implementation treats the whole list as one block.
//  - shallow_advance(target) moves only the *block* position: afterwards
//    the current block is the first one whose block_last_doc() >= target
//    (or the cursor is block-exhausted, block_last_doc() == kEndDoc) and
//    no payload has been decoded. In the shallow state only
//    block_max_impact(), block_last_doc(), shallow_advance() and
//    advance_to() are meaningful; doc()/tf()/next() require a deep
//    advance_to first. Block-max pruning loops live on this: bound-check
//    a block via block_max_impact(), then either decode it (advance_to)
//    or skip it wholesale (shallow_advance(block_last_doc() + 1)).
//    Implementations without block structure default shallow_advance to
//    advance_to — always correct, just never cheaper.
//
// Cost accounting stays in the algorithms (CostTicker ticks per posting
// touched), not in the cursors, so switching representations does not
// change the deterministic work counters. The single exception is the
// blocks_decoded/blocks_skipped pair: those are ticked by block-structured
// cursors themselves, because they exist precisely to observe
// representation-level behaviour (and stay outside CostCounters::Scalar).
#ifndef MOA_STORAGE_SEGMENT_POSTING_CURSOR_H_
#define MOA_STORAGE_SEGMENT_POSTING_CURSOR_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ir/scoring.h"
#include "storage/inverted_file.h"
#include "storage/posting.h"

namespace moa {

/// Sentinel returned by PostingCursor::doc() when the cursor is exhausted.
inline constexpr DocId kEndDoc = std::numeric_limits<DocId>::max();

/// \brief Forward, skippable iterator over one term's doc-ordered postings.
class PostingCursor {
 public:
  virtual ~PostingCursor() = default;

  /// Current document id, kEndDoc when exhausted.
  virtual DocId doc() const = 0;
  /// Term frequency of the current posting; undefined at end.
  virtual uint32_t tf() const = 0;
  /// Moves to the next posting (stays at end once exhausted).
  virtual void next() = 0;
  /// Moves to the first posting with doc >= target; no-op if already there.
  virtual void advance_to(DocId target) = 0;
  /// Moves the *block* position to the first block that could contain a
  /// posting with doc >= target, without decoding any payload (see the
  /// contract in the file comment). The default deep-advances — correct
  /// for blockless cursors, which serve the whole list as one block.
  virtual void shallow_advance(DocId target) { advance_to(target); }
  /// Total number of postings (the term's document frequency).
  virtual size_t size() const = 0;
  /// Upper bound on the weight of any posting in the current block.
  virtual double block_max_impact() const = 0;
  /// Upper bound on the weight of any posting of the term.
  virtual double max_impact() const = 0;
  /// Largest doc id in the current block — the block's skip key: no
  /// posting with doc > block_last_doc() exists in the current block, and
  /// shallow_advance(block_last_doc() + 1) skips it without decoding.
  /// kEndDoc iff the cursor is exhausted at block level. The conservative
  /// default (kEndDoc - 1 while postings remain) is correct for blockless
  /// cursors whose block_max_impact spans the rest of the list.
  virtual DocId block_last_doc() const {
    return at_end() ? kEndDoc : kEndDoc - 1;
  }

  /// Bulk read: exposes the remaining postings of the current block as
  /// directly addressable arrays (*docs)[0..n) / (*tfs)[0..n), decoding
  /// the block if necessary. Returns 0 when exhausted or when the
  /// implementation has no contiguous columnar block representation (the
  /// default; callers then fall back to doc()/tf()/next()). The pointers
  /// stay valid until the cursor moves. Consume the batch, then step with
  /// shallow_advance(block_last_doc() + 1): one virtual call per block
  /// instead of four per posting — the segment scan hot path.
  virtual size_t block_postings(const DocId** docs,
                                const uint32_t** tfs) const {
    (void)docs;
    (void)tfs;
    return 0;
  }

  bool at_end() const { return doc() == kEndDoc; }
};

/// \brief Forward iterator over one term's postings in *descending weight*
/// order — the sorted access the Fagin family and impact-order champions
/// consume — plus random access over the same postings.
///
/// Contract (the exact order InvertedFile::BuildImpactOrders materializes):
/// postings are emitted by descending weight, ties broken by ascending doc
/// id. weight() at the current position is also the sorted-access
/// threshold: no later posting of the term weighs more. doc() returns
/// kEndDoc once exhausted; weight()/tf() are meaningless there. FindWeight
/// answers for every posting the cursor emits, wherever the cursor
/// stands, with the weight sorted access emits for it, and for nothing
/// else (a tombstoned document is absent).
class ImpactCursor {
 public:
  virtual ~ImpactCursor() = default;

  /// Current document id, kEndDoc when exhausted.
  virtual DocId doc() const = 0;
  /// Term frequency of the current posting; undefined at end.
  virtual uint32_t tf() const = 0;
  /// Scoring weight of the current posting; undefined at end.
  virtual double weight() const = 0;
  /// Moves to the next posting in impact order (stays at end).
  virtual void next() = 0;
  /// Number of postings the cursor emits in all (a shard's view emits the
  /// shard's live postings, not the global document frequency).
  virtual size_t size() const = 0;
  /// Random access: the weight of `doc` among the postings the cursor
  /// emits (nullopt when there is none). Does not move the cursor. Ticks
  /// one random read.
  virtual std::optional<double> FindWeight(DocId doc) const = 0;

  bool at_end() const { return doc() == kEndDoc; }
};

/// \brief One term's postings in impact order, sorted lazily: the sorted
/// and random access of storage without a materialized order (segments,
/// catalog snapshots).
///
/// An ImpactOrder::Builder makes it in one scoring pass: its caller feeds
/// the term's postings as doc-ordered runs of one storage component each,
/// and decides which postings count (tombstones skipped) and in which id
/// space; the builder scores each once with the term's TermWeight. The
/// entries stay in that doc order and never change, so random access is a
/// binary search on them. Sorting is lazy and permutes a separate index
/// array: its prefix [0, sorted) is final, in the exact order that
/// InvertedFile::BuildImpactOrders materializes (weight descending, doc
/// ascending). A cursor that reaches the end of the sorted prefix extends
/// it: nth_element picks the next chunk and sort orders it. The first
/// chunk holds kFirstChunk entries and every extension grows the prefix
/// kGrowth-fold, so a consumer that reads k postings pays one scoring
/// pass, one selection pass over the unsorted rest per extension and
/// O(k log k) sorting — not a full sort of the list.
///
/// Thread-safety: any number of cursors may read one order at once (the
/// per-snapshot cache shares it across queries), random access with no
/// synchronization at all. Extensions serialize on a mutex and publish the
/// new length with a release store; a reader only reads the permutation
/// below the length it loaded with acquire, and an extension only writes
/// above it.
///
/// Memory: 16 B per posting (Entry), plus 4 B per posting for the
/// permutation once a cursor has read the order; held by whoever owns the
/// order — the cursor alone for PostingSource's uncached default, the
/// snapshot for ShardedSnapshot's cache.
class ImpactOrder {
 public:
  struct Entry {
    double weight;
    DocId doc;
    uint32_t tf;
  };
  static_assert(sizeof(Entry) == 16);

  class Builder;

  /// An empty order (a term with no live posting).
  ImpactOrder() = default;
  ImpactOrder(const ImpactOrder&) = delete;
  ImpactOrder& operator=(const ImpactOrder&) = delete;

  size_t size() const { return entries_.size(); }
  /// The greatest weight, taken while scoring (0 for an empty order): the
  /// exact impact bound of the postings, with no sorting.
  double max_weight() const { return max_weight_; }

  /// A fresh cursor over `order` (non-null), which it keeps alive.
  static std::unique_ptr<ImpactCursor> OpenCursor(
      std::shared_ptr<const ImpactOrder> order);

 private:
  friend class ImpactOrderCursor;

  /// First sorted chunk; enough for the top-n prefixes Fagin reads.
  static constexpr size_t kFirstChunk = 64;
  /// Prefix growth factor per extension.
  static constexpr size_t kGrowth = 4;

  /// Extends the sorted prefix to at least min(want, size()) entries and
  /// returns its length.
  size_t SortedAtLeast(size_t want) const;

  /// Doc-ordered, immutable after construction.
  std::vector<Entry> entries_;
  /// Impact rank -> index into entries_. Allocated by the first extension
  /// (an order only its bound reads never needs it) and never resized
  /// after; extensions permute it above the published length.
  mutable std::vector<uint32_t> by_impact_;
  mutable std::mutex extend_mutex_;
  mutable std::atomic<size_t> sorted_{0};
  double max_weight_ = 0.0;
};

/// \brief The one scoring pass that makes an ImpactOrder.
///
/// Add scores a run of one component's doc-ordered postings (a decoded
/// segment block, a memtable list) with the term's TermWeight, skipping
/// the ones its tombstone bitmap flags; runs arrive in ascending id order.
/// The greatest weight is folded while scoring, so a caller that needs
/// only the bound reads max_weight() and never builds the order.
class ImpactOrder::Builder {
 public:
  /// `capacity`: the number of postings that will be added (reserved).
  Builder(const TermWeight& weight, size_t capacity) : weight_(weight) {
    entries_.reserve(capacity);
  }

  /// Scores the run posting(0), ..., posting(n - 1): Postings with
  /// component-local ids, ascending, whose id in the order is `base` + the
  /// local id. A posting whose local id is flagged in `dead` (null: none
  /// is) is skipped; `doc_length(id)` is the token count of local
  /// document `id`.
  template <typename PostingFn, typename DocLengthFn>
  void Add(uint64_t base, size_t n, const PostingFn& posting,
           const std::vector<uint8_t>* dead, const DocLengthFn& doc_length) {
    for (size_t i = 0; i < n; ++i) {
      const Posting p = posting(i);
      if (dead != nullptr && (*dead)[p.doc] != 0) continue;
      const auto doc = static_cast<DocId>(base + p.doc);
      assert(entries_.empty() || entries_.back().doc < doc);
      const double weight = weight_(p.tf, doc_length(p.doc));
      entries_.push_back(Entry{weight, doc, p.tf});
      max_weight_ = std::max(max_weight_, weight);
    }
  }

  /// The greatest weight added so far (0 before any posting).
  double max_weight() const { return max_weight_; }

  /// The order of every posting added; ticks
  /// CostCounters::impact_postings by their number.
  std::shared_ptr<const ImpactOrder> Build();

 private:
  TermWeight weight_;
  std::vector<Entry> entries_;
  double max_weight_ = 0.0;
};

/// \brief A collection of posting lists addressable by TermId.
///
/// Implementations: InMemoryPostingSource (below) over an InvertedFile,
/// SegmentReader (segment_reader.h) over a compressed mmap-backed segment,
/// and ShardReadView (storage/catalog/sharded_snapshot.h) over one shard
/// of a multi-segment catalog snapshot.
/// Sources are immutable after construction and safe for concurrent reads;
/// each OpenCursor/OpenImpactCursor call returns an independent cursor.
class PostingSource {
 public:
  virtual ~PostingSource() = default;

  virtual size_t num_terms() const = 0;
  virtual size_t num_docs() const = 0;
  /// Number of documents containing term t.
  virtual uint32_t DocFrequency(TermId t) const = 0;
  /// True if MaxImpact/impact bounds are available for term t.
  virtual bool HasImpacts(TermId t) const = 0;
  /// Upper bound on the weight of any posting of t; requires HasImpacts.
  virtual double MaxImpact(TermId t) const = 0;
  /// A fresh cursor positioned on t's first posting.
  virtual std::unique_ptr<PostingCursor> OpenCursor(TermId t) const = 0;

  /// Postings of t by descending `model` weight, ties by ascending doc —
  /// exact sorted access over any storage, and random access over the
  /// same postings (ImpactCursor::FindWeight). Requires HasImpacts(t) and
  /// a model whose arithmetic matches the source's impact bounds (the
  /// same precondition impact orders always had). The default scores the
  /// whole list, block batch by block batch (it requires cursors that
  /// serve block_postings, as a segment's do), into a fresh ImpactOrder
  /// on every call and sorts only the prefix the cursor reads;
  /// InMemoryPostingSource serves its materialized order and ShardReadView
  /// the order its snapshot caches per (shard, term).
  virtual std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const;
};

/// \brief Zero-copy PostingSource view over an in-memory InvertedFile.
///
/// Cheap to construct (one pointer), so callers holding only an
/// InvertedFile can adapt it on the stack. Impact bounds come from the
/// list's materialized impact order (InvertedFile::BuildImpactOrders); the
/// whole list counts as a single block.
class InMemoryPostingSource final : public PostingSource {
 public:
  explicit InMemoryPostingSource(const InvertedFile* file) : file_(file) {}

  size_t num_terms() const override { return file_->num_terms(); }
  size_t num_docs() const override { return file_->num_docs(); }
  uint32_t DocFrequency(TermId t) const override {
    return file_->DocFrequency(t);
  }
  bool HasImpacts(TermId t) const override {
    return file_->list(t).has_impact_order();
  }
  double MaxImpact(TermId t) const override {
    return file_->list(t).max_weight();
  }
  std::unique_ptr<PostingCursor> OpenCursor(TermId t) const override;
  /// Serves the list's materialized impact order directly (requires
  /// InvertedFile::BuildImpactOrders, which must have used arithmetic
  /// equal to `model` — the long-standing impact-order precondition), and
  /// random access by binary search on the doc-ordered list, weighing a
  /// hit with `model`, which must outlive the cursor.
  std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const override;

  /// The adapted file — lets consumers that can exploit in-memory lists
  /// directly (e.g. zero-copy sparse-index builds) recover them from a
  /// PostingSource&.
  const InvertedFile* file() const { return file_; }

 private:
  const InvertedFile* file_;
};

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_POSTING_CURSOR_H_
