// PostingCursor / PostingSource: the representation-agnostic read API over
// posting storage.
//
// Executors that only need doc-ordered (doc, tf) streams — the baselines,
// term-at-a-time max-score and STOP AFTER — talk to this interface instead
// of touching std::vector<Posting> directly, so the same algorithm runs
// unchanged over the in-memory InvertedFile and over a catalog snapshot,
// whose compressed mmap-backed MOAIF03 segments
// (storage/segment/segment_reader.h) serve the same cursor.
// Executors that read postings by descending weight (the Fagin family,
// sparse-probe champions) use ImpactCursor: the materialized order in
// memory, an ImpactOrder over a catalog snapshot, which emits a term's
// postings from each segment's DominanceLayers and scores only the layers
// its emissions need.
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
//  - Cursors carry no scoring bound: a term's bound is the source's
//    (PostingSource::MaxImpact), computed under the statistics a query
//    scores by.
//  - shallow_advance(target) moves only the *block* position: afterwards
//    the current block is the first one whose block_last_doc() >= target
//    (or the cursor is block-exhausted, block_last_doc() == kEndDoc) and
//    no payload has been decoded. In the shallow state only
//    block_last_doc(), shallow_advance() and advance_to() are
//    meaningful; doc()/tf()/next() require a deep advance_to first. The
//    max-score probe loop lives on this: it shallow-steps to a candidate
//    document and decodes the block (advance_to) only when the term's
//    bound cannot rule the document out, so blocks holding no surviving
//    candidate are never decoded. Implementations without block
//    structure default shallow_advance to advance_to — always correct,
//    just never cheaper; the in-memory one serves its list as one block.
//
// Cost accounting stays in the algorithms (CostTicker ticks per posting
// touched), not in the cursors, so switching representations does not
// change the deterministic work counters. The exceptions observe
// representation-level behaviour and stay outside CostCounters::Scalar:
// block-structured cursors tick blocks_decoded/blocks_skipped themselves,
// an ImpactOrder ticks the postings it scores (impact_postings) and a
// DominanceLayers build the postings it groups (layer_postings).
#ifndef MOA_STORAGE_SEGMENT_POSTING_CURSOR_H_
#define MOA_STORAGE_SEGMENT_POSTING_CURSOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
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
  /// Largest doc id in the current block — the block's skip key: no
  /// posting with doc > block_last_doc() exists in the current block, and
  /// shallow_advance(block_last_doc() + 1) skips it without decoding.
  /// kEndDoc iff the cursor is exhausted at block level.
  virtual DocId block_last_doc() const = 0;

  /// Bulk read: exposes the remaining postings of the current block as
  /// directly addressable arrays (*docs)[0..n) / (*tfs)[0..n), decoding
  /// the block if necessary. Returns 0 when exhausted or when the
  /// implementation has no contiguous columnar block representation (the
  /// default; callers then fall back to doc()/tf()/next()). The pointers
  /// stay valid until the cursor moves. Consume the batch, then step with
  /// shallow_advance(block_last_doc() + 1): one virtual call per block
  /// instead of four per posting — how a segment decodes a term's list
  /// for its DominanceLayers.
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

/// \brief One term's postings in one immutable storage component (a
/// segment), grouped into layers of maxima over (tf up, length down): the
/// part of the term's impact order that no statistics change.
///
/// A posting dominates another when its tf is at least as high and its
/// document at most as long, and the two (tf, length) points differ.
/// Layer 0 holds the postings nothing dominates; layer j + 1 those that
/// only postings of layers <= j dominate. So every posting of layer j + 1
/// is dominated by one of layer j, and equal points share a layer. Every
/// model's weight rises with tf and falls with the length, also in
/// floating point (TermWeightTest checks it), so under any statistics no
/// posting of a later layer weighs more than the heaviest of layer j: the
/// threshold ImpactOrder emits by.
///
/// Building sorts the postings by (tf desc, length asc, doc asc) and peels
/// the layers in one pass: the least length of each layer so far never
/// falls from one layer to the next, so a point's layer is the number of
/// layers whose least length is <= its own, found by binary search. Equal
/// points take the layer of the first of them.
///
/// Memory: 12 B per posting (doc, tf and the layer permutation) and 4 B
/// per layer; lengths stay with the component.
class DominanceLayers {
 public:
  /// The layers of the doc-ordered `postings`, whose documents hold
  /// lengths[i] tokens. O(n log n); ticks CostCounters::layer_postings by
  /// n.
  DominanceLayers(std::vector<Posting> postings,
                  const std::vector<uint32_t>& lengths);

  size_t size() const { return postings_.size(); }
  size_t num_layers() const { return index_.size() - postings_.size(); }
  /// The postings in doc order, local ids (random access searches these).
  const std::vector<Posting>& postings() const { return postings_; }
  /// Layer j's postings, as positions into postings():
  /// [layer_begin(j), layer_end(j)), by (tf desc, length asc, doc asc).
  const uint32_t* layer_begin(size_t j) const {
    return index_.data() + (j == 0 ? 0 : index_[size() + j - 1]);
  }
  const uint32_t* layer_end(size_t j) const {
    return index_.data() + index_[size() + j];
  }

 private:
  std::vector<Posting> postings_;  ///< doc order
  /// The layer permutation (positions, layer after layer), then the end of
  /// each layer in it.
  std::vector<uint32_t> index_;
};

/// \brief One term's postings in impact order over the components of a
/// catalog snapshot, emitted lazily: the sorted and random access of
/// storage without a materialized order.
///
/// Sorted access emits by (weight desc, id asc) from one heap of every
/// live posting scored so far. A segment's postings are scored from its
/// DominanceLayers of the term, a layer at a time, with TA's threshold
/// test inside one list: the heaviest weight of the segment's last scored
/// layer bounds every posting of its later layers, so the heap's best
/// posting is emitted only while it weighs strictly more than that
/// threshold of every segment with layers left; otherwise the segment
/// with the greatest threshold scores its next layer. So a segment scores
/// layer j + 1 whole before anything of layers <= j is emitted, and on a
/// tie it scores first, which keeps the doc-ascending tie order.
/// Tombstoned postings are scored, and count toward their layer's
/// heaviest weight (a later live posting may be dominated by a dead one
/// only), but never enter the heap. The memtable's live postings of the
/// term are scored whole by the first extension. The first posting
/// emitted is the exact greatest live weight (max_weight()).
///
/// The emitted prefix is kept: entries below the published length are
/// final and read without a lock, by any number of cursors. A cursor at
/// the end of the prefix extends it: extensions serialize on a mutex,
/// grow the prefix geometrically and publish the new length with a release
/// store. The prefix lives in chunks that double in size and never move,
/// so a reader needs no lock while an extension appends. Memory: 16 B per
/// emitted posting, plus the heap of scored, unemitted postings, released
/// when the order is drained.
///
/// Random access (through the cursor) finds the component by its base,
/// binary-searches its doc-ordered postings and weighs the hit with the
/// term's TermWeight, so it returns the bits sorted access emits.
class ImpactOrder {
 public:
  struct Entry {
    double weight;
    DocId doc;
    uint32_t tf;
  };
  static_assert(sizeof(Entry) == 16);

  /// One storage component of the order's postings.
  struct Component {
    /// Id of the component's local document 0 in the order's id space.
    uint64_t base = 0;
    /// The component's postings of the term in doc order, local ids.
    const std::vector<Posting>* postings = nullptr;
    /// The same postings' layers (a segment's, whose postings() are
    /// `postings`); null for a memtable component, sorted whole.
    const DominanceLayers* layers = nullptr;
    /// Tombstones by local id; null when none is set.
    const std::vector<uint8_t>* dead = nullptr;
    /// Token count of a local document.
    std::function<uint32_t(DocId)> doc_length;

   private:
    friend class ImpactOrder;
    bool has_layers_left() const {
      return layers != nullptr && scored_layers_ < layers->num_layers();
    }
    /// A segment's scoring state, guarded by the order's extend_mutex_.
    mutable size_t scored_layers_ = 0;
    mutable double threshold_ = 0.0;  ///< heaviest weight of the last one
  };

  /// An empty order (a term with no live posting).
  ImpactOrder();
  /// The order of the `size` live postings of `components` (disjoint,
  /// ascending bases), weighed with `weight`. `owner` keeps alive what the
  /// components point to, for as long as the order or a cursor lives.
  ImpactOrder(const TermWeight& weight, std::vector<Component> components,
              size_t size, std::shared_ptr<const void> owner);
  ImpactOrder(const ImpactOrder&) = delete;
  ImpactOrder& operator=(const ImpactOrder&) = delete;
  ~ImpactOrder();

  /// Number of live postings the order emits in all.
  size_t size() const { return size_; }
  /// The greatest live weight (0 for an empty order): the first posting
  /// sorted access emits, emitted on first use.
  double max_weight() const;

  /// A fresh cursor over `order` (non-null), which it keeps alive.
  static std::unique_ptr<ImpactCursor> OpenCursor(
      std::shared_ptr<const ImpactOrder> order);

 private:
  friend class ImpactOrderCursor;

  /// Scores segment component `c`'s next layer into heap_.
  void ScoreLayer(const Component& c) const;

  /// Extends the emitted prefix to at least min(want, size()) entries and
  /// returns its length; ticks CostCounters::impact_postings by the
  /// postings it scores.
  size_t EmittedAtLeast(size_t want) const;
  /// Entry i of the emitted prefix; requires i below a length that
  /// EmittedAtLeast returned.
  const Entry& emitted(size_t i) const;
  /// The weight of `doc` among the postings the order emits.
  std::optional<double> FindWeight(DocId doc) const;

  TermWeight weight_;
  std::vector<Component> components_;
  size_t size_ = 0;
  std::shared_ptr<const void> owner_;

  mutable std::mutex extend_mutex_;
  /// Scored, unemitted live postings, a heap by impact order: filled by
  /// the first extension and dropped once the order is drained. Guarded
  /// by extend_mutex_.
  mutable std::vector<Entry> heap_;
  /// The emitted prefix in chunks of 4, 4, 8, 16, ... entries: the first
  /// inline, the others in chunks_ (one slot per chunk size() needs, made
  /// with chunk 1). A chunk is allocated by the extension that first
  /// writes into it, before the length that covers it is published.
  mutable Entry first_chunk_[4];
  mutable std::unique_ptr<std::unique_ptr<Entry[]>[]> chunks_;
  mutable std::atomic<size_t> emitted_{0};
};

/// \brief A collection of posting lists addressable by TermId.
///
/// Implementations: InMemoryPostingSource (below) over an InvertedFile,
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
  /// True if MaxImpact and OpenImpactCursor are available for term t.
  virtual bool HasImpacts(TermId t) const = 0;
  /// The term's bound, the one every pruning decision reads: the exact
  /// greatest weight of t's postings (the materialized order's maximum
  /// in memory, the snapshot's under its statistics over a catalog).
  /// Requires HasImpacts.
  virtual double MaxImpact(TermId t) const = 0;
  /// A fresh cursor positioned on t's first posting.
  virtual std::unique_ptr<PostingCursor> OpenCursor(TermId t) const = 0;

  /// Postings of t by descending `model` weight, ties by ascending doc —
  /// exact sorted access, and random access over the same postings
  /// (ImpactCursor::FindWeight). Requires HasImpacts(t) and a model whose
  /// arithmetic matches the source's impact bounds (the same precondition
  /// impact orders always had). InMemoryPostingSource serves its
  /// materialized order and ShardReadView the order its snapshot caches
  /// per (shard, term).
  virtual std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const = 0;
};

/// \brief Zero-copy PostingSource view over an in-memory InvertedFile.
///
/// Cheap to construct (one pointer), so callers holding only an
/// InvertedFile can adapt it on the stack. Impact bounds come from the
/// list's materialized impact order (InvertedFile::BuildImpactOrders); a
/// cursor serves the whole list as a single block.
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
  /// hit with the term's TermWeight under `model`, read when the cursor
  /// opens; `model` must outlive the cursor.
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
