#include "storage/segment/posting_cursor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <vector>

#include "common/cost_ticker.h"
#include "ir/scoring.h"

namespace moa {
namespace {

/// Cursor over a doc-sorted std::vector<Posting>. advance_to binary
/// searches the remaining suffix, matching the O(log n) probe cost of
/// PostingList::FindTf.
class InMemoryPostingCursor final : public PostingCursor {
 public:
  explicit InMemoryPostingCursor(const PostingList* list) : list_(list) {}

  DocId doc() const override {
    return pos_ < list_->size() ? (*list_)[pos_].doc : kEndDoc;
  }
  uint32_t tf() const override {
    return pos_ < list_->size() ? (*list_)[pos_].tf : 0;
  }
  void next() override {
    if (pos_ < list_->size()) ++pos_;
  }
  void advance_to(DocId target) override {
    if (doc() >= target) return;
    const auto& postings = list_->postings();
    auto it = std::lower_bound(
        postings.begin() + static_cast<ptrdiff_t>(pos_), postings.end(),
        target, [](const Posting& p, DocId d) { return p.doc < d; });
    pos_ = static_cast<size_t>(it - postings.begin());
  }
  size_t size() const override { return list_->size(); }
  /// One uncompressed block spanning the whole list: its skip key is the
  /// list's final doc id.
  DocId block_last_doc() const override {
    return pos_ < list_->size() ? list_->postings().back().doc : kEndDoc;
  }

 private:
  const PostingList* list_;
  size_t pos_ = 0;
};

/// Impact cursor over a list's materialized impact order (ByImpact /
/// ImpactWeight) — zero extra work, exactly the legacy sorted access —
/// with random access by PostingList::FindTf, a hit weighed with the
/// term's TermWeight, read once when the cursor opens (Weight's bits).
class MaterializedImpactCursor final : public ImpactCursor {
 public:
  MaterializedImpactCursor(const PostingList* list, TermId term,
                           const ScoringModel& model)
      : list_(list), weight_(model.ForTerm(term)), stats_(model.stats()) {}

  DocId doc() const override {
    return pos_ < list_->size() ? list_->ByImpact(pos_).doc : kEndDoc;
  }
  uint32_t tf() const override {
    return pos_ < list_->size() ? list_->ByImpact(pos_).tf : 0;
  }
  double weight() const override {
    return pos_ < list_->size() ? list_->ImpactWeight(pos_) : 0.0;
  }
  void next() override {
    if (pos_ < list_->size()) ++pos_;
  }
  size_t size() const override { return list_->size(); }
  std::optional<double> FindWeight(DocId doc) const override {
    const std::optional<uint32_t> tf = list_->FindTf(doc);
    if (!tf.has_value()) return std::nullopt;
    return weight_(*tf, stats_.DocLength(doc));
  }

 private:
  const PostingList* list_;
  TermWeight weight_;
  const CollectionStatsView& stats_;
  size_t pos_ = 0;
};

/// Impact order: weight descending, ties by ascending doc. Doc ids are
/// unique within an order, so this is a strict total order.
bool ImpactBefore(const ImpactOrder::Entry& a, const ImpactOrder::Entry& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.doc < b.doc;
}

/// Heap comparator: the front of a std heap is the first in impact order.
bool ImpactAfter(const ImpactOrder::Entry& a, const ImpactOrder::Entry& b) {
  return ImpactBefore(b, a);
}

/// The emitted prefix's chunks: chunk 0, ImpactOrder::first_chunk_, holds
/// entries [0, 4); chunk k > 0 holds [4 << (k - 1), 4 << k). Extensions
/// double the prefix, so it fills its chunks.
constexpr size_t kChunkShift = 2;
size_t ChunkOf(size_t i) {
  return static_cast<size_t>(std::bit_width(i >> kChunkShift));
}
size_t ChunkStart(size_t k) {
  return k == 0 ? 0 : size_t{1} << (k - 1 + kChunkShift);
}
size_t ChunkSize(size_t k) {
  return k == 0 ? size_t{1} << kChunkShift : ChunkStart(k);
}

/// The first of `postings` whose doc is >= `doc`, or the end. Branch-free,
/// with both of the next step's probes prefetched: random access reads
/// long-lived layers that are seldom in cache, and this overlaps the
/// misses of consecutive steps.
const Posting* LowerBound(const std::vector<Posting>& postings, DocId doc) {
  const Posting* base = postings.data();
  size_t n = postings.size();
  if (n == 0) return base;
  while (n > 1) {
    const size_t half = n / 2;
    __builtin_prefetch(base + half / 2);
    __builtin_prefetch(base + half + half / 2);
    base = base[half].doc < doc ? base + half : base;
    n -= half;
  }
  return base + (base->doc < doc ? 1 : 0);
}

}  // namespace

/// Cursor over a shared ImpactOrder. `emitted_` caches the prefix length
/// this cursor last loaded: below it, entries are final and read without
/// synchronization. `at_` is the current entry, null at the end.
class ImpactOrderCursor final : public ImpactCursor {
 public:
  explicit ImpactOrderCursor(std::shared_ptr<const ImpactOrder> order)
      : order_(std::move(order)), emitted_(order_->EmittedAtLeast(1)) {
    Seek();
  }

  DocId doc() const override { return at_ != nullptr ? at_->doc : kEndDoc; }
  uint32_t tf() const override { return at_ != nullptr ? at_->tf : 0; }
  double weight() const override {
    return at_ != nullptr ? at_->weight : 0.0;
  }
  void next() override {
    if (at_ == nullptr) return;
    if (++pos_ == emitted_) emitted_ = order_->EmittedAtLeast(pos_ + 1);
    Seek();
  }
  size_t size() const override { return order_->size(); }
  std::optional<double> FindWeight(DocId doc) const override {
    CostTicker::TickRandom();
    return order_->FindWeight(doc);
  }

 private:
  void Seek() { at_ = pos_ < emitted_ ? &order_->emitted(pos_) : nullptr; }

  std::shared_ptr<const ImpactOrder> order_;
  size_t emitted_;
  size_t pos_ = 0;
  const ImpactOrder::Entry* at_ = nullptr;
};

DominanceLayers::DominanceLayers(std::vector<Posting> postings,
                                 const std::vector<uint32_t>& lengths)
    : postings_(std::move(postings)) {
  assert(lengths.size() == postings_.size());
  const size_t n = postings_.size();
  CostTicker::TickLayerPostings(static_cast<int64_t>(n));
  struct Point {
    uint32_t tf;
    uint32_t length;
    uint32_t pos;  ///< doc order, so it breaks ties as the doc would
  };
  std::vector<Point> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = Point{postings_[i].tf, lengths[i], static_cast<uint32_t>(i)};
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    if (a.tf != b.tf) return a.tf > b.tf;
    if (a.length != b.length) return a.length < b.length;
    return a.pos < b.pos;
  });
  // Every point seen so far has a tf >= the current one's, so layer j
  // dominates the current point iff its least length is <= the point's.
  std::vector<uint32_t> least_length;  // per layer, never falling
  std::vector<uint32_t> layer_of(n);   // by position in `points`
  for (size_t i = 0; i < n; ++i) {
    const Point& p = points[i];
    if (i > 0 && p.tf == points[i - 1].tf && p.length == points[i - 1].length) {
      layer_of[i] = layer_of[i - 1];
      continue;
    }
    const auto layer = static_cast<size_t>(
        std::upper_bound(least_length.begin(), least_length.end(), p.length) -
        least_length.begin());
    if (layer == least_length.size()) {
      least_length.push_back(p.length);
    } else {
      least_length[layer] = p.length;
    }
    layer_of[i] = static_cast<uint32_t>(layer);
  }
  // Group by layer, stably: a counting sort of the sorted points. The
  // ends of the layers follow the permutation.
  const size_t layers = least_length.size();
  index_.assign(n + layers, 0);
  uint32_t* ends = index_.data() + n;
  for (const uint32_t layer : layer_of) ++ends[layer];  // sizes
  std::vector<uint32_t> fill(layers, 0);  // each layer's next slot
  for (size_t j = 1; j < layers; ++j) fill[j] = fill[j - 1] + ends[j - 1];
  for (size_t j = 0; j < layers; ++j) ends[j] += fill[j];
  for (size_t i = 0; i < n; ++i) index_[fill[layer_of[i]]++] = points[i].pos;
}

ImpactOrder::ImpactOrder() = default;

ImpactOrder::ImpactOrder(const TermWeight& weight,
                         std::vector<Component> components, size_t size,
                         std::shared_ptr<const void> owner)
    : weight_(weight),
      components_(std::move(components)),
      size_(size),
      owner_(std::move(owner)) {}

ImpactOrder::~ImpactOrder() = default;

double ImpactOrder::max_weight() const {
  return EmittedAtLeast(1) > 0 ? emitted(0).weight : 0.0;
}

const ImpactOrder::Entry& ImpactOrder::emitted(size_t i) const {
  const size_t k = ChunkOf(i);
  return (k == 0 ? first_chunk_ : chunks_[k].get())[i - ChunkStart(k)];
}

void ImpactOrder::ScoreLayer(const Component& c) const {
  const std::vector<Posting>& postings = c.layers->postings();
  const uint32_t* begin = c.layers->layer_begin(c.scored_layers_);
  const uint32_t* end = c.layers->layer_end(c.scored_layers_);
  ++c.scored_layers_;
  c.threshold_ = -std::numeric_limits<double>::infinity();
  for (const uint32_t* it = begin; it != end; ++it) {
    const Posting& p = postings[*it];
    const double w = weight_(p.tf, c.doc_length(p.doc));
    c.threshold_ = std::max(c.threshold_, w);
    if (c.dead != nullptr && (*c.dead)[p.doc] != 0) continue;
    heap_.push_back(Entry{w, static_cast<DocId>(c.base + p.doc), p.tf});
    std::push_heap(heap_.begin(), heap_.end(), ImpactAfter);
  }
  CostTicker::TickImpactPostings(end - begin);
}

size_t ImpactOrder::EmittedAtLeast(size_t want) const {
  size_t n = emitted_.load(std::memory_order_acquire);
  if (n >= want || n == size_) return n;
  std::lock_guard<std::mutex> lock(extend_mutex_);
  n = emitted_.load(std::memory_order_relaxed);
  if (n >= want) return n;
  if (n == 0) {
    // First extension: every segment scores its first layer, the memtable
    // every live posting.
    size_t first = 0;
    for (const Component& c : components_) {
      first += c.layers != nullptr
                   ? static_cast<size_t>(c.layers->layer_end(0) -
                                         c.layers->layer_begin(0))
                   : c.postings->size();
    }
    heap_.reserve(first);
    for (const Component& c : components_) {
      if (c.layers != nullptr) {
        ScoreLayer(c);
        continue;
      }
      int64_t live = 0;
      for (const Posting& p : *c.postings) {
        if (c.dead != nullptr && (*c.dead)[p.doc] != 0) continue;
        heap_.push_back(Entry{weight_(p.tf, c.doc_length(p.doc)),
                              static_cast<DocId>(c.base + p.doc), p.tf});
        std::push_heap(heap_.begin(), heap_.end(), ImpactAfter);
        ++live;
      }
      CostTicker::TickImpactPostings(live);
    }
  }
  const size_t target = std::min(size_, std::max(want, 2 * n));
  while (n < target) {
    // The segment with layers left whose threshold is greatest: while the
    // heap's best does not outweigh it strictly, it scores on.
    const Component* blocking = nullptr;
    for (const Component& c : components_) {
      if (c.has_layers_left() &&
          (blocking == nullptr || c.threshold_ > blocking->threshold_)) {
        blocking = &c;
      }
    }
    if (blocking != nullptr &&
        (heap_.empty() || heap_.front().weight <= blocking->threshold_)) {
      ScoreLayer(*blocking);
      continue;
    }
    if (heap_.empty()) break;
    std::pop_heap(heap_.begin(), heap_.end(), ImpactAfter);
    const size_t k = ChunkOf(n);
    if (k > 0) {
      if (chunks_ == nullptr) {
        chunks_ = std::make_unique<std::unique_ptr<Entry[]>[]>(
            ChunkOf(size_ - 1) + 1);
      }
      if (chunks_[k] == nullptr) {
        chunks_[k] = std::make_unique<Entry[]>(ChunkSize(k));
      }
    }
    (k == 0 ? first_chunk_ : chunks_[k].get())[n - ChunkStart(k)] =
        heap_.back();
    heap_.pop_back();
    ++n;
  }
  assert(n == target);
  if (n == size_) {
    heap_ = {};
  } else if (heap_.capacity() > 2 * heap_.size()) {
    heap_.shrink_to_fit();  // the order may stay at this length for long
  }
  emitted_.store(n, std::memory_order_release);
  return n;
}

std::optional<double> ImpactOrder::FindWeight(DocId doc) const {
  // The last component whose base is <= doc.
  auto it = std::upper_bound(
      components_.begin(), components_.end(), doc,
      [](DocId d, const Component& c) { return d < c.base; });
  if (it == components_.begin()) return std::nullopt;
  const Component& c = *--it;
  const auto local = static_cast<DocId>(doc - c.base);
  const Posting* hit = LowerBound(*c.postings, local);
  if (hit == c.postings->data() + c.postings->size() || hit->doc != local) {
    return std::nullopt;
  }
  if (c.dead != nullptr && (*c.dead)[local] != 0) return std::nullopt;
  return weight_(hit->tf, c.doc_length(local));
}

std::unique_ptr<ImpactCursor> ImpactOrder::OpenCursor(
    std::shared_ptr<const ImpactOrder> order) {
  return std::make_unique<ImpactOrderCursor>(std::move(order));
}

std::unique_ptr<PostingCursor> InMemoryPostingSource::OpenCursor(
    TermId t) const {
  return std::make_unique<InMemoryPostingCursor>(&file_->list(t));
}

std::unique_ptr<ImpactCursor> InMemoryPostingSource::OpenImpactCursor(
    TermId t, const ScoringModel& model) const {
  return std::make_unique<MaterializedImpactCursor>(&file_->list(t), t, model);
}

}  // namespace moa
