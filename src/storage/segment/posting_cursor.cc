#include "storage/segment/posting_cursor.h"

#include <algorithm>
#include <numeric>
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
  /// list's final doc id (exact, unlike the base-class conservative
  /// default).
  DocId block_last_doc() const override {
    return pos_ < list_->size() ? list_->postings().back().doc : kEndDoc;
  }

 private:
  const PostingList* list_;
  size_t pos_ = 0;
};

/// Impact cursor over a list's materialized impact order (ByImpact /
/// ImpactWeight) — zero extra work, exactly the legacy sorted access —
/// with random access by PostingList::FindTf, a hit weighed by the model.
class MaterializedImpactCursor final : public ImpactCursor {
 public:
  MaterializedImpactCursor(const PostingList* list, TermId term,
                           const ScoringModel& model)
      : list_(list), term_(term), model_(model) {}

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
    return model_.Weight(term_, Posting{doc, *tf});
  }

 private:
  const PostingList* list_;
  TermId term_;
  const ScoringModel& model_;
  size_t pos_ = 0;
};

/// Impact order: weight descending, ties by ascending doc. Doc ids are
/// unique within a list, so this is a strict total order and every lazy
/// sort of a list yields the one order a full sort would.
bool ImpactBefore(const ImpactOrder::Entry& a, const ImpactOrder::Entry& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.doc < b.doc;
}

}  // namespace

/// Cursor over a shared ImpactOrder. `sorted_` caches the prefix length
/// this cursor last loaded: below it, the permutation is final and read
/// without synchronization. Random access reads only the immutable
/// doc-ordered entries.
class ImpactOrderCursor final : public ImpactCursor {
 public:
  explicit ImpactOrderCursor(std::shared_ptr<const ImpactOrder> order)
      : order_(std::move(order)),
        end_(order_->size()),
        sorted_(order_->SortedAtLeast(1)) {}

  DocId doc() const override { return pos_ < end_ ? at().doc : kEndDoc; }
  uint32_t tf() const override { return pos_ < end_ ? at().tf : 0; }
  double weight() const override { return pos_ < end_ ? at().weight : 0.0; }
  void next() override {
    if (pos_ >= end_) return;
    ++pos_;
    if (pos_ < end_ && pos_ >= sorted_) {
      sorted_ = order_->SortedAtLeast(pos_ + 1);
    }
  }
  size_t size() const override { return end_; }
  std::optional<double> FindWeight(DocId doc) const override {
    CostTicker::TickRandom();
    const std::vector<ImpactOrder::Entry>& entries = order_->entries_;
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), doc,
        [](const ImpactOrder::Entry& e, DocId d) { return e.doc < d; });
    if (it == entries.end() || it->doc != doc) return std::nullopt;
    return it->weight;
  }

 private:
  const ImpactOrder::Entry& at() const {
    return order_->entries_[order_->by_impact_[pos_]];
  }

  std::shared_ptr<const ImpactOrder> order_;
  size_t end_;
  size_t sorted_;
  size_t pos_ = 0;
};

std::shared_ptr<const ImpactOrder> ImpactOrder::Builder::Build() {
  CostTicker::TickImpactPostings(static_cast<int64_t>(entries_.size()));
  auto order = std::make_shared<ImpactOrder>();
  order->entries_ = std::move(entries_);
  order->max_weight_ = max_weight_;
  return order;
}

size_t ImpactOrder::SortedAtLeast(size_t want) const {
  const size_t n = entries_.size();
  size_t sorted = sorted_.load(std::memory_order_acquire);
  if (sorted >= want || sorted == n) return sorted;
  std::lock_guard<std::mutex> lock(extend_mutex_);
  sorted = sorted_.load(std::memory_order_relaxed);
  if (sorted < want && by_impact_.empty()) {
    by_impact_.resize(n);
    std::iota(by_impact_.begin(), by_impact_.end(), uint32_t{0});
  }
  const auto before = [this](uint32_t a, uint32_t b) {
    return ImpactBefore(entries_[a], entries_[b]);
  };
  while (sorted < want && sorted < n) {
    const size_t target =
        std::min(n, sorted == 0 ? kFirstChunk : sorted * kGrowth);
    const auto begin = by_impact_.begin();
    if (target < n) {
      std::nth_element(begin + static_cast<ptrdiff_t>(sorted),
                       begin + static_cast<ptrdiff_t>(target),
                       by_impact_.end(), before);
    }
    std::sort(begin + static_cast<ptrdiff_t>(sorted),
              begin + static_cast<ptrdiff_t>(target), before);
    sorted = target;
  }
  sorted_.store(sorted, std::memory_order_release);
  return sorted;
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
