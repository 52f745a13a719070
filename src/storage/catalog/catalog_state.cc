#include "storage/catalog/catalog_state.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/cost_ticker.h"

namespace moa {
namespace {

/// Doc-ordered cursor over a borrowed std::vector<Posting> (the memtable's
/// per-term lists). Local ids; the chained cursor adds the base offset.
class VectorPostingCursor final : public PostingCursor {
 public:
  explicit VectorPostingCursor(const std::vector<Posting>* postings)
      : postings_(postings) {}

  DocId doc() const override {
    return pos_ < postings_->size() ? (*postings_)[pos_].doc : kEndDoc;
  }
  uint32_t tf() const override {
    return pos_ < postings_->size() ? (*postings_)[pos_].tf : 0;
  }
  void next() override {
    if (pos_ < postings_->size()) ++pos_;
  }
  void advance_to(DocId target) override {
    if (doc() >= target) return;
    const auto begin = postings_->begin() + static_cast<ptrdiff_t>(pos_);
    const auto it = std::lower_bound(
        begin, postings_->end(), target,
        [](const Posting& p, DocId d) { return p.doc < d; });
    pos_ = static_cast<size_t>(it - postings_->begin());
  }
  size_t size() const override { return postings_->size(); }
  // The memtable has no precomputed impact metadata; the chained cursor
  // never consults its components' bounds (it serves the snapshot-exact
  // bound itself).
  double block_max_impact() const override { return 0.0; }
  double max_impact() const override { return 0.0; }
  // One uncompressed block spanning the whole list — the exact skip key
  // lets the chained cursor's shallow_advance treat the memtable component
  // like any block-structured one.
  DocId block_last_doc() const override {
    return pos_ < postings_->size() ? postings_->back().doc : kEndDoc;
  }

 private:
  const std::vector<Posting>* postings_;
  size_t pos_ = 0;
};

/// One component of the chained (merged) cursor: a contiguous global-id
/// range served by a segment or by the memtable.
struct Component {
  uint64_t base = 0;
  uint64_t end = 0;  ///< base + local doc count
  const SegmentReader* reader = nullptr;     // null => memtable component
  const std::vector<Posting>* memtable_list = nullptr;
  const std::vector<uint8_t>* deleted = nullptr;  // may be null (no dead)
};

/// Concatenation of per-component cursors with id offsetting and
/// tombstone filtering. Invariant between calls: either exhausted
/// (component index past the end) or the inner cursor sits on a live
/// posting. Component cursors are opened lazily so advance_to across
/// whole segments never decodes their blocks.
class ChainedPostingCursor final : public PostingCursor {
 public:
  ChainedPostingCursor(std::vector<Component> comps, TermId term,
                       uint32_t live_df, double max_impact)
      : comps_(std::move(comps)),
        term_(term),
        live_df_(live_df),
        max_impact_(max_impact) {
    Enter(0);
    SettleOnLive();
  }

  DocId doc() const override {
    if (comp_ >= comps_.size()) return kEndDoc;
    return static_cast<DocId>(comps_[comp_].base + inner_->doc());
  }
  uint32_t tf() const override {
    return comp_ < comps_.size() ? inner_->tf() : 0;
  }
  void next() override {
    if (comp_ >= comps_.size()) return;
    inner_->next();
    SettleOnLive();
  }
  void advance_to(DocId target) override {
    // In the shallow state doc() would force a payload decode just to
    // test the early exit — and the logical position is the start of the
    // current block anyway, so the inner advance below is the real test.
    if (!shallow_ && doc() >= target) return;  // also covers exhaustion
    if (comp_ >= comps_.size()) return;
    shallow_ = false;
    // Skip whole components without opening their cursors.
    size_t i = comp_;
    while (i < comps_.size() && target >= comps_[i].end) ++i;
    if (i != comp_) Enter(i);
    if (comp_ >= comps_.size()) return;
    const uint64_t base = comps_[comp_].base;
    inner_->advance_to(
        target > base ? static_cast<DocId>(target - base) : 0);
    SettleOnLive();
  }
  void shallow_advance(DocId target) override {
    if (comp_ >= comps_.size()) return;
    if (shallow_) {
      if (block_last_doc() >= target) return;  // block already spans it
    } else {
      if (doc() >= target) return;  // deep position already past target
      shallow_ = true;
    }
    size_t i = comp_;
    while (i < comps_.size() && target >= comps_[i].end) ++i;
    if (i != comp_) Enter(i);
    // Shallow-advance within the component; a block-exhausted component
    // (every remaining block ends before the local target) hands over to
    // the next one, whose first block trivially satisfies a target of 0.
    while (comp_ < comps_.size()) {
      const Component& c = comps_[comp_];
      inner_->shallow_advance(
          target > c.base ? static_cast<DocId>(target - c.base) : 0);
      if (inner_->block_last_doc() != kEndDoc) return;
      Enter(comp_ + 1);
    }
  }
  size_t size() const override { return live_df_; }
  /// The snapshot-exact term bound is the only impact metadata the merged
  /// view serves; it upper-bounds every block trivially. Stored per-block
  /// bounds would be tighter but are stale under moved live statistics
  /// (BM25/LM weights do not factorize), so the merged cursor's win from
  /// shallow_advance is decode skipping, not tighter bounds.
  double block_max_impact() const override { return max_impact_; }
  double max_impact() const override { return max_impact_; }
  /// Inner skip key lifted into the global id space. Safe: every inner
  /// implementation returns a real local doc id (< its component's doc
  /// count) or kEndDoc, never the blockless kEndDoc - 1 default.
  DocId block_last_doc() const override {
    if (comp_ >= comps_.size()) return kEndDoc;
    const DocId inner_last = inner_->block_last_doc();
    if (inner_last == kEndDoc) return kEndDoc;
    return static_cast<DocId>(comps_[comp_].base + inner_last);
  }

 private:
  void Enter(size_t i) {
    comp_ = i;
    if (comp_ >= comps_.size()) {
      inner_.reset();
      return;
    }
    const Component& c = comps_[comp_];
    if (c.reader != nullptr) {
      inner_ = c.reader->OpenCursor(term_);
    } else {
      inner_ = std::make_unique<VectorPostingCursor>(c.memtable_list);
    }
  }

  /// Restores the invariant: skip tombstoned postings and exhausted
  /// components until a live posting (or the end) is reached.
  void SettleOnLive() {
    while (comp_ < comps_.size()) {
      if (inner_->at_end()) {
        Enter(comp_ + 1);
        continue;
      }
      const std::vector<uint8_t>* dead = comps_[comp_].deleted;
      if (dead != nullptr && (*dead)[inner_->doc()] != 0) {
        inner_->next();
        continue;
      }
      return;
    }
  }

  std::vector<Component> comps_;
  TermId term_;
  uint32_t live_df_;
  double max_impact_;
  size_t comp_ = 0;
  // True after a shallow_advance: the inner cursor is block-positioned but
  // not settled on a live posting; doc()/next() need a deep advance first
  // (the PostingCursor contract for the shallow state).
  bool shallow_ = false;
  std::unique_ptr<PostingCursor> inner_;
};

}  // namespace

void CatalogStats::Apply(const DocTerms& terms, int direction) {
  int64_t tokens = 0;
  for (const auto& [t, tf] : terms) {
    df[t] += static_cast<uint32_t>(direction);
    cf[t] += direction * static_cast<int64_t>(tf);
    tokens += tf;
  }
  total_live_tokens += direction * tokens;
  num_live_docs += static_cast<uint64_t>(direction);
}

CatalogState::CatalogState(
    std::vector<std::shared_ptr<const CatalogSegment>> segments,
    std::shared_ptr<const Memtable> memtable,
    std::vector<uint8_t> memtable_deleted, CatalogStats stats,
    uint64_t version)
    : segments_(std::move(segments)),
      memtable_(std::move(memtable)),
      memtable_deleted_(std::move(memtable_deleted)),
      stats_(std::move(stats)),
      version_(version) {
  assert(memtable_ != nullptr);
  assert(memtable_deleted_.size() == memtable_->num_docs());
  for (uint8_t d : memtable_deleted_) memtable_has_dead_ |= (d != 0);
  base_.reserve(segments_.size() + 1);
  uint64_t base = 0;
  for (const auto& seg : segments_) {
    base_.push_back(base);
    base += seg->num_docs();
  }
  base_.push_back(base);  // memtable base
}

std::pair<size_t, DocId> CatalogState::Locate(DocId g) const {
  assert(g < doc_space());
  // Last component whose base is <= g.
  const auto it = std::upper_bound(base_.begin(), base_.end(),
                                   static_cast<uint64_t>(g));
  const size_t comp = static_cast<size_t>(it - base_.begin()) - 1;
  return {comp, static_cast<DocId>(g - base_[comp])};
}

uint32_t CatalogState::DocLength(DocId g) const {
  const auto [comp, local] = Locate(g);
  if (comp == segments_.size()) return memtable_->DocLength(local);
  return segments_[comp]->reader->DocLength(local);
}

bool CatalogState::IsDeleted(DocId g) const {
  const auto [comp, local] = Locate(g);
  if (comp == segments_.size()) return memtable_deleted_[local] != 0;
  const auto& dead = segments_[comp]->deleted;
  return !dead.empty() && dead[local] != 0;
}

const DocTerms& CatalogState::TermsOf(DocId g) const {
  const auto [comp, local] = Locate(g);
  if (comp == segments_.size()) return memtable_->doc_terms(local);
  return segments_[comp]->fwd->doc(local);
}

std::vector<DocId> CatalogState::LiveDocIds() const {
  std::vector<DocId> live;
  live.reserve(static_cast<size_t>(stats_.num_live_docs));
  const uint64_t space = doc_space();
  for (uint64_t g = 0; g < space; ++g) {
    if (!IsDeleted(static_cast<DocId>(g))) {
      live.push_back(static_cast<DocId>(g));
    }
  }
  return live;
}

std::unique_ptr<PostingCursor> CatalogState::OpenMergedCursor(
    TermId t, double max_impact) const {
  std::vector<Component> comps;
  for (size_t i = 0; i < segments_.size(); ++i) {
    const CatalogSegment& seg = *segments_[i];
    if (seg.reader->DocFrequency(t) == 0) continue;
    Component c;
    c.base = base_[i];
    c.end = base_[i] + seg.num_docs();
    c.reader = seg.reader.get();
    c.deleted = seg.num_deleted > 0 ? &seg.deleted : nullptr;
    comps.push_back(c);
  }
  if (!memtable_->postings(t).empty()) {
    Component c;
    c.base = base_.back();
    c.end = base_.back() + memtable_->num_docs();
    c.memtable_list = &memtable_->postings(t);
    c.deleted = memtable_has_dead_ ? &memtable_deleted_ : nullptr;
    comps.push_back(c);
  }
  return std::make_unique<ChainedPostingCursor>(std::move(comps), t,
                                                stats_.df[t], max_impact);
}

ImpactOrder::Builder CatalogState::ScoreLivePostings(
    TermId t, const TermWeight& weight) const {
  ImpactOrder::Builder order(weight, stats_.df[t]);
  for (size_t i = 0; i < segments_.size(); ++i) {
    const CatalogSegment& seg = *segments_[i];
    if (seg.reader->DocFrequency(t) == 0) continue;
    const SegmentReader& reader = *seg.reader;
    const auto doc_length = [&reader](DocId d) { return reader.DocLength(d); };
    const std::vector<uint8_t>* dead =
        seg.num_deleted > 0 ? &seg.deleted : nullptr;
    const std::unique_ptr<PostingCursor> blocks = reader.OpenCursor(t);
    const DocId* docs;
    const uint32_t* tfs;
    while (const size_t n = blocks->block_postings(&docs, &tfs)) {
      order.Add(
          base_[i], n, [&](size_t j) { return Posting{docs[j], tfs[j]}; },
          dead, doc_length);
      blocks->shallow_advance(blocks->block_last_doc() + 1);
    }
  }
  const std::vector<Posting>& list = memtable_->postings(t);
  const Memtable& memtable = *memtable_;
  order.Add(
      base_.back(), list.size(), [&list](size_t j) { return list[j]; },
      memtable_has_dead_ ? &memtable_deleted_ : nullptr,
      [&memtable](DocId d) { return memtable.DocLength(d); });
  return order;
}

std::string CatalogState::Describe() const {
  std::ostringstream os;
  os << "catalog v" << version_ << ": memtable(" << memtable_->num_docs()
     << " docs";
  uint32_t mt_dead = 0;
  for (uint8_t d : memtable_deleted_) mt_dead += (d != 0) ? 1 : 0;
  if (mt_dead > 0) os << ", " << mt_dead << " tombstoned";
  os << ")";
  if (!segments_.empty()) {
    os << " + segments[";
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (i > 0) os << ", ";
      os << "seg " << segments_[i]->id << ": " << segments_[i]->num_docs()
         << " docs " << kSegmentMagic;
      if (segments_[i]->num_deleted > 0) {
        os << " (" << segments_[i]->num_deleted << " tombstoned)";
      }
    }
    os << "]";
  }
  os << " — " << stats_.num_live_docs << " live docs, merged cursor over "
     << (segments_.size() + (memtable_->num_docs() > 0 ? 1 : 0))
     << " component(s)";
  return os.str();
}

CatalogComposition CatalogState::Composition() const {
  CatalogComposition c;
  c.num_segments = segments_.size();
  c.memtable_slots = memtable_->num_docs();
  for (const auto& seg : segments_) {
    c.segment_slots += seg->num_docs();
    c.dead_slots += seg->num_deleted;
  }
  for (uint8_t d : memtable_deleted_) c.dead_slots += (d != 0) ? 1 : 0;
  return c;
}

}  // namespace moa
