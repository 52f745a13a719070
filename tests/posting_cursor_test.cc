// Cursor-API conformance suite: the PostingCursor contract
// (storage/segment/posting_cursor.h) must hold identically for every
// implementation — the in-memory adapter over an InvertedFile, the lazy
// block-decoding cursor over compressed MOAIF03 segments (at a block size
// small enough that every list spans several blocks, so advance_to
// crosses block boundaries, and at the production default), and the
// catalog's chained/merged tombstone-filtering cursor over a
// segments+memtable snapshot whose live documents equal the reference.
// Every catalog kind is served by IndexCatalog::OpenReadView, a one-shard
// ShardReadView whose sorted access reads the snapshot's impact order,
// emitted from the segments' dominance layers and the memtable; a segment
// kind is a catalog whose one segment holds every reference document, so
// its chained cursor hands each call to the segment's block cursor.
//
// Also here: the ImpactCursor contract (every implementation reproduces
// the in-memory materialized impact order bit-for-bit — docs, tfs and
// weights; term 5's 130 postings outgrow several doublings of the emitted
// prefix, so the catalog orders extend it mid-scan, scoring more layers),
// and its random access (FindWeight finds exactly the postings the cursor
// emits, with the model's weight bit for bit). The layered emission itself
// is checked against a full sort, ties and tombstones included, in
// impact_order_test.cc.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "ir/scoring.h"
#include "storage/catalog/index_catalog.h"
#include "storage/inverted_file.h"
#include "storage/segment/posting_cursor.h"

namespace moa {
namespace {

// Edge-case lists: empty, singleton, exactly one small block (4), one
// posting more than a block, wide gaps/tfs, and a dense run.
const std::vector<std::vector<Posting>>& TermLists() {
  static const std::vector<std::vector<Posting>> lists = [] {
    std::vector<std::vector<Posting>> l(6);
    // term 0: empty.
    l[1] = {{5, 3}};
    l[2] = {{0, 1}, {2, 2}, {4, 1}, {6, 7}};            // == small block size
    l[3] = {{1, 1}, {3, 1}, {5, 2}, {7, 1}, {9, 4}};    // small block + 1
    l[4] = {{0, 1}, {200, 130}, {20000, 1}, {120000, 70000}};  // big gaps/tfs
    for (DocId d = 10; d < 400; d += 3) l[5].push_back({d, 1 + d % 5});
    return l;
  }();
  return lists;
}

/// A directory-backed catalog under the gtest temp root, emptied first.
std::unique_ptr<IndexCatalog> FreshCatalog(const char* name,
                                           uint32_t block_size) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  IndexCatalog::Options options;
  options.num_terms = TermLists().size();
  options.dir = dir;
  options.segment_block_size = block_size;
  return std::move(IndexCatalog::Create(options)).ValueOrDie();
}

/// Builds an InvertedFile whose per-term lists equal TermLists(), with
/// BM25 impact orders (so the in-memory source reports impacts too), and
/// the catalogs that serve the same lists.
struct Fixture {
  using Docs = std::vector<std::vector<std::pair<TermId, uint32_t>>>;

  InvertedFile file;
  std::unique_ptr<ScoringModel> model;
  std::shared_ptr<const ShardReadView> segment4_view;
  std::shared_ptr<const ShardReadView> segment128_view;
  std::unique_ptr<IndexCatalog> catalog;
  std::shared_ptr<const ShardReadView> catalog_view;
  uint64_t catalog_doc_space = 0;

  Fixture() {
    const auto& lists = TermLists();
    DocId num_docs = 0;
    for (const auto& list : lists) {
      if (!list.empty()) num_docs = std::max(num_docs, list.back().doc + 1);
    }
    Docs per_doc(num_docs);
    for (TermId t = 0; t < lists.size(); ++t) {
      for (const Posting& p : lists[t]) per_doc[p.doc].emplace_back(t, p.tf);
    }
    InvertedFileBuilder builder(lists.size());
    for (DocId d = 0; d < num_docs; ++d) {
      EXPECT_TRUE(builder.AddDocument(d, per_doc[d]).ok());
    }
    file = builder.Build();
    model = MakeBm25(&file);
    file.BuildImpactOrders(
        [&](TermId t, const Posting& p) { return model->Weight(t, p); });

    segment4_view = OneSegment("cursor_segment4", 4, per_doc);
    segment128_view = OneSegment("cursor_segment128", 128, per_doc);
    BuildCatalog(per_doc);
  }

  static void AddRange(IndexCatalog& catalog, const Docs& per_doc,
                       size_t begin, size_t end) {
    std::vector<DocTerms> batch;
    for (size_t d = begin; d < end; ++d) {
      batch.emplace_back(per_doc[d].begin(), per_doc[d].end());
    }
    EXPECT_TRUE(catalog.AddDocuments(batch).ok());
  }

  /// The read view of a catalog holding every reference document in one
  /// segment of `block_size` postings per block, under the reference ids;
  /// no memtable, no tombstone. The view outlives the catalog.
  static std::shared_ptr<const ShardReadView> OneSegment(
      const char* name, uint32_t block_size, const Docs& per_doc) {
    auto one = FreshCatalog(name, block_size);
    AddRange(*one, per_doc, 0, per_doc.size());
    EXPECT_TRUE(one->Flush().ok());
    auto view = one->OpenReadView();
    EXPECT_EQ(view->state().segments().size(), 1u);
    EXPECT_EQ(view->state().memtable().num_docs(), 0u);
    return view;
  }

  /// A catalog snapshot whose *live* documents equal the reference under
  /// the same ids: the reference documents spread over a flushed segment
  /// + live memtable postings (so every long list chains across both
  /// component kinds), followed by tail junk documents containing every
  /// term that are tombstoned in the memtable. (Junk must sit at tail
  /// ids to keep live ids equal to the reference's, and flushing it
  /// would sweep the live reference postings out of the memtable too —
  /// segment-side tombstone filtering is exercised by catalog_test,
  /// catalog_parity_test and the lifecycle fuzz harness instead.) The
  /// merged cursors must skip every junk posting.
  void BuildCatalog(const Docs& per_doc) {
    catalog = FreshCatalog("cursor_catalog", 4);
    const size_t split = std::min<size_t>(300, per_doc.size());
    AddRange(*catalog, per_doc, 0, split);
    EXPECT_TRUE(catalog->Flush().ok());
    // The rest of the reference stays *live in the memtable*, so merged
    // cursors chain segment -> memtable mid-list.
    if (split < per_doc.size()) {
      AddRange(*catalog, per_doc, split, per_doc.size());
    }

    DocTerms junk;
    for (TermId t = 0; t < TermLists().size(); ++t) junk.emplace_back(t, 2);
    auto first = catalog->AddDocuments({junk, junk, junk, junk, junk});
    EXPECT_TRUE(first.ok());
    for (DocId d = 0; d < 5; ++d) {
      EXPECT_TRUE(catalog->DeleteDocument(first.ValueOrDie() + d).ok());
    }

    catalog_view = catalog->OpenReadView();
    catalog_doc_space = catalog_view->state().doc_space();
    EXPECT_EQ(catalog_doc_space, per_doc.size() + 5);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

enum class SourceKind {
  kInMemory,
  kSegmentBlock4,
  kSegmentBlock128,
  kCatalog,
};

std::string KindName(const ::testing::TestParamInfo<SourceKind>& info) {
  switch (info.param) {
    case SourceKind::kInMemory: return "InMemory";
    case SourceKind::kSegmentBlock4: return "SegmentBitPacked4";
    case SourceKind::kSegmentBlock128: return "SegmentBitPacked128";
    case SourceKind::kCatalog: return "CatalogMerged";
  }
  return "?";
}

class CursorConformanceTest : public ::testing::TestWithParam<SourceKind> {
 protected:
  const PostingSource& source() const {
    Fixture& f = SharedFixture();
    switch (GetParam()) {
      case SourceKind::kSegmentBlock4: return *f.segment4_view;
      case SourceKind::kSegmentBlock128: return *f.segment128_view;
      case SourceKind::kCatalog: return *f.catalog_view;
      case SourceKind::kInMemory: break;
    }
    static InMemoryPostingSource in_memory(&SharedFixture().file);
    return in_memory;
  }

  /// The catalog's doc-id space includes its tombstoned junk slots.
  size_t expected_num_docs() const {
    Fixture& f = SharedFixture();
    return GetParam() == SourceKind::kCatalog
               ? static_cast<size_t>(f.catalog_doc_space)
               : f.file.num_docs();
  }
};

TEST_P(CursorConformanceTest, SourceShapeMatchesReference) {
  const auto& lists = TermLists();
  EXPECT_EQ(source().num_terms(), lists.size());
  EXPECT_EQ(source().num_docs(), expected_num_docs());
  for (TermId t = 0; t < lists.size(); ++t) {
    EXPECT_EQ(source().DocFrequency(t), lists[t].size()) << "term " << t;
    // Impact availability only matters for terms that have postings (the
    // in-memory impact order of an empty list is vacuously absent).
    if (!lists[t].empty()) {
      EXPECT_TRUE(source().HasImpacts(t)) << "term " << t;
    }
  }
}

TEST_P(CursorConformanceTest, SequentialScanYieldsExactSequence) {
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    auto cursor = source().OpenCursor(t);
    EXPECT_EQ(cursor->size(), lists[t].size());
    for (const Posting& expected : lists[t]) {
      ASSERT_FALSE(cursor->at_end()) << "term " << t;
      EXPECT_EQ(cursor->doc(), expected.doc) << "term " << t;
      EXPECT_EQ(cursor->tf(), expected.tf) << "term " << t;
      cursor->next();
    }
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
    EXPECT_EQ(cursor->doc(), kEndDoc) << "term " << t;
    cursor->next();  // next at end stays at end
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
  }
}

TEST_P(CursorConformanceTest, AdvanceToEveryPresentDocLandsExactly) {
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    for (const Posting& target : lists[t]) {
      auto cursor = source().OpenCursor(t);
      cursor->advance_to(target.doc);
      ASSERT_FALSE(cursor->at_end()) << "term " << t << " doc " << target.doc;
      EXPECT_EQ(cursor->doc(), target.doc);
      EXPECT_EQ(cursor->tf(), target.tf);
    }
  }
}

TEST_P(CursorConformanceTest, AdvanceToAbsentDocLandsOnSuccessor) {
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    for (size_t i = 0; i + 1 < lists[t].size(); ++i) {
      const DocId absent = lists[t][i].doc + 1;
      if (absent == lists[t][i + 1].doc) continue;  // not absent
      auto cursor = source().OpenCursor(t);
      cursor->advance_to(absent);
      ASSERT_FALSE(cursor->at_end());
      EXPECT_EQ(cursor->doc(), lists[t][i + 1].doc) << "term " << t;
    }
  }
}

TEST_P(CursorConformanceTest, AdvancePastLastDocExhausts) {
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    auto cursor = source().OpenCursor(t);
    const DocId past =
        lists[t].empty() ? 0 : lists[t].back().doc + 1;
    cursor->advance_to(past);
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
    auto cursor2 = source().OpenCursor(t);
    cursor2->advance_to(kEndDoc);
    EXPECT_TRUE(cursor2->at_end()) << "term " << t;
  }
}

TEST_P(CursorConformanceTest, AdvanceBackwardsIsANoOp) {
  // Term 5 is long enough to advance into the middle.
  const auto& list = TermLists()[5];
  auto cursor = source().OpenCursor(5);
  const DocId mid = list[list.size() / 2].doc;
  cursor->advance_to(mid);
  ASSERT_EQ(cursor->doc(), mid);
  cursor->advance_to(list.front().doc);  // target < current: must not move
  EXPECT_EQ(cursor->doc(), mid);
  cursor->advance_to(mid);  // target == current: must not move
  EXPECT_EQ(cursor->doc(), mid);
}

TEST_P(CursorConformanceTest, AdvanceAcrossBlockBoundaries) {
  // With block size 4, term 5 (130 postings) spans dozens of blocks; the
  // semantics must be independent of where blocks fall. Walk the
  // reference list and advance to every 2nd doc + 1.
  const auto& list = TermLists()[5];
  auto cursor = source().OpenCursor(5);
  for (size_t i = 0; i + 1 < list.size(); i += 2) {
    cursor->advance_to(list[i].doc + 1);
    ASSERT_FALSE(cursor->at_end()) << "i=" << i;
    EXPECT_EQ(cursor->doc(), list[i + 1].doc) << "i=" << i;
    EXPECT_EQ(cursor->tf(), list[i + 1].tf) << "i=" << i;
  }
}

TEST_P(CursorConformanceTest, MixedNextAndAdvanceInterleave) {
  const auto& list = TermLists()[5];
  auto cursor = source().OpenCursor(5);
  size_t i = 0;
  while (i < list.size()) {
    ASSERT_EQ(cursor->doc(), list[i].doc) << "i=" << i;
    if (i % 3 == 0 && i + 4 < list.size()) {
      i += 4;
      cursor->advance_to(list[i].doc);
    } else {
      ++i;
      cursor->next();
    }
  }
  EXPECT_TRUE(cursor->at_end());
}

TEST_P(CursorConformanceTest, EmptyListIsImmediatelyExhausted) {
  auto cursor = source().OpenCursor(0);
  EXPECT_TRUE(cursor->at_end());
  EXPECT_EQ(cursor->doc(), kEndDoc);
  EXPECT_EQ(cursor->size(), 0u);
  cursor->next();
  cursor->advance_to(42);
  EXPECT_TRUE(cursor->at_end());
}

TEST_P(CursorConformanceTest, ImpactBoundsDominateEveryPosting) {
  // The source's bound must equal the in-memory max weight bit-for-bit
  // (that is what makes max-score pruning representation-agnostic), and
  // dominate the weight of every posting the term's cursor yields.
  Fixture& f = SharedFixture();
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    if (lists[t].empty()) continue;
    const double bound = source().MaxImpact(t);
    EXPECT_EQ(bound, f.file.list(t).max_weight()) << "term " << t;
    for (auto cursor = source().OpenCursor(t); !cursor->at_end();
         cursor->next()) {
      EXPECT_GE(bound, f.model->Weight(t, Posting{cursor->doc(), cursor->tf()}))
          << "term " << t;
    }
  }
}

TEST_P(CursorConformanceTest, FindWeightMatchesReference) {
  // Random access is served by the impact cursor of the term's sorted
  // access: every reference posting is found, wherever the cursor stands,
  // with model.Weight's bits, and nothing else is — not the gaps, not
  // past the end, and on the catalog kinds not the first id past the doc
  // space, nor on the merged kind the tombstoned junk documents, whose
  // postings the snapshot still stores. Every probe ticks exactly one
  // random read.
  Fixture& f = SharedFixture();
  const auto& lists = TermLists();
  const bool catalog = GetParam() != SourceKind::kInMemory;
  for (TermId t = 0; t < lists.size(); ++t) {
    auto cursor = source().OpenImpactCursor(t, *f.model);
    std::vector<DocId> misses;
    DocId prev_end = 0;
    for (const Posting& p : lists[t]) {
      if (p.doc > prev_end) misses.push_back(p.doc - 1);
      prev_end = p.doc + 1;
    }
    misses.push_back(prev_end);
    if (catalog) {
      for (DocId d = static_cast<DocId>(f.file.num_docs());
           d <= expected_num_docs(); ++d) {
        misses.push_back(d);
      }
    }
    // Probe before, while and after the cursor walks the order, so the
    // probes interleave with the lazy sort's extensions.
    for (int pass = 0; pass < 3; ++pass) {
      CostScope scope;
      for (const Posting& p : lists[t]) {
        EXPECT_EQ(cursor->FindWeight(p.doc),
                  std::optional<double>(f.model->Weight(t, p)))
            << "term " << t << " doc " << p.doc << " pass " << pass;
      }
      for (DocId d : misses) {
        EXPECT_FALSE(cursor->FindWeight(d).has_value())
            << "term " << t << " doc " << d << " pass " << pass;
      }
      EXPECT_EQ(scope.Snapshot().random_reads,
                static_cast<int64_t>(lists[t].size() + misses.size()))
          << "term " << t;
      for (size_t i = 0; i < lists[t].size() / 2 && !cursor->at_end(); ++i) {
        cursor->next();
      }
    }
  }
}

TEST_P(CursorConformanceTest, ImpactCursorReproducesMaterializedOrder) {
  // Sorted access must be *identical* across implementations: the same
  // (doc, tf, weight) sequence as the in-memory materialized impact
  // order, weights bit-for-bit — anything weaker would let the Fagin
  // family take different decisions on different storage.
  Fixture& f = SharedFixture();
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    auto cursor = source().OpenImpactCursor(t, *f.model);
    EXPECT_EQ(cursor->size(), lists[t].size()) << "term " << t;
    const PostingList& reference = f.file.list(t);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_FALSE(cursor->at_end()) << "term " << t << " rank " << i;
      EXPECT_EQ(cursor->doc(), reference.ByImpact(i).doc)
          << "term " << t << " rank " << i;
      EXPECT_EQ(cursor->tf(), reference.ByImpact(i).tf)
          << "term " << t << " rank " << i;
      EXPECT_EQ(cursor->weight(), reference.ImpactWeight(i))
          << "term " << t << " rank " << i;
      cursor->next();
    }
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
    cursor->next();  // next at end stays at end
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
    EXPECT_EQ(cursor->doc(), kEndDoc) << "term " << t;
  }
}

TEST_P(CursorConformanceTest, ShallowAdvanceThenDeepAdvanceLandsExactly) {
  // shallow_advance(d) must leave the cursor on a block whose skip key
  // spans d without decoding; the following deep advance_to(d) must land
  // exactly where a direct advance_to(d) would.
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    for (const Posting& target : lists[t]) {
      auto cursor = source().OpenCursor(t);
      cursor->shallow_advance(target.doc);
      ASSERT_NE(cursor->block_last_doc(), kEndDoc)
          << "term " << t << " doc " << target.doc;
      EXPECT_GE(cursor->block_last_doc(), target.doc) << "term " << t;
      cursor->advance_to(target.doc);
      ASSERT_FALSE(cursor->at_end()) << "term " << t;
      EXPECT_EQ(cursor->doc(), target.doc);
      EXPECT_EQ(cursor->tf(), target.tf);
    }
  }
}

TEST_P(CursorConformanceTest, ShallowAdvancePastLastDocBlockExhausts) {
  const auto& lists = TermLists();
  for (TermId t = 0; t < lists.size(); ++t) {
    auto cursor = source().OpenCursor(t);
    const DocId past = lists[t].empty() ? 0 : lists[t].back().doc + 1;
    cursor->shallow_advance(past);
    // Either no block spans the target (exhausted), or the landing block
    // only holds docs the deep cursor filters out (the catalog keeps
    // tombstoned tail docs in its blocks); its skip key must still span
    // the target so the bound stays conservative.
    if (cursor->block_last_doc() != kEndDoc) {
      EXPECT_GE(cursor->block_last_doc(), past) << "term " << t;
    }
    cursor->shallow_advance(kEndDoc);
    EXPECT_EQ(cursor->block_last_doc(), kEndDoc) << "term " << t;
    // A block-exhausted cursor stays exhausted under further shallow or
    // deep movement.
    cursor->shallow_advance(kEndDoc);
    EXPECT_EQ(cursor->block_last_doc(), kEndDoc) << "term " << t;
    cursor->advance_to(0);
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
  }
}

TEST_P(CursorConformanceTest, ShallowAdvanceBackwardsIsANoOp) {
  const auto& list = TermLists()[5];
  auto cursor = source().OpenCursor(5);
  const DocId mid = list[list.size() / 2].doc;
  cursor->shallow_advance(mid);
  const DocId landed = cursor->block_last_doc();
  ASSERT_NE(landed, kEndDoc);
  cursor->shallow_advance(list.front().doc);  // target before the block
  EXPECT_EQ(cursor->block_last_doc(), landed);
  cursor->shallow_advance(mid);  // block already spans the target
  EXPECT_EQ(cursor->block_last_doc(), landed);
}

TEST_P(CursorConformanceTest, ShallowBlockWalkDecodesNoPayload) {
  // Walking a whole list block-by-block through shallow_advance must
  // never decode a block; over block-structured segments it must tick
  // skipped blocks (the in-memory list is one block, so nothing to skip).
  auto cursor = source().OpenCursor(5);
  CostScope scope;
  int hops = 0;
  while (cursor->block_last_doc() != kEndDoc) {
    ASSERT_LT(hops, 1000);  // malformed skip chain guard
    ++hops;
    cursor->shallow_advance(cursor->block_last_doc() + 1);
  }
  const CostCounters used = scope.Snapshot();
  EXPECT_EQ(used.blocks_decoded, 0);
  if (GetParam() != SourceKind::kInMemory) {
    EXPECT_GT(used.blocks_skipped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, CursorConformanceTest,
                         ::testing::Values(SourceKind::kInMemory,
                                           SourceKind::kSegmentBlock4,
                                           SourceKind::kSegmentBlock128,
                                           SourceKind::kCatalog),
                         KindName);

}  // namespace
}  // namespace moa
