// IndexCatalog lifecycle unit tests: memtable semantics, forward-index
// and manifest round trips with corruption negatives, flush/merge/delete
// transitions, tombstone visibility, exact incremental statistics,
// recovery from the manifest, and crash-safety of publication (kill-point
// between segment write and manifest rename leaves a readable catalog).
#include "storage/catalog/index_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "storage/catalog/forward_index.h"
#include "storage/catalog/manifest.h"
#include "storage/segment/segment_format.h"

namespace moa {
namespace {

constexpr size_t kVocab = 64;

/// Fresh per-test directory under the gtest temp root.
std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/catalog_" +
                          name + "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  std::filesystem::remove_all(dir);
  return dir;
}

IndexCatalog::Options MemoryOnly() {
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  return options;
}

IndexCatalog::Options InDir(const std::string& dir) {
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.dir = dir;
  return options;
}

std::unique_ptr<IndexCatalog> MustCreate(const IndexCatalog::Options& opts) {
  auto catalog = IndexCatalog::Create(opts);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return std::move(catalog).ValueOrDie();
}

/// Live (doc, tf) pairs a term's merged cursor yields.
std::vector<Posting> Scan(const CatalogState& state, TermId t) {
  std::vector<Posting> out;
  for (auto c = state.OpenMergedCursor(t); !c->at_end(); c->next()) {
    out.push_back(Posting{c->doc(), c->tf()});
  }
  return out;
}

TEST(MemtableTest, ValidatesDocuments) {
  Memtable mt(kVocab);
  EXPECT_FALSE(mt.AddDocument({{0, 1}, {0, 2}}).ok());   // duplicate term
  EXPECT_FALSE(mt.AddDocument({{kVocab, 1}}).ok());      // out of vocabulary
  EXPECT_FALSE(mt.AddDocument({{1, 0}}).ok());           // zero tf
  EXPECT_EQ(mt.num_docs(), 0u);
  auto id = mt.AddDocument({{5, 2}, {1, 3}});            // any order
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.ValueOrDie(), 0u);
  EXPECT_EQ(mt.DocLength(0), 5u);
  ASSERT_EQ(mt.doc_terms(0).size(), 2u);
  EXPECT_EQ(mt.doc_terms(0)[0].first, 1u);  // sorted
  EXPECT_EQ(mt.postings(5).size(), 1u);
}

TEST(ForwardIndexTest, RoundTripsAndValidates) {
  const std::string dir = FreshDir("fwd");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.fwd";

  ForwardIndex fwd;
  fwd.Append({{0, 1}, {3, 2}, {63, 7}});
  fwd.Append({});
  fwd.Append({{10, 4}});
  ASSERT_TRUE(WriteForwardIndex(fwd, path).ok());

  auto read = ReadForwardIndex(path, 3, kVocab);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const ForwardIndex& got = read.ValueOrDie();
  ASSERT_EQ(got.num_docs(), 3u);
  EXPECT_EQ(got.doc(0), fwd.doc(0));
  EXPECT_TRUE(got.doc(1).empty());
  EXPECT_EQ(got.DocLength(0), 10u);

  // Wrong expected doc count (the sibling segment disagrees).
  EXPECT_FALSE(ReadForwardIndex(path, 4, kVocab).ok());
  // Vocabulary too small for stored term 63.
  EXPECT_FALSE(ReadForwardIndex(path, 3, 16).ok());

  // Truncation sweep: every prefix must fail cleanly, never crash.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    const std::string trunc = dir + "/trunc.fwd";
    std::ofstream out(trunc, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(ReadForwardIndex(trunc, 3, kVocab).ok()) << "cut=" << cut;
  }
}

TEST(ManifestTest, RoundTripsAndValidates) {
  const std::string dir = FreshDir("manifest");
  std::filesystem::create_directories(dir);

  CatalogManifest manifest;
  manifest.next_segment_id = 7;
  manifest.segments.push_back(ManifestSegment{3, 100, {2, 50, 99}});
  manifest.segments.push_back(ManifestSegment{5, 10, {}});
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());

  auto read = ReadManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().next_segment_id, 7u);
  ASSERT_EQ(read.ValueOrDie().segments.size(), 2u);
  EXPECT_EQ(read.ValueOrDie().segments[0].deleted,
            (std::vector<uint32_t>{2, 50, 99}));

  // Tombstone out of range.
  CatalogManifest bad = manifest;
  bad.segments[0].deleted = {100};
  ASSERT_TRUE(WriteManifest(dir, bad).ok());
  EXPECT_FALSE(ReadManifest(dir).ok());

  // Duplicate segment id.
  bad = manifest;
  bad.segments[1].id = 3;
  ASSERT_TRUE(WriteManifest(dir, bad).ok());
  EXPECT_FALSE(ReadManifest(dir).ok());

  // Segment id not below next_segment_id.
  bad = manifest;
  bad.next_segment_id = 5;
  ASSERT_TRUE(WriteManifest(dir, bad).ok());
  EXPECT_FALSE(ReadManifest(dir).ok());

  // Bad magic.
  {
    std::ofstream out(dir + "/" + kManifestFileName,
                      std::ios::binary | std::ios::trunc);
    out << "GARBAGE!" << std::string(16, '\0');
  }
  EXPECT_FALSE(ReadManifest(dir).ok());
}

TEST(IndexCatalogTest, AddDeleteMaintainsExactStats) {
  auto catalog = MustCreate(MemoryOnly());
  ASSERT_TRUE(catalog->AddDocument({{1, 2}, {2, 1}}).ok());   // id 0, len 3
  ASSERT_TRUE(catalog->AddDocument({{1, 1}, {3, 4}}).ok());   // id 1, len 5
  ASSERT_TRUE(catalog->AddDocument({{2, 3}}).ok());           // id 2, len 3

  auto state = catalog->Snapshot();
  EXPECT_EQ(state->stats().num_live_docs, 3u);
  EXPECT_EQ(state->stats().total_live_tokens, 11);
  EXPECT_EQ(state->stats().df[1], 2u);
  EXPECT_EQ(state->stats().cf[1], 3);
  EXPECT_EQ(state->stats().df[2], 2u);
  EXPECT_EQ(state->doc_space(), 3u);

  ASSERT_TRUE(catalog->DeleteDocument(0).ok());
  state = catalog->Snapshot();
  EXPECT_EQ(state->stats().num_live_docs, 2u);
  EXPECT_EQ(state->stats().total_live_tokens, 8);
  EXPECT_EQ(state->stats().df[1], 1u);
  EXPECT_EQ(state->stats().cf[1], 1);
  EXPECT_EQ(state->stats().df[2], 1u);
  // The slot remains; the document is invisible.
  EXPECT_EQ(state->doc_space(), 3u);
  EXPECT_TRUE(state->IsDeleted(0));
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{1, 1}}));
  EXPECT_EQ(Scan(*state, 2), (std::vector<Posting>{{2, 3}}));

  // Double delete and bogus ids are errors.
  EXPECT_EQ(catalog->DeleteDocument(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog->DeleteDocument(3).code(), StatusCode::kInvalidArgument);

  // In-flight snapshots are unaffected by later mutations.
  auto before = catalog->Snapshot();
  ASSERT_TRUE(catalog->DeleteDocument(2).ok());
  EXPECT_EQ(Scan(*before, 2), (std::vector<Posting>{{2, 3}}));
  EXPECT_TRUE(Scan(*catalog->Snapshot(), 2).empty());
}

TEST(IndexCatalogTest, MemoryOnlyCatalogRefusesFlushAndMerge) {
  auto catalog = MustCreate(MemoryOnly());
  ASSERT_TRUE(catalog->AddDocument({{1, 1}}).ok());
  EXPECT_EQ(catalog->Flush().code(), StatusCode::kFailedPrecondition);
  // With no segments a merge is a plain no-op; a non-empty run would need
  // somewhere to write.
  auto merged = catalog->Merge();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.ValueOrDie(), 0u);
}

TEST(IndexCatalogTest, FlushMergeReopenLifecycle) {
  const std::string dir = FreshDir("lifecycle");
  auto catalog = MustCreate(InDir(dir));

  // Batch 1 -> segment 1 (one tombstone carried into the flush).
  ASSERT_TRUE(catalog->AddDocuments({{{1, 2}}, {{1, 1}, {2, 2}}, {{3, 3}}})
                  .ok());
  ASSERT_TRUE(catalog->DeleteDocument(1).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  // Flushing an empty memtable is a no-op.
  ASSERT_TRUE(catalog->Flush().ok());

  auto state = catalog->Snapshot();
  ASSERT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->segments()[0]->num_deleted, 1u);
  EXPECT_TRUE(state->memtable().empty());
  EXPECT_EQ(state->doc_space(), 3u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{0, 2}}));

  // Batch 2 -> segment 2; then a segment-level delete in segment 1.
  ASSERT_TRUE(catalog->AddDocuments({{{2, 5}}, {{1, 7}}}).ok());  // ids 3, 4
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->DeleteDocument(2).ok());  // seg-1 doc {3,3}
  state = catalog->Snapshot();
  ASSERT_EQ(state->segments().size(), 2u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{0, 2}, {4, 7}}));
  EXPECT_TRUE(Scan(*state, 3).empty());
  EXPECT_EQ(state->stats().num_live_docs, 3u);

  // Reopen from disk: identical live view (memtable was empty).
  {
    auto reopened = IndexCatalog::Open(InDir(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto rstate = reopened.ValueOrDie()->Snapshot();
    EXPECT_EQ(rstate->doc_space(), state->doc_space());
    EXPECT_EQ(rstate->stats().num_live_docs, 3u);
    EXPECT_EQ(rstate->stats().df[1], state->stats().df[1]);
    EXPECT_EQ(Scan(*rstate, 1), Scan(*state, 1));
    EXPECT_TRUE(Scan(*rstate, 3).empty());
  }

  // Merge everything: tombstones drop, ids compact (0,3,4 -> 0,1,2),
  // live statistics unchanged.
  const CatalogStats before_stats = state->stats();
  auto merged = catalog->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.ValueOrDie(), 2u);
  state = catalog->Snapshot();
  ASSERT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->doc_space(), 3u);
  EXPECT_EQ(state->segments()[0]->num_deleted, 0u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{0, 2}, {2, 7}}));
  EXPECT_EQ(Scan(*state, 2), (std::vector<Posting>{{1, 5}}));
  EXPECT_EQ(state->stats().df, before_stats.df);
  EXPECT_EQ(state->stats().cf, before_stats.cf);
  EXPECT_EQ(state->stats().num_live_docs, before_stats.num_live_docs);

  // The merged catalog reopens too (and the retired files are gone).
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Scan(*reopened.ValueOrDie()->Snapshot(), 1),
            (std::vector<Posting>{{0, 2}, {2, 7}}));
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + SegmentFileName(1)));
}

TEST(IndexCatalogTest, MergedCursorAdvanceToHonorsContract) {
  // Three components (two segments + memtable) with tombstones sprinkled
  // in each; advance_to must land on the first *live* posting >= target
  // from any starting position, including cross-component skips —
  // exactly the contract the conformance suite pins for single-source
  // cursors.
  const std::string dir = FreshDir("advance");
  auto catalog = MustCreate(InDir(dir));
  const TermId t = 9;
  auto add_block = [&](uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      // Every doc holds term 9; odd docs also hold term 3.
      DocTerms terms = {{t, 1 + i % 3}};
      if (i % 2 == 1) terms.push_back({3, 1});
      ASSERT_TRUE(catalog->AddDocument(terms).ok());
    }
  };
  add_block(12);
  ASSERT_TRUE(catalog->Flush().ok());
  add_block(9);
  ASSERT_TRUE(catalog->Flush().ok());
  add_block(7);  // stays in the memtable
  for (DocId d : {1u, 5u, 11u, 12u, 20u, 22u, 27u}) {
    ASSERT_TRUE(catalog->DeleteDocument(d).ok());
  }

  const auto state = catalog->Snapshot();
  const std::vector<Posting> live = Scan(*state, t);
  ASSERT_EQ(live.size(), 28u - 7u);

  const DocId space = static_cast<DocId>(state->doc_space());
  for (DocId start = 0; start <= space; ++start) {
    for (DocId target = start; target <= space + 1; ++target) {
      auto cursor = state->OpenMergedCursor(t);
      cursor->advance_to(start);
      cursor->advance_to(target);  // second hop from a moved cursor
      const auto it = std::lower_bound(
          live.begin(), live.end(), target,
          [](const Posting& p, DocId d) { return p.doc < d; });
      if (it == live.end()) {
        EXPECT_TRUE(cursor->at_end()) << "target " << target;
      } else {
        EXPECT_EQ(cursor->doc(), it->doc) << "target " << target;
        EXPECT_EQ(cursor->tf(), it->tf) << "target " << target;
      }
      // Cursors never move backwards.
      cursor->advance_to(0);
      if (it != live.end()) EXPECT_EQ(cursor->doc(), it->doc);
    }
  }

  // advance_to(kEndDoc) exhausts; next() at end stays at end.
  auto cursor = state->OpenMergedCursor(t);
  cursor->advance_to(kEndDoc);
  EXPECT_TRUE(cursor->at_end());
  cursor->next();
  EXPECT_TRUE(cursor->at_end());

  // size() reports the live document frequency.
  EXPECT_EQ(state->OpenMergedCursor(t)->size(), live.size());
  EXPECT_EQ(state->OpenMergedCursor(3)->size(), state->stats().df[3]);
}

TEST(IndexCatalogTest, SegmentDeleteIsDurable) {
  const std::string dir = FreshDir("durable_delete");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocuments({{{1, 1}}, {{1, 2}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->DeleteDocument(0).ok());

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_TRUE(state->IsDeleted(0));
  EXPECT_EQ(state->stats().num_live_docs, 1u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{1, 2}}));
}

TEST(IndexCatalogTest, MergePolicySelectsAdjacentRun) {
  const std::string dir = FreshDir("policy");
  auto catalog = MustCreate(InDir(dir));
  // Three single-doc segments; delete the middle segment's doc.
  for (uint32_t tf = 1; tf <= 3; ++tf) {
    ASSERT_TRUE(catalog->AddDocument({{1, tf}}).ok());
    ASSERT_TRUE(catalog->Flush().ok());
  }
  ASSERT_TRUE(catalog->DeleteDocument(1).ok());

  // Merge only the first two segments: the third keeps its identity but
  // its documents' ids shift down past the dropped tombstone.
  MergePolicy policy;
  policy.first = 0;
  policy.count = 2;
  auto merged = catalog->Merge(policy);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.ValueOrDie(), 2u);
  auto state = catalog->Snapshot();
  ASSERT_EQ(state->segments().size(), 2u);
  EXPECT_EQ(state->doc_space(), 2u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{0, 1}, {1, 3}}));

  // Out-of-range runs are rejected.
  policy.first = 1;
  policy.count = 5;
  EXPECT_EQ(catalog->Merge(policy).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IndexCatalogTest, CrashBetweenSegmentWriteAndManifestIsSafe) {
  const std::string dir = FreshDir("crash");
  auto fail_point = std::make_shared<std::string>();
  IndexCatalog::Options options = InDir(dir);
  options.fault_injector = [fail_point](const std::string& point) {
    if (point == *fail_point) {
      return Status::Internal("injected crash at " + point);
    }
    return Status::OK();
  };
  auto catalog = MustCreate(options);

  ASSERT_TRUE(catalog->AddDocuments({{{1, 1}}, {{2, 2}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->AddDocument({{1, 5}}).ok());  // id 2

  // Kill point: the flushed segment files exist on disk, but the
  // manifest never switches. The in-memory catalog refuses the flush...
  *fail_point = "flush:segment-written";
  EXPECT_FALSE(catalog->Flush().ok());
  auto state = catalog->Snapshot();
  EXPECT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->memtable().num_docs(), 1u);
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{0, 1}, {2, 5}}));

  // ...and a recovery (the "restarted process") sees the last published
  // manifest state — one segment, orphaned flush files ignored — plus the
  // unflushed document, replayed from the WAL the manifest names. Before
  // the WAL this document was lost with the memtable.
  {
    auto reopened = IndexCatalog::Open(InDir(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto rstate = reopened.ValueOrDie()->Snapshot();
    EXPECT_EQ(rstate->segments().size(), 1u);
    EXPECT_EQ(rstate->doc_space(), 3u);
    EXPECT_EQ(rstate->stats().num_live_docs, 3u);
    EXPECT_EQ(Scan(*rstate, 1), (std::vector<Posting>{{0, 1}, {2, 5}}));
  }

  // Retrying after the "transient" failure succeeds and reuses the id.
  *fail_point = "";
  ASSERT_TRUE(catalog->Flush().ok());
  EXPECT_EQ(catalog->Snapshot()->segments().size(), 2u);

  // Same kill point for merge: state and disk stay on the old manifest.
  *fail_point = "merge:segment-written";
  EXPECT_FALSE(catalog->Merge().ok());
  EXPECT_EQ(catalog->Snapshot()->segments().size(), 2u);
  {
    auto reopened = IndexCatalog::Open(InDir(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->segments().size(), 2u);
  }
  *fail_point = "";
  auto merged = catalog->Merge();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.ValueOrDie(), 2u);
  EXPECT_EQ(Scan(*catalog->Snapshot(), 1),
            (std::vector<Posting>{{0, 1}, {2, 5}}));
}

TEST(IndexCatalogTest, OpenRejectsTamperedSidecar) {
  const std::string dir = FreshDir("tamper");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocuments({{{1, 1}}, {{2, 2}, {3, 1}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  catalog.reset();

  // Replace the sidecar with one whose compositions disagree with the
  // segment: recovery must refuse rather than serve skewed statistics.
  ForwardIndex wrong;
  wrong.Append({{1, 1}});
  wrong.Append({{2, 3}, {3, 1}});  // tf drifted
  ASSERT_TRUE(WriteForwardIndex(wrong, dir + "/" + ForwardFileName(1)).ok());
  EXPECT_FALSE(IndexCatalog::Open(InDir(dir)).ok());
}

TEST(IndexCatalogTest, OpenRejectsPayloadBitRot) {
  // One flipped payload byte is invisible to the structural validation in
  // SegmentReader::Open; without the open-time integrity pass it would
  // silently truncate a posting list and serve wrong top-N results.
  const std::string dir = FreshDir("rot");
  auto catalog = MustCreate(InDir(dir));
  std::vector<DocTerms> docs;
  for (uint32_t d = 0; d < 200; ++d) {
    docs.push_back({{1, 1 + d % 3}, {2 + d % 7, 2}, {20 + d % 11, 1}});
  }
  ASSERT_TRUE(catalog->AddDocuments(docs).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  catalog.reset();
  ASSERT_TRUE(IndexCatalog::Open(InDir(dir)).ok());

  const std::string path = dir + "/" + SegmentFileName(1);
  SegmentHeader header{};
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.read(reinterpret_cast<char*>(&header), sizeof(header));
  const SegmentLayout layout(header);
  fs.seekg(static_cast<std::streamoff>(layout.payload + 3));
  char byte = 0;
  fs.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  fs.seekp(static_cast<std::streamoff>(layout.payload + 3));
  fs.write(&byte, 1);
  fs.close();

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexCatalogTest, OpenRejectsRetiredSegmentFormat) {
  // Catalogs whose segments carry the retired varbyte magic do not stay
  // readable: recovery must fail with a clear status, never misread them.
  const std::string dir = FreshDir("retired");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocuments({{{1, 1}}, {{2, 2}, {3, 1}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  catalog.reset();
  ASSERT_TRUE(IndexCatalog::Open(InDir(dir)).ok());

  std::fstream fs(dir + "/" + SegmentFileName(1),
                  std::ios::binary | std::ios::in | std::ios::out);
  fs.write("MOAIF02", 8);  // the literal's NUL fills the eighth byte
  fs.close();
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexCatalogTest, StrayFragmentSidecarIsIgnoredAndReclaimed) {
  // Older versions wrote a `<segment>.frg` fragment directory next to
  // every segment. Open must ignore it — this one is not even readable —
  // and a merge that drops the segment must unlink it with the segment.
  const std::string dir = FreshDir("stray_frg");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocuments({{{1, 2}}, {{1, 1}, {2, 2}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->AddDocuments({{{2, 5}}, {{1, 7}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  catalog.reset();
  const std::string stray = dir + "/" + SegmentFileName(1) + ".frg";
  std::ofstream(stray, std::ios::binary) << "not a fragment directory";

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  catalog = std::move(reopened).ValueOrDie();
  EXPECT_EQ(Scan(*catalog->Snapshot(), 1),
            (std::vector<Posting>{{0, 2}, {1, 1}, {3, 7}}));
  const auto view = catalog->OpenReadView();
  size_t sorted = 0;
  for (auto c = view->OpenImpactCursor(1, *view->model()); !c->at_end();
       c->next()) {
    ++sorted;
  }
  EXPECT_EQ(sorted, 3u);

  auto merged = catalog->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.ValueOrDie(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + SegmentFileName(1)));
  EXPECT_FALSE(std::filesystem::exists(stray));
}

/// What a read view returns for term t: its impact order (doc, tf,
/// weight), its bound, and its merged cursor's postings.
struct ViewRead {
  std::vector<std::tuple<DocId, uint32_t, double>> order;
  double bound = 0.0;
  std::vector<Posting> postings;
};

ViewRead ReadView(const ShardReadView& view, TermId t) {
  ViewRead read;
  for (auto c = view.OpenImpactCursor(t, *view.model()); !c->at_end();
       c->next()) {
    read.order.emplace_back(c->doc(), c->tf(), c->weight());
  }
  read.bound = view.MaxImpact(t);
  for (auto cursor = view.OpenCursor(t); !cursor->at_end(); cursor->next()) {
    read.postings.push_back({cursor->doc(), cursor->tf()});
  }
  return read;
}

TEST(IndexCatalogTest, ReadViewOutlivesItsCatalog) {
  // A read view keeps its snapshot alive: deletes, adds, a flush, a merge
  // that unlinks the view's segment files and the catalog's destruction
  // leave what it returns unchanged. `cold` is first read only after all
  // of that, so its impact orders are scored from the unlinked segments.
  const std::string dir = FreshDir("outlive");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocuments({{{1, 2}, {2, 1}}, {{1, 1}}, {{2, 3}}})
                  .ok());
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->AddDocuments({{{1, 4}, {3, 1}}, {{2, 2}}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  ASSERT_TRUE(catalog->AddDocuments({{{1, 1}, {2, 5}}, {{3, 2}}}).ok());
  ASSERT_TRUE(catalog->DeleteDocument(1).ok());  // in the first segment
  ASSERT_TRUE(catalog->DeleteDocument(5).ok());  // in the memtable
  const auto view = catalog->OpenReadView();
  const auto cold = catalog->OpenReadView();
  ASSERT_EQ(view->state().segments().size(), 2u);
  std::vector<std::string> segment_files;
  for (const auto& segment : view->state().segments()) {
    segment_files.push_back(segment->segment_path);
  }
  std::vector<ViewRead> before;
  for (TermId t = 0; t < 5; ++t) before.push_back(ReadView(*view, t));
  // Term 1's live postings; documents 1 and 5 are tombstoned.
  EXPECT_EQ(before[1].postings, (std::vector<Posting>{{0, 2}, {3, 4}}));
  EXPECT_EQ(before[1].order.size(), 2u);
  EXPECT_GT(before[1].bound, 0.0);

  ASSERT_TRUE(catalog->DeleteDocument(0).ok());
  ASSERT_TRUE(catalog->AddDocument({{1, 9}, {3, 3}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  auto merged = catalog->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.ValueOrDie(), 3u);
  for (const std::string& path : segment_files) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
  catalog.reset();

  for (TermId t = 0; t < 5; ++t) {
    SCOPED_TRACE("term " + std::to_string(t));
    for (const ShardReadView* v : {view.get(), cold.get()}) {
      const ViewRead after = ReadView(*v, t);
      EXPECT_EQ(after.order, before[t].order);
      EXPECT_EQ(after.bound, before[t].bound);
      EXPECT_EQ(after.postings, before[t].postings);
    }
  }
}

TEST(IndexCatalogTest, CreateRefusesExistingCatalogDirectory) {
  const std::string dir = FreshDir("refuse");
  auto catalog = MustCreate(InDir(dir));
  ASSERT_TRUE(catalog->AddDocument({{1, 1}}).ok());
  ASSERT_TRUE(catalog->Flush().ok());
  EXPECT_FALSE(IndexCatalog::Create(InDir(dir)).ok());
}

}  // namespace
}  // namespace moa
