// MOAFRG01 fragment-directory acceptance + negatives, with the same rigor
// as the PR 3 segment negatives: round trip through the writer, lazy
// impact order equal to the materialized one, and rejection of every
// corruption class — truncation at any length, fragment ranges that
// overlap / leave gaps / exceed the term's blocks, impact-order
// violations, corrupted bounds, and a model stamp that disagrees with the
// segment (which must also fail the engine's catalog recovery).
#include "storage/segment/fragment_directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "ir/scoring.h"
#include "storage/catalog/manifest.h"
#include "storage/inverted_file.h"
#include "storage/segment/segment_reader.h"
#include "storage/segment/segment_writer.h"

namespace moa {
namespace {

/// Deterministic collection with enough volume that long terms span many
/// blocks (block size 4) and several fragments (fragment_blocks 2).
struct Fixture {
  InvertedFile file;
  std::unique_ptr<ScoringModel> model;
  std::string segment_path;
  std::string sidecar_path;

  Fixture() {
    InvertedFileBuilder builder(/*num_terms=*/8);
    for (DocId d = 0; d < 400; ++d) {
      std::vector<std::pair<TermId, uint32_t>> terms;
      terms.emplace_back(d % 8, 1 + d % 3);            // short lists
      if (d % 2 == 0) terms.emplace_back(6, 1 + d % 7);  // ~200 postings
      if (d % 3 == 0) terms.emplace_back(7, 1 + d % 5);  // ~134 postings
      // Dedup: term ids 6/7 may repeat via d % 8.
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  terms.end());
      EXPECT_TRUE(builder.AddDocument(d, terms).ok());
    }
    file = builder.Build();
    model = MakeBm25(&file);
    file.BuildImpactOrders(
        [&](TermId t, const Posting& p) { return model->Weight(t, p); });

    segment_path = std::string(::testing::TempDir()) + "/frag.moaseg";
    sidecar_path = FragmentSidecarPath(segment_path);
    SegmentWriterOptions options;
    options.block_size = 4;
    options.fragment_blocks = 2;
    options.impact_fn = [&](TermId t, const Posting& p) {
      return model->Weight(t, p);
    };
    options.impact_model = model->name();
    EXPECT_TRUE(WriteSegment(file, segment_path, options).ok());
  }

  ~Fixture() {
    std::remove(segment_path.c_str());
    std::remove(sidecar_path.c_str());
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Copies the fixture pair into a scratch location and applies `mutate`
/// to the sidecar bytes; returns the scratch segment path.
std::string CorruptedSidecar(
    const char* tag,
    const std::function<void(std::vector<char>&)>& mutate) {
  Fixture& f = SharedFixture();
  const std::string path =
      std::string(::testing::TempDir()) + "/frag_" + tag + ".moaseg";
  std::filesystem::copy_file(
      f.segment_path, path,
      std::filesystem::copy_options::overwrite_existing);
  std::vector<char> bytes = ReadAll(f.sidecar_path);
  mutate(bytes);
  WriteAll(FragmentSidecarPath(path), bytes);
  return path;
}

void ExpectOpenRejects(const std::string& segment_path, const char* label) {
  auto reader = SegmentReader::Open(segment_path);
  EXPECT_FALSE(reader.ok()) << label;
  if (!reader.ok()) {
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument) << label;
  }
  std::remove(segment_path.c_str());
  std::remove(FragmentSidecarPath(segment_path).c_str());
}

/// Sidecar layout offsets for surgical corruption.
struct SidecarMap {
  FragmentFileHeader header;
  std::vector<TermFragEntry> terms;
  std::vector<FragDirEntry> fragments;

  static SidecarMap Parse(const std::vector<char>& bytes) {
    SidecarMap map;
    std::memcpy(&map.header, bytes.data(), sizeof(map.header));
    map.terms.resize(map.header.num_terms);
    std::memcpy(map.terms.data(), bytes.data() + sizeof(map.header),
                map.terms.size() * sizeof(TermFragEntry));
    map.fragments.resize(map.header.num_fragments);
    std::memcpy(map.fragments.data(),
                bytes.data() + sizeof(map.header) +
                    map.terms.size() * sizeof(TermFragEntry),
                map.fragments.size() * sizeof(FragDirEntry));
    return map;
  }

  static size_t FragmentOffset(size_t index) {
    return sizeof(FragmentFileHeader) +
           SharedFixture().file.num_terms() * sizeof(TermFragEntry) +
           index * sizeof(FragDirEntry);
  }

  /// Index (into fragments) of the first fragment of a term with >= 2.
  size_t MultiFragmentTermBegin(uint32_t* count_out) const {
    for (const TermFragEntry& term : terms) {
      if (term.frag_count >= 2) {
        *count_out = term.frag_count;
        return term.frag_begin;
      }
    }
    ADD_FAILURE() << "fixture has no multi-fragment term";
    return 0;
  }
};

TEST(FragmentDirectoryTest, WriterEmitsValidatedSidecar) {
  Fixture& f = SharedFixture();
  ASSERT_TRUE(std::filesystem::exists(f.sidecar_path));
  auto reader = SegmentReader::Open(f.segment_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.ValueOrDie()->has_fragment_directory());
  const FragmentDirectory& dir = reader.ValueOrDie()->fragment_directory();
  EXPECT_EQ(dir.terms.size(), f.file.num_terms());
  // Long terms genuinely fragment (block size 4, two blocks per
  // fragment, ~200 postings -> ~25 fragments).
  EXPECT_GE(dir.terms[6].frag_count, 10u);
}

TEST(FragmentDirectoryTest, LazyImpactOrderEqualsMaterializedOrder) {
  Fixture& f = SharedFixture();
  auto reader = SegmentReader::Open(f.segment_path);
  ASSERT_TRUE(reader.ok());
  for (TermId t = 0; t < f.file.num_terms(); ++t) {
    auto cursor = reader.ValueOrDie()->OpenImpactCursor(t, *f.model);
    const PostingList& list = f.file.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      ASSERT_FALSE(cursor->at_end()) << "term " << t << " rank " << i;
      EXPECT_EQ(cursor->doc(), list.ByImpact(i).doc) << "term " << t;
      EXPECT_EQ(cursor->weight(), list.ImpactWeight(i)) << "term " << t;
      cursor->next();
    }
    EXPECT_TRUE(cursor->at_end()) << "term " << t;
  }
}

TEST(FragmentDirectoryTest, MissingSidecarDegradesToSingleFragment) {
  Fixture& f = SharedFixture();
  const std::string path =
      std::string(::testing::TempDir()) + "/frag_nosidecar.moaseg";
  std::filesystem::copy_file(
      f.segment_path, path,
      std::filesystem::copy_options::overwrite_existing);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.ValueOrDie()->has_fragment_directory());
  auto fragments = reader.ValueOrDie()->OpenFragmentCursor(6);
  EXPECT_EQ(fragments->num_fragments(), 1u);
  // Impact order still exact, just not lazy.
  auto cursor = reader.ValueOrDie()->OpenImpactCursor(6, *f.model);
  EXPECT_EQ(cursor->doc(), f.file.list(6).ByImpact(0).doc);
  std::remove(path.c_str());
}

TEST(FragmentDirectoryTest, RewriteWithoutImpactsDropsStaleSidecar) {
  Fixture& f = SharedFixture();
  const std::string path =
      std::string(::testing::TempDir()) + "/frag_rewrite.moaseg";
  SegmentWriterOptions with;
  with.block_size = 4;
  with.impact_fn = [&](TermId t, const Posting& p) {
    return f.model->Weight(t, p);
  };
  ASSERT_TRUE(WriteSegment(f.file, path, with).ok());
  ASSERT_TRUE(std::filesystem::exists(FragmentSidecarPath(path)));
  // Rewriting the same path without impacts must not leave the old
  // sidecar lying around (it would describe bounds the new segment does
  // not have and fail the open).
  ASSERT_TRUE(WriteSegment(f.file, path, SegmentWriterOptions{}).ok());
  EXPECT_FALSE(std::filesystem::exists(FragmentSidecarPath(path)));
  EXPECT_TRUE(SegmentReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(FragmentDirectoryTest, FragmentBlocksZeroDisablesSidecar) {
  Fixture& f = SharedFixture();
  const std::string path =
      std::string(::testing::TempDir()) + "/frag_disabled.moaseg";
  SegmentWriterOptions options;
  options.block_size = 4;
  options.fragment_blocks = 0;
  options.impact_fn = [&](TermId t, const Posting& p) {
    return f.model->Weight(t, p);
  };
  ASSERT_TRUE(WriteSegment(f.file, path, options).ok());
  EXPECT_FALSE(std::filesystem::exists(FragmentSidecarPath(path)));
  std::remove(path.c_str());
}

TEST(FragmentDirectoryTest, TruncationAtEveryLengthIsRejected) {
  Fixture& f = SharedFixture();
  const std::vector<char> full = ReadAll(f.sidecar_path);
  ASSERT_GT(full.size(), sizeof(FragmentFileHeader));
  // Every proper prefix must fail: the header-derived size is exact.
  for (size_t len = 0; len < full.size();
       len += (len < sizeof(FragmentFileHeader) ? 7 : 129)) {
    const std::string path = CorruptedSidecar(
        "trunc", [len](std::vector<char>& bytes) { bytes.resize(len); });
    ExpectOpenRejects(path, "truncated sidecar");
  }
}

TEST(FragmentDirectoryTest, BadMagicIsRejected) {
  const std::string path = CorruptedSidecar(
      "magic", [](std::vector<char>& bytes) { bytes[0] ^= 0x20; });
  ExpectOpenRejects(path, "bad magic");
}

TEST(FragmentDirectoryTest, OverlappingFragmentRangesAreRejected) {
  // Point the term's second-listed fragment at the first one's block
  // range: same bounds, overlapping coverage -> partition check fires.
  const std::string path =
      CorruptedSidecar("overlap", [](std::vector<char>& bytes) {
        SidecarMap map = SidecarMap::Parse(bytes);
        uint32_t count = 0;
        const size_t begin = map.MultiFragmentTermBegin(&count);
        FragDirEntry second = map.fragments[begin + 1];
        const FragDirEntry& first = map.fragments[begin];
        second.block_begin = first.block_begin;
        second.block_count = first.block_count;
        std::memcpy(bytes.data() + SidecarMap::FragmentOffset(begin + 1),
                    &second, sizeof(second));
      });
  ExpectOpenRejects(path, "overlapping ranges");
}

TEST(FragmentDirectoryTest, RangeBeyondTermBlocksIsRejected) {
  const std::string path =
      CorruptedSidecar("range", [](std::vector<char>& bytes) {
        SidecarMap map = SidecarMap::Parse(bytes);
        uint32_t count = 0;
        const size_t begin = map.MultiFragmentTermBegin(&count);
        FragDirEntry frag = map.fragments[begin];
        frag.block_begin = 1u << 20;  // far past any term's block count
        std::memcpy(bytes.data() + SidecarMap::FragmentOffset(begin), &frag,
                    sizeof(frag));
      });
  ExpectOpenRejects(path, "range beyond blocks");
}

TEST(FragmentDirectoryTest, ImpactOrderViolationIsRejected) {
  // Swap a term's strongest and weakest fragments: the directory is no
  // longer descending in max impact.
  const std::string path =
      CorruptedSidecar("order", [](std::vector<char>& bytes) {
        SidecarMap map = SidecarMap::Parse(bytes);
        uint32_t count = 0;
        const size_t begin = map.MultiFragmentTermBegin(&count);
        // Find two fragments of the term with different bounds (the
        // BM25 weights vary, so the first and last differ).
        const FragDirEntry first = map.fragments[begin];
        const FragDirEntry last = map.fragments[begin + count - 1];
        ASSERT_NE(first.max_impact, last.max_impact)
            << "fixture bounds degenerate";
        std::memcpy(bytes.data() + SidecarMap::FragmentOffset(begin), &last,
                    sizeof(last));
        std::memcpy(
            bytes.data() + SidecarMap::FragmentOffset(begin + count - 1),
            &first, sizeof(first));
      });
  ExpectOpenRejects(path, "impact order violation");
}

TEST(FragmentDirectoryTest, CorruptedBoundIsRejected) {
  // Understating a bound is the dangerous direction (lazy decode would
  // emit out of order); the cross-check against the block directory
  // catches any drift, bit-for-bit.
  const std::string path =
      CorruptedSidecar("bound", [](std::vector<char>& bytes) {
        SidecarMap map = SidecarMap::Parse(bytes);
        uint32_t count = 0;
        const size_t begin = map.MultiFragmentTermBegin(&count);
        FragDirEntry frag = map.fragments[begin];
        frag.max_impact *= 0.5;
        std::memcpy(bytes.data() + SidecarMap::FragmentOffset(begin), &frag,
                    sizeof(frag));
      });
  ExpectOpenRejects(path, "corrupted bound");
}

TEST(FragmentDirectoryTest, ModelMismatchIsRejectedAtOpen) {
  // A sidecar stamped with a different scoring model than the segment:
  // its bounds mean nothing under the serving model. Open must refuse,
  // and so must the engine when it recovers a catalog segment.
  const std::string path =
      CorruptedSidecar("model", [](std::vector<char>& bytes) {
        FragmentFileHeader header;
        std::memcpy(&header, bytes.data(), sizeof(header));
        std::memset(header.impact_model, 0, sizeof(header.impact_model));
        std::snprintf(header.impact_model, sizeof(header.impact_model),
                      "lm(lambda=0.15)");
        std::memcpy(bytes.data(), &header, sizeof(header));
      });
  ExpectOpenRejects(path, "model mismatch (reader)");

  // End-to-end through the engine: a database flushes its collection into
  // a catalog segment with a matching sidecar; once that sidecar is
  // doctored, recovering the catalog on the next process's first mutation
  // must fail (the catalog opens every segment through Open).
  DatabaseConfig config;
  config.collection.num_docs = 200;
  config.collection.vocabulary = 300;
  config.collection.seed = 515253;
  config.catalog_dir = std::string(::testing::TempDir()) + "/frag_catalog";
  std::filesystem::remove_all(config.catalog_dir);
  {
    auto db = MmDatabase::Open(config);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.ValueOrDie()->Flush().ok());
  }
  const std::string sidecar =
      FragmentSidecarPath(config.catalog_dir + "/" + SegmentFileName(1));

  std::vector<char> bytes = ReadAll(sidecar);
  FragmentFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::memset(header.impact_model, 0, sizeof(header.impact_model));
  std::snprintf(header.impact_model, sizeof(header.impact_model),
                "tfidf-log");
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteAll(sidecar, bytes);
  auto db = MmDatabase::Open(config);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.ValueOrDie()->AddDocument({{1, 1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.ValueOrDie()->is_dynamic());
  std::filesystem::remove_all(config.catalog_dir);
}

TEST(FragmentDirectoryTest, SidecarFromAnotherSegmentIsRejected) {
  // A valid sidecar belonging to a *different* collection (other
  // vocabulary size): structural checks pass, cross-validation must not.
  Fixture& f = SharedFixture();
  InvertedFileBuilder builder(/*num_terms=*/3);
  for (DocId d = 0; d < 40; ++d) {
    EXPECT_TRUE(builder.AddDocument(d, {{d % 3, 1}}).ok());
  }
  InvertedFile other = builder.Build();
  auto other_model = MakeBm25(&other);
  const std::string other_path =
      std::string(::testing::TempDir()) + "/frag_other.moaseg";
  SegmentWriterOptions options;
  options.block_size = 4;
  options.fragment_blocks = 2;
  options.impact_fn = [&](TermId t, const Posting& p) {
    return other_model->Weight(t, p);
  };
  options.impact_model = other_model->name();
  ASSERT_TRUE(WriteSegment(other, other_path, options).ok());

  const std::string path =
      std::string(::testing::TempDir()) + "/frag_swapped.moaseg";
  std::filesystem::copy_file(
      f.segment_path, path,
      std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(
      FragmentSidecarPath(other_path), FragmentSidecarPath(path),
      std::filesystem::copy_options::overwrite_existing);
  ExpectOpenRejects(path, "foreign sidecar");
  std::remove(other_path.c_str());
  std::remove(FragmentSidecarPath(other_path).c_str());
}

}  // namespace
}  // namespace moa
