// MOAIF03 segment format: write → mmap-open → decode round trip,
// the block cursor's block-batch walk, compression vs raw posting bytes,
// atomic-write behavior, a property round-trip of random posting blocks
// at the codec level, negative tests for truncated / bit-flipped /
// width-corrupted segment files and for the magic of every other format,
// and segments carrying the impact bounds older writers stamped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/rng.h"
#include "exec/registry.h"
#include "storage/catalog/index_catalog.h"
#include "storage/segment/block_codec.h"
#include "storage/segment/segment_format.h"
#include "storage/segment/segment_reader.h"
#include "storage/segment/segment_writer.h"
#include "test_util.h"

namespace moa {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

const InvertedFile& TestFile() {
  return testutil::SmallCollectionWithImpacts().inverted_file();
}

void ExpectSameFile(const InvertedFile& a, const InvertedFile& b) {
  ASSERT_EQ(a.num_terms(), b.num_terms());
  ASSERT_EQ(a.num_docs(), b.num_docs());
  EXPECT_EQ(a.num_postings(), b.num_postings());
  EXPECT_EQ(a.total_tokens(), b.total_tokens());
  for (DocId d = 0; d < a.num_docs(); ++d) {
    ASSERT_EQ(a.DocLength(d), b.DocLength(d)) << "doc " << d;
  }
  for (TermId t = 0; t < a.num_terms(); ++t) {
    ASSERT_EQ(a.list(t).postings(), b.list(t).postings()) << "term " << t;
  }
}

SegmentHeader ReadHeader(const std::string& path) {
  SegmentHeader header{};
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  return header;
}

/// Every max_impact field of the segment at `path`: the term directory's,
/// then the block directory's.
std::vector<double> StoredBounds(const std::string& path) {
  const SegmentHeader header = ReadHeader(path);
  const SegmentLayout layout(header);
  std::ifstream in(path, std::ios::binary);
  std::vector<double> bounds;
  const auto read = [&](uint64_t offset) {
    double bound = 0;
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(&bound), sizeof(bound));
    bounds.push_back(bound);
  };
  for (uint64_t t = 0; t < header.num_terms; ++t) {
    read(layout.term_dir + t * sizeof(TermDirEntry) +
         offsetof(TermDirEntry, max_impact));
  }
  for (uint64_t b = 0; b < header.num_blocks; ++b) {
    read(layout.block_dir + b * sizeof(BlockDirEntry) +
         offsetof(BlockDirEntry, max_impact));
  }
  return bounds;
}

/// Patches the segment at `path`, which encodes `file`, to carry impact
/// metadata the way older writers stamped it: the flag, `model`'s name,
/// and each block's and each term's greatest `model` weight.
void StampImpacts(const std::string& path, const InvertedFile& file,
                  const ScoringModel& model) {
  SegmentHeader header = ReadHeader(path);
  const SegmentLayout layout(header);
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto write = [&fs](uint64_t offset, double bound) {
    fs.seekp(static_cast<std::streamoff>(offset));
    fs.write(reinterpret_cast<const char*>(&bound), sizeof(bound));
  };
  uint64_t block = 0;
  for (TermId t = 0; t < file.num_terms(); ++t) {
    const std::vector<Posting>& postings = file.list(t).postings();
    double term_bound = 0.0;
    for (size_t begin = 0; begin < postings.size();
         begin += header.block_size, ++block) {
      const size_t end =
          std::min<size_t>(postings.size(), begin + header.block_size);
      double block_bound = 0.0;
      for (size_t i = begin; i < end; ++i) {
        block_bound = std::max(block_bound, model.Weight(t, postings[i]));
      }
      term_bound = std::max(term_bound, block_bound);
      write(layout.block_dir + block * sizeof(BlockDirEntry) +
                offsetof(BlockDirEntry, max_impact),
            block_bound);
    }
    write(layout.term_dir + t * sizeof(TermDirEntry) +
              offsetof(TermDirEntry, max_impact),
          term_bound);
  }
  ASSERT_EQ(block, header.num_blocks);
  header.flags |= kFlagHasImpacts;
  model.name().copy(header.impact_model, kImpactModelBytes - 1);
  fs.seekp(0);
  fs.write(reinterpret_cast<const char*>(&header), sizeof(header));
}

TEST(SegmentTest, RoundTripThroughMmapAndFullDecode) {
  const std::string path = TempPath("roundtrip.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  const SegmentHeader header = ReadHeader(path);
  EXPECT_EQ(std::string(header.magic, sizeof(header.magic)),
            std::string("MOAIF03", 8));  // the NUL included
  // Nothing derived from scoring statistics is stored: the impacts flag
  // is clear, the model name empty and every bound zero.
  EXPECT_EQ(header.flags, 0u);
  EXPECT_EQ(header.impact_model[0], '\0');
  for (const double bound : StoredBounds(path)) ASSERT_EQ(bound, 0.0);

  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SegmentReader& segment = *reader.ValueOrDie();
  EXPECT_EQ(segment.num_terms(), TestFile().num_terms());
  EXPECT_EQ(segment.num_docs(), TestFile().num_docs());
  EXPECT_EQ(segment.total_tokens(),
            static_cast<uint64_t>(TestFile().total_tokens()));
  EXPECT_EQ(segment.block_size(), 128u);
  for (DocId d = 0; d < TestFile().num_docs(); ++d) {
    ASSERT_EQ(segment.DocLength(d), TestFile().DocLength(d)) << "doc " << d;
  }
  ASSERT_TRUE(segment.CheckIntegrity().ok());

  auto decoded = segment.ToInvertedFile();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameFile(decoded.ValueOrDie(), TestFile());
  std::remove(path.c_str());
}

TEST(SegmentTest, RoundTripWithoutImpactsAndOddBlockSize) {
  const std::string path = TempPath("noimpacts.moaseg");
  SegmentWriterOptions options;
  options.block_size = 7;  // exercises non-power-of-two remainders
  ASSERT_TRUE(WriteSegment(TestFile(), path, options).ok());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto decoded = reader.ValueOrDie()->ToInvertedFile();
  ASSERT_TRUE(decoded.ok());
  ExpectSameFile(decoded.ValueOrDie(), TestFile());
  std::remove(path.c_str());
}

TEST(SegmentTest, BlockPostingsWalkYieldsEveryListBlockByBlock) {
  // block_postings is how a segment decodes a term for its layers: one
  // decoded block per call, stepped with shallow_advance past its last
  // doc. Walked from the start, and again after an advance_to into the
  // middle of a block, every list must come out whole and in order, and
  // every block touched must be decoded exactly once.
  for (const uint32_t block_size : {4u, 128u}) {
    SCOPED_TRACE("block size " + std::to_string(block_size));
    const std::string path = TempPath("blocks.moaseg");
    ASSERT_TRUE(WriteSegment(TestFile(), path, {block_size}).ok());
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const SegmentReader& segment = *reader.ValueOrDie();
    for (TermId t = 0; t < TestFile().num_terms(); ++t) {
      const std::vector<Posting>& list = TestFile().list(t).postings();
      const size_t blocks = (list.size() + block_size - 1) / block_size;
      std::vector<size_t> starts = {0};
      if (list.size() > 1) {
        size_t mid = list.size() / 2;
        if (mid % block_size == 0 && mid + 1 < list.size()) ++mid;
        starts.push_back(mid);
      }
      for (const size_t from : starts) {
        const CostScope scope;
        const std::unique_ptr<PostingCursor> cursor = segment.OpenCursor(t);
        if (from > 0) cursor->advance_to(list[from].doc);
        std::vector<Posting> walked;
        const DocId* docs;
        const uint32_t* tfs;
        while (const size_t n = cursor->block_postings(&docs, &tfs)) {
          for (size_t j = 0; j < n; ++j) walked.push_back({docs[j], tfs[j]});
          cursor->shallow_advance(cursor->block_last_doc() + 1);
        }
        EXPECT_TRUE(cursor->at_end()) << "term " << t;
        ASSERT_EQ(walked, std::vector<Posting>(
                              list.begin() + static_cast<ptrdiff_t>(from),
                              list.end()))
            << "term " << t << " from " << from;
        EXPECT_EQ(scope.Snapshot().blocks_decoded,
                  static_cast<int64_t>(blocks - from / block_size))
            << "term " << t << " from " << from;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(SegmentTest, EmptyCollectionRoundTrips) {
  InvertedFileBuilder builder(0);
  InvertedFile empty = builder.Build();
  const std::string path = TempPath("empty.moaseg");
  ASSERT_TRUE(WriteSegment(empty, path).ok());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.ValueOrDie()->num_terms(), 0u);
  EXPECT_EQ(reader.ValueOrDie()->num_docs(), 0u);
  EXPECT_TRUE(reader.ValueOrDie()->CheckIntegrity().ok());
  std::remove(path.c_str());
}

TEST(SegmentTest, CompressesAtLeastTwoToOneVersusRawPostings) {
  // Raw posting bytes: a (u32 doc, u32 tf) pair per posting plus a u32
  // length per document, the uncompressed content the segment encodes.
  const std::string path = TempPath("size.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  const uint64_t raw = 8 * static_cast<uint64_t>(TestFile().num_postings()) +
                       4 * static_cast<uint64_t>(TestFile().num_docs());
  const uint64_t segment = std::filesystem::file_size(path);
  EXPECT_GE(raw, 2 * segment) << "raw=" << raw << "B MOAIF03=" << segment
                              << "B";
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsZeroBlockSize) {
  SegmentWriterOptions options;
  options.block_size = 0;
  EXPECT_EQ(WriteSegment(TestFile(), TempPath("zero.moaseg"), options).code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentTest, MissingFileIsNotFound) {
  auto r = SegmentReader::Open(TempPath("nope.moaseg"));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SegmentTest, RejectsBadMagic) {
  // The retired raw-dump and varbyte formats, written over a valid file
  // here, and garbage must each fail the open instead of being misread.
  const std::string path = TempPath("magic.moaseg");
  for (const char* magic : {"MOAIF01", "MOAIF02", "garbage"}) {
    SCOPED_TRACE(magic);
    ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
    ASSERT_TRUE(SegmentReader::Open(path).ok());
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.write(magic, 8);  // the literal's NUL fills the eighth byte
    fs.close();
    EXPECT_EQ(SegmentReader::Open(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsTruncation) {
  const std::string path = TempPath("trunc.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  const auto full = std::filesystem::file_size(path);
  // Every truncation point must fail cleanly: mid-header, mid-directory,
  // mid-payload, and one byte short.
  for (const uintmax_t size :
       {uintmax_t{0}, uintmax_t{17}, full / 3, full / 2, full - 1}) {
    std::filesystem::resize_file(path, size);
    auto r = SegmentReader::Open(path);
    EXPECT_FALSE(r.ok()) << "truncated to " << size << " of " << full;
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsTrailingGarbage) {
  const std::string path = TempPath("trail.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_FALSE(SegmentReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsPayloadSizeWrappingFileSize) {
  // A crafted header can pair a huge (but cap-passing) num_docs with a
  // payload_bytes chosen so SegmentLayout::file_size wraps around u64
  // back onto the real file size. The exact-size check then passes and
  // Validate's doc-length loop would read ~16 GiB past the mapping —
  // payload_bytes must be bounded by the file size first.
  const std::string path = TempPath("wrap.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  const uint64_t real_size = std::filesystem::file_size(path);
  SegmentHeader header{};
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.read(reinterpret_cast<char*>(&header), sizeof(header));
  header.num_docs = 1ull << 32;  // passes the count cap, inflates layout
  const SegmentLayout bogus(header);
  header.payload_bytes = real_size - bogus.payload;  // wraps file_size
  fs.seekp(0);
  fs.write(reinterpret_cast<const char*>(&header), sizeof(header));
  fs.close();
  EXPECT_EQ(SegmentReader::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsCorruptDirectory) {
  const std::string path = TempPath("dir.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  // Flip the df of the first term-directory entry (offset: header +
  // aligned doc-length section + block_begin/payload_offset/block_count).
  const SegmentLayout layout(ReadHeader(path));
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekp(static_cast<std::streamoff>(layout.term_dir + 8 + 8 + 4));
  const uint32_t bogus_df = 0x7FFFFFFF;
  fs.write(reinterpret_cast<const char*>(&bogus_df), sizeof(bogus_df));
  fs.close();
  EXPECT_FALSE(SegmentReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsBlockRangeBeyondDirectory) {
  // Hand-crafted segment whose term directory claims 8 blocks while the
  // block directory is empty: the claimed range must be rejected before
  // any block entry is read (it would point past the mapping).
  SegmentHeader header{};
  std::memcpy(header.magic, kSegmentMagic, sizeof(header.magic));
  header.block_size = 1;
  header.num_terms = 1;
  header.num_docs = 8;
  header.num_blocks = 0;  // lies: the term below claims blocks anyway
  TermDirEntry entry{};
  entry.block_count = 8;
  entry.df = 8;

  const std::string path = TempPath("orphan.moaseg");
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  const uint32_t zero_lengths[8] = {};
  out.write(reinterpret_cast<const char*>(zero_lengths),
            sizeof(zero_lengths));
  out.write(reinterpret_cast<const char*>(&entry), sizeof(entry));
  out.close();

  auto r = SegmentReader::Open(path);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsCorruptImpactBound) {
  // Segments written by older versions carry stamped max_impact fields.
  // No query reads them, but they are input from outside the program:
  // Validate must catch a flipped bound via the term == max-over-blocks
  // invariant.
  const std::string path = TempPath("impact.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  StampImpacts(path, TestFile(), testutil::SmallModel());
  ASSERT_TRUE(SegmentReader::Open(path).ok());
  const SegmentLayout layout(ReadHeader(path));
  // Halve the first term's max_impact (the f64 behind
  // block_begin/payload_offset u64s and block_count/df u32s): the term
  // bound then understates the max over its blocks, which Validate
  // rejects.
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::streamoff bound_pos =
      static_cast<std::streamoff>(layout.term_dir + 24);
  double bound = 0;
  fs.seekg(bound_pos);
  fs.read(reinterpret_cast<char*>(&bound), sizeof(bound));
  bound *= 0.5;
  fs.seekp(bound_pos);
  fs.write(reinterpret_cast<const char*>(&bound), sizeof(bound));
  fs.close();
  EXPECT_EQ(SegmentReader::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Everything a catalog answers that its segments' impact fields could
/// move: each query term's bound, and every strategy's top 10 (the
/// fragment strategies, which need a fragmentation, aside).
struct CatalogAnswers {
  std::vector<double> bounds;
  std::vector<std::vector<ScoredDoc>> tops;
};

CatalogAnswers Answer(const IndexCatalog& catalog) {
  const std::shared_ptr<const ShardReadView> view = catalog.OpenReadView();
  ExecContext context;
  context.postings = view.get();
  context.model = view->model();
  CatalogAnswers answers;
  for (const Query& q : testutil::SmallQueries()) {
    for (const TermId t : q.terms) answers.bounds.push_back(view->MaxImpact(t));
    for (const PhysicalStrategy s : AllStrategies()) {
      if (StrategyRegistry::Global().Find(s)->planner.needs_fragmentation) {
        continue;
      }
      auto top =
          StrategyRegistry::Global().Execute(s, context, q, 10, ExecOptions{});
      EXPECT_TRUE(top.ok()) << StrategyName(s) << ": "
                            << top.status().ToString();
      answers.tops.push_back(top.ok() ? top.ValueOrDie().items
                                      : std::vector<ScoredDoc>{});
    }
  }
  return answers;
}

TEST(SegmentTest, CatalogServesSegmentsWithStampedImpactsUnchanged) {
  // Older writers stamped every segment with the impacts flag, the model's
  // name and per-block and per-term bounds under the flushed file's own
  // statistics. A catalog of such segments must still open, and answer
  // bit for bit as it does unstamped: the fields are validated, then
  // ignored.
  const std::string dir = TempPath("stamped_catalog");
  std::filesystem::remove_all(dir);
  IndexCatalog::Options options;
  options.num_terms = TestFile().num_terms();
  options.dir = dir;
  options.segment_block_size = 32;

  std::vector<DocTerms> docs(TestFile().num_docs());
  for (TermId t = 0; t < TestFile().num_terms(); ++t) {
    for (const Posting& p : TestFile().list(t).postings()) {
      docs[p.doc].emplace_back(t, p.tf);
    }
  }
  const size_t half = docs.size() / 2;
  CatalogAnswers unstamped;
  std::vector<std::string> segment_paths;
  {
    auto created = IndexCatalog::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    IndexCatalog& catalog = *created.ValueOrDie();
    // Two segments, a tombstone in each.
    ASSERT_TRUE(catalog
                    .AddDocuments(std::vector<DocTerms>(
                        docs.begin(), docs.begin() + half))
                    .ok());
    ASSERT_TRUE(catalog.Flush().ok());
    ASSERT_TRUE(catalog
                    .AddDocuments(std::vector<DocTerms>(
                        docs.begin() + half, docs.end()))
                    .ok());
    ASSERT_TRUE(catalog.Flush().ok());
    ASSERT_TRUE(catalog.DeleteDocument(3).ok());
    ASSERT_TRUE(catalog.DeleteDocument(static_cast<DocId>(half + 5)).ok());
    unstamped = Answer(catalog);
    for (const auto& segment : catalog.Snapshot()->segments()) {
      segment_paths.push_back(segment->segment_path);
    }
  }
  ASSERT_EQ(segment_paths.size(), 2u);

  for (const std::string& path : segment_paths) {
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto file = reader.ValueOrDie()->ToInvertedFile();
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const std::unique_ptr<ScoringModel> model =
        MakeScoringModel(options.scoring, &file.ValueOrDie());
    StampImpacts(path, file.ValueOrDie(), *model);
    const SegmentHeader header = ReadHeader(path);
    EXPECT_NE(header.flags & kFlagHasImpacts, 0u);
    EXPECT_EQ(std::string(header.impact_model), model->name());
    const std::vector<double> bounds = StoredBounds(path);
    EXPECT_TRUE(std::any_of(bounds.begin(), bounds.end(),
                            [](double b) { return b > 0.0; }));
  }

  auto reopened = IndexCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const CatalogAnswers stamped = Answer(*reopened.ValueOrDie());
  EXPECT_EQ(stamped.bounds, unstamped.bounds);
  EXPECT_EQ(stamped.tops, unstamped.tops);
  std::filesystem::remove_all(dir);
}

TEST(SegmentTest, PayloadBitFlipSweepFailsIntegrityCheck) {
  // Single-bit payload corruption anywhere must be caught. Structural
  // validation at Open cannot see the payload, but CheckIntegrity must:
  // a flip changes a doc gap, a tf, a packed width/first-doc/reserved
  // header field or a zero padding bit, which trips the last-doc /
  // token-sum / max-tf / span / minimality / padding checks. Sweeps a
  // strided sample of every payload bit.
  const std::string path = TempPath("flip.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path, {32}).ok());
  const SegmentHeader header = ReadHeader(path);
  const SegmentLayout layout(header);
  ASSERT_GT(header.payload_bytes, 0u);
  const uint64_t payload_bits = header.payload_bytes * 8;
  // ~256 probes, stride co-prime with 8 so the in-byte bit position
  // varies across probes.
  uint64_t stride = payload_bits / 256 + 1;
  if (stride % 2 == 0) ++stride;
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  for (uint64_t bit = 0; bit < payload_bits; bit += stride) {
    const std::streamoff pos =
        static_cast<std::streamoff>(layout.payload + bit / 8);
    char byte = 0;
    fs.seekg(pos);
    fs.read(&byte, 1);
    const char flipped = static_cast<char>(byte ^ (1u << (bit % 8)));
    fs.seekp(pos);
    fs.write(&flipped, 1);
    fs.flush();
    auto reader = SegmentReader::Open(path);
    if (reader.ok()) {
      EXPECT_FALSE(reader.ValueOrDie()->CheckIntegrity().ok())
          << "undetected flip of payload bit " << bit;
    }
    fs.seekp(pos);
    fs.write(&byte, 1);  // restore
    fs.flush();
  }
  fs.close();
  std::remove(path.c_str());
}

TEST(BlockCodecTest, RandomBlocksRoundTripBitExact) {
  // Property test: any doc-sorted block — dense runs, huge gaps, huge
  // tfs, constant values (zero-width packed sections), block sizes from
  // singleton past the production default — must round-trip bit-exactly.
  Rng rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t count = 1 + rng.Uniform(260);
    const uint32_t gap_mag = 1u << rng.Uniform(19);  // 1 => all gaps == 1
    const uint32_t tf_mag = 1u << rng.Uniform(19);   // 1 => all tfs == 1
    std::vector<Posting> postings(count);
    DocId doc = static_cast<DocId>(rng.Uniform(1u << 20));
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) doc += 1 + static_cast<DocId>(rng.Uniform(gap_mag));
      postings[i] = {doc, 1 + static_cast<uint32_t>(rng.Uniform(tf_mag))};
    }
    std::vector<uint8_t> bytes;
    EncodePostingBlock(SegmentCodec::kBitPacked, postings.data(), count,
                       bytes);
    std::vector<DocId> docs(count);
    std::vector<uint32_t> tfs(count);
    auto s = DecodePostingBlock(SegmentCodec::kBitPacked, bytes.data(),
                                bytes.size(), count, postings.back().doc,
                                docs.data(), tfs.data());
    ASSERT_TRUE(s.ok()) << "iter " << iter << ": " << s.ToString();
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(docs[i], postings[i].doc) << "iter " << iter << " pos " << i;
      ASSERT_EQ(tfs[i], postings[i].tf) << "iter " << iter << " pos " << i;
    }
  }
}

TEST(BlockCodecTest, PackedRejectsBitWidthOutOfRange) {
  const std::vector<Posting> postings = {{3, 2}, {9, 1}, {10, 5}};
  std::vector<uint8_t> bytes;
  EncodePostingBlock(SegmentCodec::kBitPacked, postings.data(),
                     postings.size(), bytes);
  std::vector<DocId> docs(postings.size());
  std::vector<uint32_t> tfs(postings.size());
  // Packed header layout: u32 first_doc, u8 gap_bits, u8 tf_bits,
  // u16 reserved.
  for (const size_t byte : {size_t{4}, size_t{5}}) {
    std::vector<uint8_t> bad = bytes;
    bad[byte] = 40;  // width > 32
    EXPECT_FALSE(DecodePostingBlock(SegmentCodec::kBitPacked, bad.data(),
                                    bad.size(), postings.size(), 10,
                                    docs.data(), tfs.data())
                     .ok())
        << "corrupt header byte " << byte;
  }
  std::vector<uint8_t> bad = bytes;
  bad[6] = 1;  // reserved bytes must stay zero
  EXPECT_FALSE(DecodePostingBlock(SegmentCodec::kBitPacked, bad.data(),
                                  bad.size(), postings.size(), 10,
                                  docs.data(), tfs.data())
                   .ok());
}

TEST(BlockCodecTest, PackedRejectsSetPaddingBits) {
  // Gaps are all 1 (zero-width gap section) and tfs fit 3 bits, so the tf
  // word has 23 zero padding bits; setting one cannot change any decoded
  // value, so only an explicit padding check can catch it.
  const std::vector<Posting> postings = {{0, 5}, {1, 5}, {2, 6}};
  std::vector<uint8_t> bytes;
  EncodePostingBlock(SegmentCodec::kBitPacked, postings.data(),
                     postings.size(), bytes);
  ASSERT_EQ(bytes.size(), 12u);  // 8B header + one tf word, no gap words
  std::vector<DocId> docs(postings.size());
  std::vector<uint32_t> tfs(postings.size());
  ASSERT_TRUE(DecodePostingBlock(SegmentCodec::kBitPacked, bytes.data(),
                                 bytes.size(), postings.size(), 2,
                                 docs.data(), tfs.data())
                  .ok());
  bytes[11] |= 0x80;  // topmost padding bit of the tf word
  EXPECT_FALSE(DecodePostingBlock(SegmentCodec::kBitPacked, bytes.data(),
                                  bytes.size(), postings.size(), 2,
                                  docs.data(), tfs.data())
                   .ok());
}

TEST(SegmentTest, WriteIsAtomicAndLeavesNoTempFile) {
  const std::string path = TempPath("atomic.moaseg");
  // Pre-existing garbage at the destination must be replaced wholesale.
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous garbage content";
  }
  ASSERT_TRUE(WriteSegment(TestFile(), path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.ValueOrDie()->CheckIntegrity().ok());
  std::remove(path.c_str());
}

TEST(SegmentTest, FailedWriteCleansUpTempFile) {
  // A destination that cannot be renamed onto (a directory) must fail
  // without leaving the temp file behind.
  const std::string dir = TempPath("atomic_dir.moaseg");
  std::filesystem::create_directory(dir);
  EXPECT_FALSE(WriteSegment(TestFile(), dir).ok());
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove(dir);
}

}  // namespace
}  // namespace moa
