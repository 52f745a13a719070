// MOAIF03 segment format: write → mmap-open → decode round trip,
// compression vs raw posting bytes, atomic-write behavior, a property
// round-trip of random posting blocks at the codec level, and negative
// tests for truncated / bit-flipped / width-corrupted segment files and
// for the magic of every other format.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
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

SegmentWriterOptions ImpactOptions(uint32_t block_size = 128) {
  SegmentWriterOptions options;
  options.block_size = block_size;
  options.impact_fn = [](TermId t, const Posting& p) {
    return testutil::SmallModel().Weight(t, p);
  };
  return options;
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

TEST(SegmentTest, RoundTripThroughMmapAndFullDecode) {
  const std::string path = TempPath("roundtrip.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
  const SegmentHeader header = ReadHeader(path);
  EXPECT_EQ(std::string(header.magic, sizeof(header.magic)),
            std::string("MOAIF03", 8));  // the NUL included

  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SegmentReader& segment = *reader.ValueOrDie();
  EXPECT_EQ(segment.num_terms(), TestFile().num_terms());
  EXPECT_EQ(segment.num_docs(), TestFile().num_docs());
  EXPECT_EQ(segment.total_tokens(),
            static_cast<uint64_t>(TestFile().total_tokens()));
  EXPECT_EQ(segment.block_size(), 128u);
  EXPECT_TRUE(segment.has_impacts());
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
  EXPECT_FALSE(reader.ValueOrDie()->has_impacts());
  EXPECT_FALSE(reader.ValueOrDie()->HasImpacts(0));
  auto decoded = reader.ValueOrDie()->ToInvertedFile();
  ASSERT_TRUE(decoded.ok());
  ExpectSameFile(decoded.ValueOrDie(), TestFile());
  std::remove(path.c_str());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
    ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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

TEST(SegmentTest, StampsAndReportsTheImpactModel) {
  const std::string path = TempPath("model.moaseg");
  SegmentWriterOptions options = ImpactOptions();
  options.impact_model = testutil::SmallModel().name();
  ASSERT_TRUE(WriteSegment(TestFile(), path, options).ok());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.ValueOrDie()->impact_model(),
            testutil::SmallModel().name().substr(0, kImpactModelBytes - 1));
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
  // max_impact metadata drives max-score pruning; an understated bound
  // would silently drop true top-N documents, so Validate must catch a
  // flipped bound via the term == max-over-blocks invariant.
  const std::string path = TempPath("impact.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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

TEST(SegmentTest, PayloadBitFlipSweepFailsIntegrityCheck) {
  // Single-bit payload corruption anywhere must be caught. Structural
  // validation at Open cannot see the payload, but CheckIntegrity must:
  // a flip changes a doc gap, a tf, a packed width/first-doc/reserved
  // header field or a zero padding bit, which trips the last-doc /
  // token-sum / max-tf / span / minimality / padding checks. Sweeps a
  // strided sample of every payload bit.
  const std::string path = TempPath("flip.moaseg");
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions(32)).ok());
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
  ASSERT_TRUE(WriteSegment(TestFile(), path, ImpactOptions()).ok());
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
  EXPECT_FALSE(WriteSegment(TestFile(), dir, ImpactOptions()).ok());
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove(dir);
}

}  // namespace
}  // namespace moa
