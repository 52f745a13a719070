// MOAIF03 on-disk segment layout, shared by the writer and the reader.
//
// A segment is one little-endian file of four 8-byte-aligned sections
// behind a fixed header:
//
//   header         SegmentHeader (magic "MOAIF03\0", counts, block size)
//   doc_lengths    u32[num_docs], zero-padded to 8 bytes
//   term dir       TermDirEntry[num_terms]
//   block dir      BlockDirEntry[num_blocks]
//   payload        compressed block payload, u8[payload_bytes]
//
// Each block's payload is bit-packed (block_codec.h): a fixed 8-byte
// block header (absolute first doc, per-block bit widths) followed by
// word-aligned arrays of fixed-width values (doc gaps - 1, then raw
// tfs). The constant per-block width turns decode into branch-free
// shift/mask loops the compiler auto-vectorizes, and whole blocks (up to
// block_size postings) materialize per call. MOAIF03 is the only format
// the reader accepts: a file in a retired format (the raw dump, the
// varbyte payload) carries another magic and fails to open.
//
// Every term owns a contiguous run of block-directory entries and a
// contiguous payload range; block/byte extents are derived from the next
// entry's start (no redundant length fields to keep consistent). Each
// block encodes up to `block_size` postings independently of its
// neighbours, so a reader can decode any single block without touching
// the rest of the list; that is what makes lazy per-block decode and
// skip-driven advance_to cheap over mmap.
//
// Impact fields (kFlagHasImpacts, the header's impact_model and the
// per-term and per-block max_impact) are written as zero and read by no
// query: a bound depends on collection statistics that move after the
// segment is written, so bounds come from the catalog snapshot instead.
// The fields stay in the layout only so that segments written by older
// versions, which stamped them, still open; the reader validates them
// (finite, non-negative, zero without the flag, each term's bound the
// maximum over its blocks) and otherwise ignores them.
#ifndef MOA_STORAGE_SEGMENT_SEGMENT_FORMAT_H_
#define MOA_STORAGE_SEGMENT_SEGMENT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace moa {

/// File magic of every segment. NUL-terminated, so it also prints as
/// the format name.
inline constexpr char kSegmentMagic[8] = {'M', 'O', 'A', 'I', 'F', '0', '3',
                                          '\0'};
inline constexpr uint32_t kFlagHasImpacts = 1u << 0;
inline constexpr uint32_t kDefaultSegmentBlockSize = 128;

/// The per-block payload codec. MOAIF03's bit packing is the only one;
/// the block codec entry points still name it so that a caller states
/// which encoding it reads and writes.
enum class SegmentCodec : uint32_t {
  kBitPacked = 3,  ///< MOAIF03: per-block fixed-width, bulk word decode
};

/// Max bytes (including NUL padding) of the impact-model identifier.
inline constexpr size_t kImpactModelBytes = 32;

/// Fixed-size file header. All fields little-endian.
struct SegmentHeader {
  char magic[8];
  uint32_t block_size;    ///< max postings per block, >= 1
  uint32_t flags;         ///< kFlag* bits
  /// NUL-padded name of the scoring model an older writer stamped its
  /// max_impact fields with; written empty (see the file comment).
  char impact_model[kImpactModelBytes];
  uint64_t num_terms;
  uint64_t num_docs;
  uint64_t total_tokens;  ///< sum of all tf values (integrity anchor)
  uint64_t num_blocks;    ///< total entries in the block directory
  uint64_t payload_bytes; ///< size of the payload section
};
static_assert(sizeof(SegmentHeader) == 88);
static_assert(std::is_trivially_copyable_v<SegmentHeader>);

/// One term's entry in the term directory.
struct TermDirEntry {
  uint64_t block_begin;     ///< first block-directory index of the term
  uint64_t payload_offset;  ///< byte offset of the term's payload within
                            ///< the payload section
  uint32_t block_count;     ///< number of blocks (ceil(df / block_size))
  uint32_t df;              ///< document frequency
  double max_impact;        ///< written as 0 (see the file comment)
};
static_assert(sizeof(TermDirEntry) == 32);
static_assert(std::is_trivially_copyable_v<TermDirEntry>);

/// One block's entry in the block directory.
struct BlockDirEntry {
  uint32_t offset;      ///< byte offset within the owning term's payload
  uint32_t last_doc;    ///< doc id of the block's final posting (skip key)
  uint32_t count;       ///< postings in the block, in [1, block_size]
  uint32_t max_tf;      ///< max term frequency in the block
  double max_impact;    ///< written as 0 (see the file comment)
};
static_assert(sizeof(BlockDirEntry) == 24);
static_assert(std::is_trivially_copyable_v<BlockDirEntry>);

/// Size of `bytes` rounded up to the section alignment.
inline uint64_t SegmentAlign(uint64_t bytes) { return (bytes + 7) & ~7ull; }

/// Byte offsets of each section for the given header, in file order.
struct SegmentLayout {
  uint64_t doc_lengths = 0;
  uint64_t term_dir = 0;
  uint64_t block_dir = 0;
  uint64_t payload = 0;
  uint64_t file_size = 0;

  explicit SegmentLayout(const SegmentHeader& h) {
    doc_lengths = sizeof(SegmentHeader);
    term_dir = doc_lengths + SegmentAlign(h.num_docs * sizeof(uint32_t));
    block_dir = term_dir + h.num_terms * sizeof(TermDirEntry);
    payload = block_dir + h.num_blocks * sizeof(BlockDirEntry);
    file_size = payload + h.payload_bytes;
  }
};

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_SEGMENT_FORMAT_H_
