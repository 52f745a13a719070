#include "storage/segment/block_codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

namespace moa {
namespace {

inline uint32_t BitWidth(uint32_t v) {
  uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

inline uint64_t WordsFor(uint64_t values, uint32_t width) {
  return (values * width + 31) / 32;
}

/// Packs `n` values of `width` bits each (LSB-first) onto `out` as
/// little-endian u32 words, starting word-aligned.
void PackBits(const uint32_t* values, size_t n, uint32_t width,
              std::vector<uint8_t>& out) {
  const size_t words = static_cast<size_t>(WordsFor(n, width));
  const size_t base = out.size();
  out.resize(base + words * sizeof(uint32_t), 0);
  if (width == 0) return;
  uint8_t* dst = out.data() + base;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const size_t word = static_cast<size_t>(bit >> 5);
    const uint32_t shift = static_cast<uint32_t>(bit & 31);
    uint64_t chunk;
    std::memcpy(&chunk, dst + word * 4,
                (word + 1 < words) ? 8 : 4);  // last word has no neighbour
    chunk |= static_cast<uint64_t>(values[i]) << shift;
    std::memcpy(dst + word * 4, &chunk, (word + 1 < words) ? 8 : 4);
  }
}

inline uint32_t LoadWord(const uint8_t* src, size_t word) {
  uint32_t w;
  std::memcpy(&w, src + word * sizeof(uint32_t), sizeof(uint32_t));
  return w;
}

/// Fixed-width unpack: with W a compile-time constant the shift amounts
/// and mask fold to constants and the loop body has no data-dependent
/// control flow beyond the last-word guard, so the compiler unrolls and
/// vectorizes it — this is the MOAIF03 hot path. Never reads past the
/// section's own ceil(n*W/32) words.
template <uint32_t W>
void UnpackBits(const uint8_t* src, size_t n, uint32_t* out) {
  if constexpr (W == 0) {
    std::memset(out, 0, n * sizeof(uint32_t));
  } else if constexpr (W == 32) {
    std::memcpy(out, src, n * sizeof(uint32_t));
  } else {
    constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
    const size_t words = (n * W + 31) / 32;
    // Values ending within the first words - 1 words can splice two
    // unconditional word loads; only values touching the last word need
    // the bounds guard. i < bulk implies (i + 1) * W <= (words - 1) * 32.
    const size_t bulk = words >= 2 ? std::min(n, ((words - 1) * 32) / W) : 0;
    size_t i = 0;
    for (; i < bulk; ++i) {
      const uint64_t bit = static_cast<uint64_t>(i) * W;
      const size_t word = static_cast<size_t>(bit >> 5);
      const uint64_t two = static_cast<uint64_t>(LoadWord(src, word)) |
                           (static_cast<uint64_t>(LoadWord(src, word + 1))
                            << 32);
      out[i] = static_cast<uint32_t>((two >> (bit & 31)) & kMask);
    }
    for (; i < n; ++i) {
      const uint64_t bit = static_cast<uint64_t>(i) * W;
      const size_t word = static_cast<size_t>(bit >> 5);
      uint64_t two = LoadWord(src, word);
      if (word + 1 < words) {
        two |= static_cast<uint64_t>(LoadWord(src, word + 1)) << 32;
      }
      out[i] = static_cast<uint32_t>((two >> (bit & 31)) & kMask);
    }
  }
}

using UnpackFn = void (*)(const uint8_t*, size_t, uint32_t*);

template <size_t... Ws>
constexpr std::array<UnpackFn, sizeof...(Ws)> MakeUnpackTable(
    std::index_sequence<Ws...>) {
  return {&UnpackBits<static_cast<uint32_t>(Ws)>...};
}

/// Dispatch table over the 33 possible widths; each entry is a fully
/// specialized constant-shift loop.
void Unpack(const uint8_t* src, size_t n, uint32_t width, uint32_t* out) {
  static constexpr auto kTable =
      MakeUnpackTable(std::make_index_sequence<33>{});
  kTable[width](src, n, out);
}

/// The fixed MOAIF03 per-block header (see block_codec.h).
struct PackedBlockHeader {
  uint32_t first_doc;
  uint8_t gap_bits;
  uint8_t tf_bits;
  uint16_t reserved;
};
static_assert(sizeof(PackedBlockHeader) == 8);

void EncodePacked(const Posting* postings, size_t count,
                  std::vector<uint8_t>& out) {
  // Materialize the value streams, then measure the minimal widths.
  std::vector<uint32_t> gaps(count > 0 ? count - 1 : 0);
  std::vector<uint32_t> tfs(count);
  uint32_t max_gap = 0, max_tf = 0;
  for (size_t i = 1; i < count; ++i) {
    gaps[i - 1] = postings[i].doc - postings[i - 1].doc - 1;
    max_gap = std::max(max_gap, gaps[i - 1]);
  }
  for (size_t i = 0; i < count; ++i) {
    tfs[i] = postings[i].tf;
    max_tf = std::max(max_tf, tfs[i]);
  }

  PackedBlockHeader header{};
  header.first_doc = count > 0 ? postings[0].doc : 0;
  header.gap_bits = static_cast<uint8_t>(BitWidth(max_gap));
  header.tf_bits = static_cast<uint8_t>(BitWidth(max_tf));
  header.reserved = 0;
  const size_t base = out.size();
  out.resize(base + sizeof(header));
  std::memcpy(out.data() + base, &header, sizeof(header));

  PackBits(gaps.data(), gaps.size(), header.gap_bits, out);
  PackBits(tfs.data(), tfs.size(), header.tf_bits, out);
}

/// True iff the unused high bits of a packed section's last word are all
/// zero. PackBits zero-fills them, so any set bit there is corruption that
/// the value streams alone could never reveal.
bool PaddingClear(const uint8_t* base, size_t n, uint32_t width) {
  const uint64_t bits = static_cast<uint64_t>(n) * width;
  const uint64_t words = (bits + 31) / 32;
  if (words == 0) return true;
  const uint32_t used = static_cast<uint32_t>(bits - (words - 1) * 32);
  if (used == 32) return true;
  const uint32_t last = LoadWord(base, static_cast<size_t>(words - 1));
  return (last >> used) == 0;
}

Status DecodePacked(const uint8_t* data, size_t bytes, size_t count,
                    DocId expected_last_doc, DocId* docs, uint32_t* tfs) {
  if (count == 0) {
    return bytes == 0 ? Status::OK()
                      : Status::InvalidArgument(
                            "segment block: trailing bytes");
  }
  if (bytes < sizeof(PackedBlockHeader)) {
    return Status::InvalidArgument("segment block: truncated header");
  }
  PackedBlockHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (header.gap_bits > 32 || header.tf_bits > 32) {
    return Status::InvalidArgument("segment block: bit width out of range");
  }
  if (header.reserved != 0) {
    return Status::InvalidArgument("segment block: reserved bits set");
  }
  const uint64_t gap_words = WordsFor(count - 1, header.gap_bits);
  const uint64_t tf_words = WordsFor(count, header.tf_bits);
  const uint64_t expected_bytes =
      sizeof(PackedBlockHeader) + (gap_words + tf_words) * sizeof(uint32_t);
  if (bytes != expected_bytes) {
    return Status::InvalidArgument("segment block: size mismatch");
  }
  const uint8_t* gap_base = data + sizeof(PackedBlockHeader);
  const uint8_t* tf_base = gap_base + gap_words * sizeof(uint32_t);
  if (!PaddingClear(gap_base, count - 1, header.gap_bits) ||
      !PaddingClear(tf_base, count, header.tf_bits)) {
    return Status::InvalidArgument("segment block: padding bits set");
  }

  // Bulk-unpack the gap stream straight into docs[1..count), then turn it
  // into absolute ids with one running sum. The u64 accumulator cannot
  // wrap, so `sum == expected_last_doc` proves every intermediate id fits
  // u32 and strictly increases (each stored gap is `gap - 1`, so real
  // gaps are >= 1 by construction).
  Unpack(gap_base, count - 1, header.gap_bits, docs + 1);
  uint64_t doc = header.first_doc;
  uint32_t max_gap = 0;
  docs[0] = header.first_doc;
  for (size_t i = 1; i < count; ++i) {
    max_gap = std::max(max_gap, docs[i]);
    doc += static_cast<uint64_t>(docs[i]) + 1;
    docs[i] = static_cast<uint32_t>(doc);
  }
  if (doc != expected_last_doc) {
    return Status::InvalidArgument("segment block: last doc mismatch");
  }
  Unpack(tf_base, count, header.tf_bits, tfs);
  uint32_t max_tf = 0;
  for (size_t i = 0; i < count; ++i) max_tf = std::max(max_tf, tfs[i]);
  // Widths are canonical-minimal; a non-minimal width means a corrupted
  // width byte that happened to keep the section sizes consistent.
  if (count > 1 && BitWidth(max_gap) != header.gap_bits) {
    return Status::InvalidArgument("segment block: non-minimal gap width");
  }
  if (count == 1 && header.gap_bits != 0) {
    return Status::InvalidArgument("segment block: gap width without gaps");
  }
  if (BitWidth(max_tf) != header.tf_bits) {
    return Status::InvalidArgument("segment block: non-minimal tf width");
  }
  return Status::OK();
}

}  // namespace

void EncodePostingBlock(SegmentCodec /*codec*/, const Posting* postings,
                        size_t count, std::vector<uint8_t>& out) {
  EncodePacked(postings, count, out);
}

Status DecodePostingBlock(SegmentCodec /*codec*/, const uint8_t* data,
                          size_t bytes, size_t count, DocId expected_last_doc,
                          DocId* docs, uint32_t* tfs) {
  return DecodePacked(data, bytes, count, expected_last_doc, docs, tfs);
}

}  // namespace moa
