// Encode/decode of one posting block of a MOAIF03 segment
// (segment_format.h). The bit-packed block payload:
//
//   u32 first_doc     absolute doc id of the first posting
//   u8  gap_bits      bit width of each packed (gap - 1) value, <= 32
//   u8  tf_bits       bit width of each packed tf value, <= 32
//   u16 reserved      must be 0
//   u32 gap_words[ceil((count-1) * gap_bits / 32)]
//   u32 tf_words[ceil(count * tf_bits / 32)]
//
// Values are packed LSB-first into little-endian u32 words; each section
// starts word-aligned. The widths are minimal (exactly the bit width of
// the largest value, 0 when every value is 0), which makes the encoding
// canonical — any flipped width byte changes the expected byte count or
// the minimality check and fails the decode. Fixed widths are what buy
// the speed: the whole block decodes in two constant-shift loops instead
// of one byte-at-a-time state machine per integer.
#ifndef MOA_STORAGE_SEGMENT_BLOCK_CODEC_H_
#define MOA_STORAGE_SEGMENT_BLOCK_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/posting.h"
#include "storage/segment/segment_format.h"

namespace moa {

/// Appends the `codec` encoding of postings[0..count) (doc-sorted) to
/// `out`. Bulk interface on purpose: one call per block, so the packed
/// codec can compute its per-block widths over the whole block.
void EncodePostingBlock(SegmentCodec codec, const Posting* postings,
                        size_t count, std::vector<uint8_t>& out);

/// Decodes exactly `count` postings from [data, data + bytes) into
/// docs/tfs (each sized >= count by the caller). Validates: bounds, strict
/// doc ordering, full consumption of the span, and that the final doc id
/// equals `expected_last_doc` — so a corrupt block fails cleanly instead
/// of yielding garbage postings.
Status DecodePostingBlock(SegmentCodec codec, const uint8_t* data,
                          size_t bytes, size_t count, DocId expected_last_doc,
                          DocId* docs, uint32_t* tfs);

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_BLOCK_CODEC_H_
