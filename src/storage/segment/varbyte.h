// Variable-byte (LEB128-style) codec for u32 values: 7 payload bits per
// byte, high bit = continuation. Term-id gaps and term frequencies are
// small in practice, so most values take one byte. It encodes the
// WAL records (storage/catalog/wal.h) and the MOAFWD01 forward-index
// sidecar (storage/catalog/forward_index.h); segment payloads are
// bit-packed instead (block_codec.h).
//
// The decoder is hard-bounds-checked: it never reads past `end` and
// rejects overlong / overflowing encodings, so a corrupt or truncated
// log or sidecar can at worst produce a clean decode error, never an
// over-read.
#ifndef MOA_STORAGE_SEGMENT_VARBYTE_H_
#define MOA_STORAGE_SEGMENT_VARBYTE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace moa {

/// Appends the varbyte encoding of `value` (1..5 bytes) to `out`.
inline void VarbyteAppend(std::vector<uint8_t>& out, uint32_t value) {
  while (value >= 0x80u) {
    out.push_back(static_cast<uint8_t>((value & 0x7Fu) | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

/// Decodes one varbyte value from [p, end). Returns the number of bytes
/// consumed, or 0 if the input is truncated, overlong or overflows u32.
inline size_t VarbyteDecode(const uint8_t* p, const uint8_t* end,
                            uint32_t* value) {
  uint32_t v = 0;
  size_t shift = 0;
  for (size_t i = 0; i < 5; ++i) {
    if (p + i >= end) return 0;  // truncated
    const uint8_t byte = p[i];
    const uint32_t payload = byte & 0x7Fu;
    // Byte 5 may only carry the top 4 bits of a u32.
    if (i == 4 && payload > 0x0Fu) return 0;  // overflow
    v |= payload << shift;
    if ((byte & 0x80u) == 0) {
      *value = v;
      return i + 1;
    }
    shift += 7;
  }
  return 0;  // continuation bit set on the 5th byte
}

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_VARBYTE_H_
