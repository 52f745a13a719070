// Segment writer: compresses an InvertedFile into the block-structured,
// bit-packed MOAIF03 on-disk format of segment_format.h. A segment holds
// postings and document lengths and nothing derived from scoring
// statistics: the impact fields are written with the flag clear, zero
// bounds and an empty model name.
//
// Writes go to `path + ".tmp"` and are atomically renamed into place, so
// a crash mid-write never leaves a half-written segment at `path`.
#ifndef MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_
#define MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/inverted_file.h"
#include "storage/segment/segment_format.h"

namespace moa {

/// \brief Tuning for WriteSegment.
struct SegmentWriterOptions {
  /// Max postings per block. Smaller blocks skip better, larger blocks
  /// compress better; 128 is the production-IR sweet spot.
  uint32_t block_size = kDefaultSegmentBlockSize;
};

/// Writes `file` as a MOAIF03 segment at `path` (atomic overwrite). The
/// segment is the only file written: sorted access needs no sidecar, as
/// catalog snapshots score impact orders from the doc-ordered blocks.
Status WriteSegment(const InvertedFile& file, const std::string& path,
                    const SegmentWriterOptions& options = {});

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_
