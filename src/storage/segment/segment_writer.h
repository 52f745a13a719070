// Segment writer: compresses an InvertedFile into the block-structured,
// bit-packed MOAIF03 on-disk format of segment_format.h.
//
// Writes go to `path + ".tmp"` and are atomically renamed into place, so
// a crash mid-write never leaves a half-written segment at `path`.
#ifndef MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_
#define MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_

#include <cstdint>
#include <functional>
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
  /// Optional scoring weight w(t, posting). When set, per-term and
  /// per-block max impacts are stored (kFlagHasImpacts) and max-score
  /// pruning works directly over the segment. Must be the same arithmetic
  /// the serving scoring model uses, or pruning bounds lose bit-parity
  /// with the in-memory path.
  std::function<double(TermId, const Posting&)> impact_fn;
  /// Identifier of the model behind impact_fn (e.g. ScoringModel::name()),
  /// stamped into the header so readers can refuse to prune with bounds
  /// computed under a different model. Truncated to kImpactModelBytes - 1.
  std::string impact_model;
};

/// Writes `file` as a MOAIF03 segment at `path` (atomic overwrite). The
/// segment is the only file written: sorted access needs no sidecar, as
/// readers score impact orders from the doc-ordered blocks.
Status WriteSegment(const InvertedFile& file, const std::string& path,
                    const SegmentWriterOptions& options = {});

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_SEGMENT_WRITER_H_
