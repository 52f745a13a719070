// MOAFRG01 on-disk fragment directory — the impact-ordered fragment
// sidecar of a MOAIF03 segment.
//
// The sidecar lives next to its segment (`<segment path>.frg`) and groups
// every term's blocks into *fragments*: disjoint runs of consecutive
// blocks, each bounded by the max scoring weight of any posting inside it,
// listed per term in descending max-impact order. This is what gives a
// compressed doc-ordered segment cheap impact-ordered (sorted) access:
// a consumer decodes fragments in directory order and can stop — or defer
// decoding — as soon as the remaining fragments' bounds cannot matter,
// while every fragment still streams in doc order through the ordinary
// block cursor (see PostingSource::OpenImpactCursor).
//
// One little-endian file of three sections, all fixed-size records:
//
//   header      FragmentFileHeader (magic "MOAFRG01", counts, model stamp)
//   term dir    TermFragEntry[num_terms]
//   frag dir    FragDirEntry[num_fragments]
//
// Fragment bounds are only upper bounds under the same scoring model as
// the segment's block impacts, so the header repeats the segment's
// impact-model stamp; SegmentReader::Open rejects a sidecar whose stamp
// (or any structural invariant) disagrees with the segment it sits next
// to. The sidecar is optional and advisory for correctness: a segment
// without one still serves exact impact order, just without laziness
// (the whole list counts as a single fragment).
//
// Crash safety: the writer removes a stale sidecar before publishing a
// new segment and writes the new sidecar via atomic_file afterwards, so
// a crash at any point leaves either a matching pair or a segment with
// no sidecar — never a mismatched pair.
#ifndef MOA_STORAGE_SEGMENT_FRAGMENT_DIRECTORY_H_
#define MOA_STORAGE_SEGMENT_FRAGMENT_DIRECTORY_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/segment/segment_format.h"

namespace moa {

inline constexpr char kFragmentMagic[8] = {'M', 'O', 'A', 'F', 'R', 'G',
                                           '0', '1'};

/// Default number of consecutive blocks grouped into one fragment.
inline constexpr uint32_t kDefaultFragmentBlocks = 8;

/// Sidecar path of a segment: `<segment path>.frg`.
inline std::string FragmentSidecarPath(const std::string& segment_path) {
  return segment_path + ".frg";
}

/// Fixed-size file header. All fields little-endian.
struct FragmentFileHeader {
  char magic[8];
  uint32_t fragment_blocks;  ///< writer's grouping knob (informational)
  uint32_t flags;            ///< reserved, 0
  /// NUL-padded scoring-model stamp; must equal the segment header's
  /// impact_model byte-for-byte.
  char impact_model[kImpactModelBytes];
  uint64_t num_terms;
  uint64_t num_fragments;  ///< total entries in the fragment directory
};
static_assert(sizeof(FragmentFileHeader) == 64);
static_assert(std::is_trivially_copyable_v<FragmentFileHeader>);

/// One term's entry in the sidecar term directory.
struct TermFragEntry {
  uint64_t frag_begin;  ///< first fragment-directory index of the term
  uint32_t frag_count;  ///< fragments of the term (0 for empty lists)
  uint32_t df;          ///< document frequency (segment cross-check)
};
static_assert(sizeof(TermFragEntry) == 16);
static_assert(std::is_trivially_copyable_v<TermFragEntry>);

/// One fragment: a run of consecutive blocks of the owning term.
/// Per term, entries are ordered by descending max_impact (ties by
/// ascending block_begin); their block ranges partition the term's blocks.
struct FragDirEntry {
  uint32_t block_begin;  ///< first block, relative to the term's blocks
  uint32_t block_count;  ///< blocks in the fragment, >= 1
  double max_impact;     ///< max weight over the fragment's postings
};
static_assert(sizeof(FragDirEntry) == 16);
static_assert(std::is_trivially_copyable_v<FragDirEntry>);

/// \brief Decoded (or to-be-written) fragment directory.
struct FragmentDirectory {
  uint32_t fragment_blocks = kDefaultFragmentBlocks;
  std::vector<TermFragEntry> terms;
  std::vector<FragDirEntry> fragments;
};

/// Builds the directory from a segment's in-memory term/block directories:
/// runs of `fragment_blocks` consecutive blocks, sorted per term by
/// descending max impact (max over the run's block bounds).
FragmentDirectory BuildFragmentDirectory(
    const std::vector<TermDirEntry>& term_dir,
    const std::vector<BlockDirEntry>& block_dir, uint32_t fragment_blocks);

/// Writes the sidecar at `path` (atomic overwrite). `impact_model` is the
/// segment's stamp, truncated to kImpactModelBytes - 1 the same way.
Status WriteFragmentDirectory(const std::string& path,
                              const FragmentDirectory& directory,
                              const std::string& impact_model);

/// Reads and *structurally* validates the sidecar at `path`: magic, exact
/// file size, term-directory contiguity and per-entry sanity. Returns the
/// raw header too so the caller can cross-validate the model stamp and
/// the per-term block ranges against the segment it belongs to
/// (SegmentReader::Open does; the block-level bounds live there).
Result<std::pair<FragmentFileHeader, FragmentDirectory>>
ReadFragmentDirectory(const std::string& path);

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_FRAGMENT_DIRECTORY_H_
