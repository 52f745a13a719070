// Mmap-backed MOAIF03 segment reader: one immutable component of a
// catalog (storage/catalog/catalog_state.h), whose posting lists stay
// compressed on disk until a cursor touches them. Open rejects any other
// magic, retired formats included, with InvalidArgument, so an old file
// fails cleanly instead of being misread.
//
// The reader serves postings, document lengths and, per term, the
// postings' dominance layers (DominanceLayers,
// storage/segment/posting_cursor.h): the (tf, length) structure of the
// term's impact order, which no statistics change, so every catalog
// snapshot that holds the segment shares it. Impact fields a segment
// written by an older version carries are validated at Open (they are
// input from outside the program) and otherwise ignored: bounds and
// impact orders come from the catalog snapshot, under the statistics a
// query scores by.
//
// Open() memory-maps the file read-only and fully validates the header
// and both directories (bounds, monotonicity, block-count arithmetic,
// doc-length/token-count cross-check) in O(terms + blocks) — without
// decoding any payload. Cursors then decode one block at a time, lazily,
// straight out of the mapping: cold-start cost is a page-table setup, not
// an index rebuild, and queries only ever fault in the blocks they scan
// or skip to.
//
// Thread-safety: the mapping and its directories are immutable after
// Open, and concurrent OpenCursor calls are safe; each cursor is
// single-threaded. A term's layers are built on the first Layers call,
// once: concurrent first callers of one term wait on a build lock (one of
// a few, shared by terms), and later callers read the published layers
// with one acquire load and no lock. Layers are never persisted; they
// live, at 12 B per posting, as long as the reader.
#ifndef MOA_STORAGE_SEGMENT_SEGMENT_READER_H_
#define MOA_STORAGE_SEGMENT_SEGMENT_READER_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/inverted_file.h"
#include "storage/segment/posting_cursor.h"
#include "storage/segment/segment_format.h"

namespace moa {

class SegmentReader final {
 public:
  /// Maps and validates the segment at `path`. Nothing else is read: a
  /// `path + ".frg"` fragment-directory sidecar left by an older version
  /// is ignored.
  ///
  /// Records moa_segment_open_total / moa_segment_open_ms /
  /// moa_segment_open_failures_total (the wrapper is the only metrics
  /// touchpoint; validation itself stays metrics-free).
  static Result<std::unique_ptr<SegmentReader>> Open(const std::string& path);

  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  size_t num_terms() const { return header_.num_terms; }
  size_t num_docs() const { return header_.num_docs; }
  /// Number of documents of this segment containing term t.
  uint32_t DocFrequency(TermId t) const;
  /// A fresh block cursor positioned on t's first posting (local ids).
  /// Payload decodes lazily, one block per first touch; block_postings
  /// hands over a decoded block whole.
  std::unique_ptr<PostingCursor> OpenCursor(TermId t) const;

  uint64_t total_tokens() const { return header_.total_tokens; }
  uint32_t block_size() const { return header_.block_size; }
  uint64_t file_size() const { return size_; }
  /// Token count of document d (served from the mapped section). Inline:
  /// an impact order reads one per posting it scores or finds.
  uint32_t DocLength(DocId d) const {
    assert(d < header_.num_docs);
    uint32_t length;
    std::memcpy(&length, doc_lengths_ + sizeof(uint32_t) * d, sizeof(length));
    return length;
  }

  /// Term t's postings with their dominance layers, built on the first
  /// call (one decode of the list; ticks CostCounters::layer_postings) and
  /// kept while the reader lives. Thread-safe; see the file comment.
  const DominanceLayers& Layers(TermId t) const;

  /// Decodes every block and re-validates cross-block invariants plus the
  /// global token count — catches payload corruption that the structural
  /// checks at Open cannot see (e.g. a flipped tf byte).
  Status CheckIntegrity() const;

  /// Full decode into an in-memory InvertedFile (re-validated through the
  /// builder). This is the expensive compatibility path; query execution
  /// should use cursors instead.
  Result<InvertedFile> ToInvertedFile() const;

 private:
  SegmentReader() = default;

  /// The actual map-and-validate; Open is a thin metrics wrapper.
  static Result<std::unique_ptr<SegmentReader>> OpenInternal(
      const std::string& path);

  Status Validate();
  TermDirEntry term_entry(TermId t) const;
  /// Payload bytes owned by term t (derived from the next term's offset).
  uint64_t term_payload_bytes(const TermDirEntry& entry, TermId t) const;

  const uint8_t* data_ = nullptr;  // whole mapping
  uint64_t size_ = 0;
  SegmentHeader header_{};
  // Section base pointers into the mapping (set after header validation).
  const uint8_t* doc_lengths_ = nullptr;
  const uint8_t* term_dir_ = nullptr;
  const uint8_t* block_dir_ = nullptr;
  const uint8_t* payload_ = nullptr;

  /// Per term, its layers once built (null before); owned by the reader.
  std::unique_ptr<std::atomic<const DominanceLayers*>[]> layers_;
  static constexpr size_t kLayerBuildLocks = 16;
  /// Serialize the builds of the terms t with t % kLayerBuildLocks equal.
  mutable std::array<std::mutex, kLayerBuildLocks> layer_build_mutex_;
};

}  // namespace moa

#endif  // MOA_STORAGE_SEGMENT_SEGMENT_READER_H_
