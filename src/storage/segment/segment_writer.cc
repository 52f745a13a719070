#include "storage/segment/segment_writer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/atomic_file.h"
#include "storage/segment/block_codec.h"

namespace moa {
namespace {

Status WriteBytes(std::FILE* f, const void* data, size_t size) {
  return WriteAllBytes(f, data, size, "segment");
}

template <typename T>
Status WritePodVector(std::FILE* f, const std::vector<T>& v) {
  return WriteBytes(f, v.data(), v.size() * sizeof(T));
}

/// Fully built segment sections. They are built before the file is
/// opened, so a build error leaves nothing on disk.
struct SegmentImage {
  std::vector<TermDirEntry> term_dir;
  std::vector<BlockDirEntry> block_dir;
  std::vector<uint8_t> payload;
};

Status BuildImage(const InvertedFile& file,
                  const SegmentWriterOptions& options, SegmentImage* image) {
  const uint32_t block_size = options.block_size;

  // Build the directories and the payload in memory. Payload size is a
  // few bytes per posting — for collections where that does not fit,
  // this is the place to stream per-term instead.
  std::vector<TermDirEntry>& term_dir = image->term_dir;
  std::vector<BlockDirEntry>& block_dir = image->block_dir;
  std::vector<uint8_t>& payload = image->payload;
  term_dir.resize(file.num_terms());
  payload.reserve(static_cast<size_t>(file.num_postings()) * 2);

  for (TermId t = 0; t < file.num_terms(); ++t) {
    const PostingList& list = file.list(t);
    TermDirEntry& entry = term_dir[t];
    entry.block_begin = block_dir.size();
    entry.payload_offset = payload.size();
    entry.df = static_cast<uint32_t>(list.size());
    entry.max_impact = 0.0;

    const std::vector<Posting>& postings = list.postings();
    for (size_t begin = 0; begin < postings.size(); begin += block_size) {
      const size_t count =
          std::min<size_t>(block_size, postings.size() - begin);
      // BlockDirEntry::offset is relative to the term's payload and only
      // 32 bits wide; truncating here would write a segment that passes
      // WriteSegment but fails (or misreads) at Open.
      const uint64_t block_offset = payload.size() - entry.payload_offset;
      if (block_offset > UINT32_MAX) {
        return Status::InvalidArgument(
            "segment: term payload exceeds 4 GiB (block offset overflow)");
      }
      BlockDirEntry block;
      block.offset = static_cast<uint32_t>(block_offset);
      block.last_doc = postings[begin + count - 1].doc;
      block.count = static_cast<uint32_t>(count);
      block.max_tf = 0;
      block.max_impact = 0.0;
      for (size_t i = begin; i < begin + count; ++i) {
        block.max_tf = std::max(block.max_tf, postings[i].tf);
      }
      EncodePostingBlock(SegmentCodec::kBitPacked, postings.data() + begin,
                         count, payload);
      block_dir.push_back(block);
    }
    entry.block_count =
        static_cast<uint32_t>(block_dir.size() - entry.block_begin);
  }
  return Status::OK();
}

Status WriteBody(const InvertedFile& file, const SegmentWriterOptions& options,
                 const SegmentImage& image, std::FILE* out) {
  const std::vector<TermDirEntry>& term_dir = image.term_dir;
  const std::vector<BlockDirEntry>& block_dir = image.block_dir;
  const std::vector<uint8_t>& payload = image.payload;

  SegmentHeader header{};
  std::memcpy(header.magic, kSegmentMagic, sizeof(header.magic));
  header.block_size = options.block_size;
  header.num_terms = file.num_terms();
  header.num_docs = file.num_docs();
  header.total_tokens = static_cast<uint64_t>(file.total_tokens());
  header.num_blocks = block_dir.size();
  header.payload_bytes = payload.size();

  MOA_RETURN_NOT_OK(WriteBytes(out, &header, sizeof(header)));
  MOA_RETURN_NOT_OK(WritePodVector(out, file.doc_lengths()));
  const uint64_t doc_bytes = file.num_docs() * sizeof(uint32_t);
  const uint64_t pad = SegmentAlign(doc_bytes) - doc_bytes;
  const char zeros[8] = {};
  MOA_RETURN_NOT_OK(WriteBytes(out, zeros, pad));
  MOA_RETURN_NOT_OK(WritePodVector(out, term_dir));
  MOA_RETURN_NOT_OK(WritePodVector(out, block_dir));
  MOA_RETURN_NOT_OK(WritePodVector(out, payload));
  return Status::OK();
}

}  // namespace

Status WriteSegment(const InvertedFile& file, const std::string& path,
                    const SegmentWriterOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("segment: block_size must be >= 1");
  }
  SegmentImage image;
  MOA_RETURN_NOT_OK(BuildImage(file, options, &image));

  return WriteFileAtomically(path, [&](std::FILE* out) {
    return WriteBody(file, options, image, out);
  });
}

}  // namespace moa
