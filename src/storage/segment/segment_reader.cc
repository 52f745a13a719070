#include "storage/segment/segment_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/cost_ticker.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "storage/segment/block_codec.h"

namespace moa {
namespace {

// All directory accesses go through memcpy into a local struct: the
// mapping is 8-aligned by construction, but memcpy keeps the reads free
// of aliasing/alignment assumptions (and UBSan-clean on any input).
template <typename T>
T LoadPod(const uint8_t* base, uint64_t index) {
  T value;
  std::memcpy(&value, base + index * sizeof(T), sizeof(T));
  return value;
}

/// Cursor over one term's compressed blocks. The block *position* (which
/// directory entry is current) and the block *payload* (the decoded
/// docs/tfs arrays) are tracked separately: moving the position is a
/// directory read, decoding is deferred until doc()/tf() actually need
/// postings. That split is what makes shallow_advance free — the
/// max-score probe loop moves the position across the directory, reads
/// block_last_doc(), and only pays DecodePostingBlock for blocks holding
/// a document its bound check keeps. advance_to gallops over the
/// block directory (exponential probe + binary search), so short hops —
/// the common case in ordered probing — cost O(1) directory reads while
/// long skips stay O(log distance).
class BlockPostingCursor final : public PostingCursor {
 public:
  BlockPostingCursor(const uint8_t* blocks, uint32_t num_blocks,
                     const uint8_t* payload, uint64_t payload_bytes,
                     uint32_t df)
      : blocks_(blocks),
        num_blocks_(num_blocks),
        payload_(payload),
        payload_bytes_(payload_bytes),
        df_(df) {
    if (num_blocks_ > 0) SetBlock(0);
  }

  DocId doc() const override {
    if (block_idx_ >= num_blocks_) return kEndDoc;
    EnsureDecoded();
    return block_idx_ < num_blocks_ ? docs_[pos_] : kEndDoc;
  }
  uint32_t tf() const override {
    if (block_idx_ >= num_blocks_) return 0;
    EnsureDecoded();
    return block_idx_ < num_blocks_ ? tfs_[pos_] : 0;
  }
  size_t size() const override { return df_; }
  DocId block_last_doc() const override {
    return block_idx_ < num_blocks_ ? current_.last_doc : kEndDoc;
  }

  void next() override {
    if (block_idx_ >= num_blocks_) return;
    EnsureDecoded();
    if (block_idx_ >= num_blocks_) return;  // decode failed, now exhausted
    if (++pos_ < current_.count) return;
    if (block_idx_ + 1 < num_blocks_) {
      SetBlock(block_idx_ + 1);
    } else {
      block_idx_ = num_blocks_;
    }
  }

  void advance_to(DocId target) override {
    if (block_idx_ >= num_blocks_) return;
    // Only consult the decoded position when it exists — checking doc()
    // here would defeat the lazy decode after a shallow_advance.
    if (decoded_ && docs_[pos_] >= target) return;
    if (target > current_.last_doc && !GallopToBlock(target)) return;
    EnsureDecoded();
    if (block_idx_ >= num_blocks_) return;  // decode failed, now exhausted
    pos_ = static_cast<uint32_t>(
        std::lower_bound(docs_.begin() + pos_, docs_.begin() + current_.count,
                         target) -
        docs_.begin());
    // target <= current block's last_doc, so pos_ < count here.
  }

  void shallow_advance(DocId target) override {
    if (block_idx_ >= num_blocks_) return;
    if (current_.last_doc >= target) return;  // block already spans target
    GallopToBlock(target);
  }

  size_t block_postings(const DocId** docs,
                        const uint32_t** tfs) const override {
    if (block_idx_ >= num_blocks_) return 0;
    EnsureDecoded();
    if (block_idx_ >= num_blocks_) return 0;  // decode failed
    *docs = docs_.data() + pos_;
    *tfs = tfs_.data() + pos_;
    return current_.count - pos_;
  }

 private:
  BlockDirEntry Entry(uint32_t i) const {
    return LoadPod<BlockDirEntry>(blocks_, i);
  }

  /// Moves the block position to directory entry i without decoding.
  void SetBlock(uint32_t i) {
    block_idx_ = i;
    current_ = Entry(i);
    decoded_ = false;
    pos_ = 0;
  }

  /// Decodes the current block's payload on first touch. const because
  /// doc()/tf() trigger it; the decoded arrays are caching state, not
  /// logical position.
  void EnsureDecoded() const {
    if (decoded_ || block_idx_ >= num_blocks_) return;
    const uint64_t end = (block_idx_ + 1 < num_blocks_)
                             ? Entry(block_idx_ + 1).offset
                             : payload_bytes_;
    docs_.resize(current_.count);
    tfs_.resize(current_.count);
    Status status = DecodePostingBlock(
        SegmentCodec::kBitPacked, payload_ + current_.offset,
        end - current_.offset, current_.count, current_.last_doc,
        docs_.data(), tfs_.data());
    if (!status.ok()) {
      // Unreachable on verified segments: Open validates the directories
      // and IndexCatalog::Open runs CheckIntegrity over the payload, so
      // only corruption after the catalog opened lands here. The cursor
      // API has no error channel; fail closed and behave as exhausted
      // instead of serving garbage.
      block_idx_ = num_blocks_;
      return;
    }
    decoded_ = true;
    CostTicker::TickBlockDecoded();
  }

  /// Moves the block position to the first block with last_doc >= target
  /// via galloping search over the directory; requires
  /// target > current_.last_doc. Returns false (and exhausts the cursor)
  /// when no such block exists. Ticks one skipped block per block passed
  /// over undecoded — including the departed block if its payload was
  /// never materialized.
  bool GallopToBlock(DocId target) {
    const uint32_t from = block_idx_;
    const int64_t undecoded_from = decoded_ ? 0 : 1;
    // Exponential probe: bracket the answer in (lo - 1, probe].
    uint32_t lo = from + 1;
    uint32_t probe = lo;
    uint64_t step = 1;
    while (probe < num_blocks_ && Entry(probe).last_doc < target) {
      lo = probe + 1;
      const uint64_t next = static_cast<uint64_t>(from) + (step *= 2);
      probe = next < num_blocks_ ? static_cast<uint32_t>(next) : num_blocks_;
    }
    uint32_t hi = probe;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (Entry(mid).last_doc < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= num_blocks_) {
      CostTicker::TickBlockSkipped((num_blocks_ - from - 1) + undecoded_from);
      block_idx_ = num_blocks_;
      return false;
    }
    CostTicker::TickBlockSkipped((lo - from - 1) + undecoded_from);
    SetBlock(lo);
    return true;
  }

  const uint8_t* blocks_;
  uint32_t num_blocks_;
  const uint8_t* payload_;
  uint64_t payload_bytes_;
  uint32_t df_;

  // block_idx_ and the decode cache are mutable: EnsureDecoded runs from
  // const accessors and must be able to fail closed.
  mutable uint32_t block_idx_ = 0;
  uint32_t pos_ = 0;
  BlockDirEntry current_{};
  mutable bool decoded_ = false;
  mutable std::vector<DocId> docs_;
  mutable std::vector<uint32_t> tfs_;
};

}  // namespace

SegmentReader::~SegmentReader() {
  if (layers_ != nullptr) {
    for (uint64_t t = 0; t < header_.num_terms; ++t) {
      delete layers_[t].load(std::memory_order_relaxed);
    }
  }
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), static_cast<size_t>(size_));
  }
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path) {
  WallTimer timer;
  Result<std::unique_ptr<SegmentReader>> result = OpenInternal(path);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("moa_segment_open_total")->Add();
  registry.GetHistogram("moa_segment_open_ms")->Observe(timer.ElapsedMillis());
  if (!result.ok()) {
    registry.GetCounter("moa_segment_open_failures_total")->Add();
  }
  return result;
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::OpenInternal(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("segment: cannot open: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("segment: fstat failed: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    ::close(fd);
    return Status::InvalidArgument("segment: file shorter than header");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::Internal("segment: mmap failed: " + path);
  }

  auto reader = std::unique_ptr<SegmentReader>(new SegmentReader());
  reader->data_ = static_cast<const uint8_t*>(map);
  reader->size_ = size;
  std::memcpy(&reader->header_, reader->data_, sizeof(SegmentHeader));
  MOA_RETURN_NOT_OK(reader->Validate());

  const SegmentLayout layout(reader->header_);
  reader->doc_lengths_ = reader->data_ + layout.doc_lengths;
  reader->term_dir_ = reader->data_ + layout.term_dir;
  reader->block_dir_ = reader->data_ + layout.block_dir;
  reader->payload_ = reader->data_ + layout.payload;
  reader->layers_ = std::make_unique<std::atomic<const DominanceLayers*>[]>(
      reader->header_.num_terms);

#ifdef MADV_RANDOM
  // Paging hints, purely advisory and ignored on failure (and compiled out
  // entirely where madvise is unavailable). The header and directories are
  // scanned up-front by Validate and re-read by every skip, so ask the
  // kernel to fault them in eagerly; the payload is touched in
  // query-driven order — block-max pruning makes it genuinely random — so
  // turn off readahead there instead of letting sequential heuristics
  // drag in blocks the pruning loop just decided to skip.
  {
    uint8_t* base = const_cast<uint8_t*>(reader->data_);
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page > 0 && layout.payload > 0) {
      ::madvise(base, static_cast<size_t>(layout.payload), MADV_WILLNEED);
      const uint64_t payload_page =
          layout.payload & ~(static_cast<uint64_t>(page) - 1);
      if (payload_page < size) {
        ::madvise(base + payload_page,
                  static_cast<size_t>(size - payload_page), MADV_RANDOM);
      }
    }
  }
#endif

  return reader;
}

Status SegmentReader::Validate() {
  const SegmentHeader& h = header_;
  // MOAIF03 is the only format: a file in a retired format shares the
  // "MOAIF0" prefix but is never misread.
  if (std::memcmp(h.magic, kSegmentMagic, sizeof(h.magic)) != 0) {
    return Status::InvalidArgument("segment: bad magic (not MOAIF03)");
  }
  if (h.block_size == 0 || h.block_size > (1u << 20)) {
    return Status::InvalidArgument("segment: implausible block size");
  }
  // Cap the counts before touching the layout arithmetic: with every
  // count < 2^32 and entry sizes <= 32, the section offsets stay far from
  // u64 overflow, so the exact-size check below is trustworthy.
  if (h.num_terms > (1ull << 32) || h.num_docs > (1ull << 32) ||
      h.num_blocks > (1ull << 32)) {
    return Status::InvalidArgument("segment: implausible header counts");
  }
  // payload_bytes is the one u64 the count caps above do not bound: a
  // crafted value can wrap SegmentLayout::file_size around u64 back onto
  // the real file size, defeating the exact-size check while the section
  // loops below read far past the mapping. No valid payload can exceed
  // the file it lives in.
  if (h.payload_bytes > size_) {
    return Status::InvalidArgument("segment: payload size exceeds file");
  }
  const SegmentLayout layout(h);
  if (layout.file_size != size_) {
    return Status::InvalidArgument(
        "segment: file size does not match header (truncated or corrupt)");
  }

  const uint8_t* doc_lengths = data_ + layout.doc_lengths;
  const uint8_t* term_dir = data_ + layout.term_dir;
  const uint8_t* block_dir = data_ + layout.block_dir;

  // Doc lengths must add up to the token count.
  uint64_t length_sum = 0;
  for (uint64_t d = 0; d < h.num_docs; ++d) {
    length_sum += LoadPod<uint32_t>(doc_lengths, d);
  }
  if (length_sum != h.total_tokens) {
    return Status::InvalidArgument("segment: doc-length/token sum mismatch");
  }

  // Term directory: contiguity and block-count arithmetic. Every block and
  // payload byte must be owned by exactly one term, in order.
  uint64_t next_block = 0;
  uint64_t next_payload = 0;
  for (uint64_t t = 0; t < h.num_terms; ++t) {
    const TermDirEntry e = LoadPod<TermDirEntry>(term_dir, t);
    if (e.df > h.num_docs) {
      return Status::InvalidArgument("segment: df exceeds document count");
    }
    const uint64_t expected_blocks =
        (static_cast<uint64_t>(e.df) + h.block_size - 1) / h.block_size;
    if (e.block_begin != next_block || e.block_count != expected_blocks ||
        e.payload_offset != next_payload) {
      return Status::InvalidArgument("segment: term directory inconsistent");
    }
    // Bound the claimed block range against the directory that actually
    // exists *before* reading any entry — a bogus df must not drive the
    // entry loads below past the end of the mapping.
    if (e.block_count > h.num_blocks - next_block) {
      return Status::InvalidArgument("segment: term blocks exceed directory");
    }
    next_block += e.block_count;
    // Blocks of this term: counts, skip keys, payload extents, impact
    // bounds.
    double term_max_impact = 0.0;
    uint32_t prev_last = 0;
    uint64_t prev_offset = 0;
    for (uint64_t b = 0; b < e.block_count; ++b) {
      const BlockDirEntry be =
          LoadPod<BlockDirEntry>(block_dir, e.block_begin + b);
      const uint32_t expected_count =
          (b + 1 < e.block_count)
              ? h.block_size
              : e.df - static_cast<uint32_t>(b) * h.block_size;
      if (be.count != expected_count) {
        return Status::InvalidArgument("segment: block count inconsistent");
      }
      if (b == 0 ? be.offset != 0 : be.offset <= prev_offset) {
        return Status::InvalidArgument("segment: block offsets not monotone");
      }
      if (b > 0 && be.last_doc <= prev_last) {
        return Status::InvalidArgument("segment: block skip keys not sorted");
      }
      if (be.last_doc >= h.num_docs) {
        return Status::InvalidArgument("segment: block doc id out of range");
      }
      prev_last = be.last_doc;
      prev_offset = be.offset;
      if (e.payload_offset + be.offset > h.payload_bytes) {
        return Status::InvalidArgument("segment: block payload out of range");
      }
      // Impact bounds are written as zero and read by no query, but a
      // segment written by an older version carries stamped ones: a
      // corrupted (NaN, negative or understated) bound is still corrupt
      // input, so reject what the cheap structural invariants can see.
      const bool has_impacts = (h.flags & kFlagHasImpacts) != 0;
      if (!std::isfinite(be.max_impact) || be.max_impact < 0.0 ||
          (!has_impacts && be.max_impact != 0.0)) {
        return Status::InvalidArgument("segment: implausible block impact");
      }
      term_max_impact = std::max(term_max_impact, be.max_impact);
    }
    // The term bound must be exactly the max over its blocks (how the
    // writer produces it); inequality means either field was corrupted.
    if (e.max_impact != term_max_impact || !std::isfinite(e.max_impact)) {
      return Status::InvalidArgument("segment: term/block impact mismatch");
    }
    next_payload = (t + 1 < h.num_terms)
                       ? LoadPod<TermDirEntry>(term_dir, t + 1).payload_offset
                       : h.payload_bytes;
    if (next_payload < e.payload_offset || next_payload > h.payload_bytes) {
      return Status::InvalidArgument("segment: term payload out of range");
    }
    if (e.block_count > 0) {
      const uint64_t term_bytes = next_payload - e.payload_offset;
      if (prev_offset >= term_bytes) {
        return Status::InvalidArgument("segment: block payload out of range");
      }
    } else if (next_payload != e.payload_offset) {
      return Status::InvalidArgument("segment: empty term owns payload");
    }
  }
  if (next_block != h.num_blocks) {
    return Status::InvalidArgument("segment: orphaned block entries");
  }
  if (h.num_terms == 0 && (h.num_blocks != 0 || h.payload_bytes != 0)) {
    return Status::InvalidArgument("segment: payload without terms");
  }
  return Status::OK();
}

TermDirEntry SegmentReader::term_entry(TermId t) const {
  return LoadPod<TermDirEntry>(term_dir_, t);
}

uint64_t SegmentReader::term_payload_bytes(const TermDirEntry& entry,
                                           TermId t) const {
  const uint64_t end =
      (static_cast<uint64_t>(t) + 1 < header_.num_terms)
          ? LoadPod<TermDirEntry>(term_dir_, t + 1).payload_offset
          : header_.payload_bytes;
  return end - entry.payload_offset;
}

uint32_t SegmentReader::DocFrequency(TermId t) const {
  return term_entry(t).df;
}

std::unique_ptr<PostingCursor> SegmentReader::OpenCursor(TermId t) const {
  const TermDirEntry entry = term_entry(t);
  return std::make_unique<BlockPostingCursor>(
      block_dir_ + entry.block_begin * sizeof(BlockDirEntry),
      entry.block_count, payload_ + entry.payload_offset,
      term_payload_bytes(entry, t), entry.df);
}

const DominanceLayers& SegmentReader::Layers(TermId t) const {
  assert(t < header_.num_terms);
  std::atomic<const DominanceLayers*>& slot = layers_[t];
  if (const DominanceLayers* built = slot.load(std::memory_order_acquire)) {
    return *built;
  }
  std::lock_guard<std::mutex> lock(layer_build_mutex_[t % kLayerBuildLocks]);
  if (const DominanceLayers* built = slot.load(std::memory_order_acquire)) {
    return *built;
  }
  std::vector<Posting> postings;
  std::vector<uint32_t> lengths;
  postings.reserve(DocFrequency(t));
  lengths.reserve(DocFrequency(t));
  const std::unique_ptr<PostingCursor> blocks = OpenCursor(t);
  const DocId* docs;
  const uint32_t* tfs;
  while (const size_t n = blocks->block_postings(&docs, &tfs)) {
    for (size_t i = 0; i < n; ++i) {
      postings.push_back(Posting{docs[i], tfs[i]});
      lengths.push_back(DocLength(docs[i]));
    }
    blocks->shallow_advance(blocks->block_last_doc() + 1);
  }
  const auto* built = new DominanceLayers(std::move(postings), lengths);
  slot.store(built, std::memory_order_release);
  return *built;
}

Status SegmentReader::CheckIntegrity() const {
  uint64_t token_sum = 0;
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  for (TermId t = 0; t < header_.num_terms; ++t) {
    const TermDirEntry entry = term_entry(t);
    const uint8_t* blocks =
        block_dir_ + entry.block_begin * sizeof(BlockDirEntry);
    const uint8_t* payload = payload_ + entry.payload_offset;
    const uint64_t payload_bytes = term_payload_bytes(entry, t);
    uint64_t decoded = 0;
    DocId prev_last = 0;
    for (uint32_t b = 0; b < entry.block_count; ++b) {
      const BlockDirEntry be = LoadPod<BlockDirEntry>(blocks, b);
      const uint64_t end =
          (b + 1 < entry.block_count)
              ? LoadPod<BlockDirEntry>(blocks, b + 1).offset
              : payload_bytes;
      docs.resize(be.count);
      tfs.resize(be.count);
      MOA_RETURN_NOT_OK(DecodePostingBlock(
          SegmentCodec::kBitPacked, payload + be.offset, end - be.offset,
          be.count, be.last_doc, docs.data(), tfs.data()));
      if (b > 0 && docs.front() <= prev_last) {
        return Status::InvalidArgument("segment: blocks overlap in doc ids");
      }
      prev_last = be.last_doc;
      uint32_t max_tf = 0;
      for (uint32_t i = 0; i < be.count; ++i) {
        token_sum += tfs[i];
        max_tf = std::max(max_tf, tfs[i]);
      }
      if (max_tf != be.max_tf) {
        return Status::InvalidArgument("segment: block max_tf mismatch");
      }
      decoded += be.count;
    }
    if (decoded != entry.df) {
      return Status::InvalidArgument("segment: df/block count mismatch");
    }
  }
  if (token_sum != header_.total_tokens) {
    return Status::InvalidArgument("segment: token count mismatch");
  }
  return Status::OK();
}

Result<InvertedFile> SegmentReader::ToInvertedFile() const {
  MOA_RETURN_NOT_OK(CheckIntegrity());
  // Transpose term-major postings into per-doc buckets and rebuild through
  // the builder so every in-memory invariant is revalidated.
  const size_t num_docs = header_.num_docs;
  std::vector<std::vector<std::pair<TermId, uint32_t>>> per_doc(num_docs);
  for (TermId t = 0; t < header_.num_terms; ++t) {
    for (auto cursor = OpenCursor(t); !cursor->at_end(); cursor->next()) {
      per_doc[cursor->doc()].emplace_back(t, cursor->tf());
    }
  }
  InvertedFileBuilder builder(header_.num_terms);
  for (DocId d = 0; d < num_docs; ++d) {
    MOA_RETURN_NOT_OK(builder.AddDocument(d, per_doc[d]));
  }
  InvertedFile rebuilt = builder.Build();
  for (DocId d = 0; d < num_docs; ++d) {
    if (rebuilt.DocLength(d) != DocLength(d)) {
      return Status::InvalidArgument("segment: doc length mismatch");
    }
  }
  return rebuilt;
}

}  // namespace moa
