#include "storage/segment/fragment_directory.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "storage/atomic_file.h"

namespace moa {
namespace {

Status WriteBytes(std::FILE* f, const void* data, size_t size) {
  return WriteAllBytes(f, data, size, "fragment directory");
}

}  // namespace

FragmentDirectory BuildFragmentDirectory(
    const std::vector<TermDirEntry>& term_dir,
    const std::vector<BlockDirEntry>& block_dir, uint32_t fragment_blocks) {
  FragmentDirectory directory;
  directory.fragment_blocks = fragment_blocks;
  directory.terms.reserve(term_dir.size());
  for (const TermDirEntry& term : term_dir) {
    TermFragEntry entry{};
    entry.frag_begin = directory.fragments.size();
    entry.df = term.df;

    std::vector<FragDirEntry> frags;
    for (uint32_t begin = 0; begin < term.block_count;
         begin += fragment_blocks) {
      FragDirEntry frag{};
      frag.block_begin = begin;
      frag.block_count = std::min(fragment_blocks, term.block_count - begin);
      frag.max_impact = 0.0;
      for (uint32_t b = 0; b < frag.block_count; ++b) {
        frag.max_impact =
            std::max(frag.max_impact,
                     block_dir[term.block_begin + begin + b].max_impact);
      }
      frags.push_back(frag);
    }
    std::sort(frags.begin(), frags.end(),
              [](const FragDirEntry& a, const FragDirEntry& b) {
                if (a.max_impact != b.max_impact) {
                  return a.max_impact > b.max_impact;
                }
                return a.block_begin < b.block_begin;
              });
    entry.frag_count = static_cast<uint32_t>(frags.size());
    directory.terms.push_back(entry);
    directory.fragments.insert(directory.fragments.end(), frags.begin(),
                               frags.end());
  }
  return directory;
}

Status WriteFragmentDirectory(const std::string& path,
                              const FragmentDirectory& directory,
                              const std::string& impact_model) {
  if (directory.fragment_blocks == 0) {
    return Status::InvalidArgument(
        "fragment directory: fragment_blocks must be >= 1");
  }
  return WriteFileAtomically(path, [&](std::FILE* out) {
    FragmentFileHeader header{};
    std::memcpy(header.magic, kFragmentMagic, sizeof(header.magic));
    header.fragment_blocks = directory.fragment_blocks;
    header.flags = 0;
    impact_model.copy(header.impact_model, sizeof(header.impact_model) - 1);
    header.num_terms = directory.terms.size();
    header.num_fragments = directory.fragments.size();
    MOA_RETURN_NOT_OK(WriteBytes(out, &header, sizeof(header)));
    MOA_RETURN_NOT_OK(WriteBytes(out, directory.terms.data(),
                                 directory.terms.size() *
                                     sizeof(TermFragEntry)));
    return WriteBytes(out, directory.fragments.data(),
                      directory.fragments.size() * sizeof(FragDirEntry));
  });
}

Result<std::pair<FragmentFileHeader, FragmentDirectory>>
ReadFragmentDirectory(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("fragment directory: cannot open: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  // ftello, not std::ftell: ftell returns long (32-bit on LLP64), which
  // would mis-size a >= 2 GiB sidecar.
  const off_t end = ::ftello(f);
  std::rewind(f);
  if (end < 0 || static_cast<uint64_t>(end) < sizeof(FragmentFileHeader)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "fragment directory: file shorter than header");
  }
  const uint64_t size = static_cast<uint64_t>(end);

  FragmentFileHeader header{};
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::Internal("fragment directory: header read failed");
  }
  if (std::memcmp(header.magic, kFragmentMagic, sizeof(header.magic)) != 0) {
    std::fclose(f);
    return Status::InvalidArgument(
        "fragment directory: bad magic (not MOAFRG01)");
  }
  if (header.fragment_blocks == 0 || header.num_terms > (1ull << 32) ||
      header.num_fragments > (1ull << 32)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "fragment directory: implausible header counts");
  }
  const uint64_t expected = sizeof(FragmentFileHeader) +
                            header.num_terms * sizeof(TermFragEntry) +
                            header.num_fragments * sizeof(FragDirEntry);
  if (expected != size) {
    return (std::fclose(f),
            Status::InvalidArgument("fragment directory: file size does not "
                                    "match header (truncated or corrupt)"));
  }

  FragmentDirectory directory;
  directory.fragment_blocks = header.fragment_blocks;
  directory.terms.resize(header.num_terms);
  directory.fragments.resize(header.num_fragments);
  if ((header.num_terms > 0 &&
       std::fread(directory.terms.data(), sizeof(TermFragEntry),
                  header.num_terms, f) != header.num_terms) ||
      (header.num_fragments > 0 &&
       std::fread(directory.fragments.data(), sizeof(FragDirEntry),
                  header.num_fragments, f) != header.num_fragments)) {
    std::fclose(f);
    return Status::Internal("fragment directory: body read failed");
  }
  std::fclose(f);

  // Structural validation that needs no segment context: the term
  // directory must tile the fragment directory, and every term's
  // fragments must come in descending max-impact order with sane bounds.
  // Block-range and bound cross-checks against the segment happen at
  // SegmentReader::Open.
  uint64_t next_fragment = 0;
  for (const TermFragEntry& term : directory.terms) {
    if (term.frag_begin != next_fragment ||
        term.frag_count > header.num_fragments - next_fragment) {
      return Status::InvalidArgument(
          "fragment directory: term directory inconsistent");
    }
    double prev = std::numeric_limits<double>::infinity();
    uint32_t prev_begin = 0;
    for (uint32_t i = 0; i < term.frag_count; ++i) {
      const FragDirEntry& frag = directory.fragments[term.frag_begin + i];
      if (frag.block_count == 0) {
        return Status::InvalidArgument("fragment directory: empty fragment");
      }
      if (!std::isfinite(frag.max_impact) || frag.max_impact < 0.0) {
        return Status::InvalidArgument(
            "fragment directory: implausible fragment impact");
      }
      if (frag.max_impact > prev ||
          (frag.max_impact == prev && i > 0 &&
           frag.block_begin <= prev_begin)) {
        return Status::InvalidArgument(
            "fragment directory: fragments not in impact order");
      }
      prev = frag.max_impact;
      prev_begin = frag.block_begin;
    }
    next_fragment += term.frag_count;
  }
  if (next_fragment != header.num_fragments) {
    return Status::InvalidArgument(
        "fragment directory: orphaned fragment entries");
  }
  return std::make_pair(header, std::move(directory));
}

}  // namespace moa
