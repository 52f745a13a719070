// ForwardIndex: per-document (term, tf) compositions — the catalog's
// document store, and the MOAFWD01 sidecar that rides next to every
// MOAIF03 segment file.
//
// The inverted file answers "which documents contain term t"; the catalog
// additionally needs the transpose — "which terms does document d
// contain" — for two lifecycle operations:
//   - DeleteDocument: collection statistics (df, cf, token counts) must be
//     decremented by exactly the deleted document's composition, or
//     scoring would drift away from a fresh index of the survivors.
//   - Merge: surviving documents are re-fed through InvertedFileBuilder in
//     O(doc) each instead of transposing every segment's postings.
//
// On-disk layout (MOAFWD01, little-endian, written via atomic_file):
//   header     magic "MOAFWD01", u64 num_docs, u64 payload_bytes
//   offsets    u64[num_docs]  byte offset of each doc's run in payload
//   payload    per doc: varbyte(term_count), then per term in ascending
//              order: varbyte(term gap from previous term), varbyte(tf)
// The first term's gap is its absolute id; subsequent gaps are >= 1.
#ifndef MOA_STORAGE_CATALOG_FORWARD_INDEX_H_
#define MOA_STORAGE_CATALOG_FORWARD_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/posting.h"

namespace moa {

/// One document's bag of terms, ascending by term id, tf >= 1.
using DocTerms = std::vector<std::pair<TermId, uint32_t>>;

/// \brief In-memory forward index: doc -> sorted (term, tf) list.
class ForwardIndex {
 public:
  ForwardIndex() = default;

  /// Appends a document; `terms` must be sorted ascending by term id with
  /// distinct terms and tf >= 1 (validated by the callers that build
  /// documents — Memtable::AddDocument — and by ReadForwardIndex).
  void Append(DocTerms terms) { docs_.push_back(std::move(terms)); }

  size_t num_docs() const { return docs_.size(); }
  const DocTerms& doc(size_t d) const { return docs_[d]; }

  /// Token count (sum of tf) of document d.
  uint32_t DocLength(size_t d) const {
    uint32_t sum = 0;
    for (const auto& [t, tf] : docs_[d]) sum += tf;
    return sum;
  }

 private:
  std::vector<DocTerms> docs_;
};

/// Writes `fwd` as a MOAFWD01 file at `path` (atomic overwrite).
Status WriteForwardIndex(const ForwardIndex& fwd, const std::string& path);

/// Reads and fully validates a MOAFWD01 file: structural bounds, term
/// ordering/range (`num_terms` is the owning catalog's vocabulary) and the
/// expected document count (from the sibling segment's header).
Result<ForwardIndex> ReadForwardIndex(const std::string& path,
                                      uint64_t expected_docs,
                                      size_t num_terms);

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_FORWARD_INDEX_H_
