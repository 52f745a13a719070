// Fagin-family top-N algorithms (FM, Fag98, Fag99): FA, TA and NRA.
//
// The query is viewed as m "lists", one per query term, each supporting
//   sorted access:  postings by descending per-term weight (impact order)
//   random access:  weight of a given document in the list (0 if absent)
// Scores aggregate monotonically (sum), so upper/lower bound administration
// lets processing stop "as soon as it is certain that the required top N
// answers have been computed" (paper, State of the Art).
//
// Adaptation to sparse IR lists (documented in DESIGN.md): a document absent
// from a list contributes weight 0; a list that is exhausted has sorted-
// access threshold 0. FA's phase-1 target ("n objects seen in *all* lists")
// therefore also terminates when any list is exhausted.
//
// Safety: FA and TA return the exact top-N ranking, and both compose each
// document's score in accessor (query-term) order, so reported scores are
// a deterministic function of the document alone — bit-identical across
// physical partitionings of the document space (the sharded parity suites
// rely on this). NRA returns the exact top-N *set*; reported scores are
// lower bounds accumulated in drain order, so the order within the set may
// differ from the exact order when bounds tie (classical NRA semantics)
// and the reported scores are not partition-independent.
#ifndef MOA_TOPN_FAGIN_H_
#define MOA_TOPN_FAGIN_H_

#include "ir/query_gen.h"
#include "storage/segment/posting_cursor.h"
#include "topn/topn_result.h"

namespace moa {

/// \brief Tuning knobs shared by the Fagin family.
struct FaginOptions {
  /// NRA evaluates its stop condition every `check_every` sorted accesses
  /// (checking after every access is quadratic in the candidate count).
  int64_t check_every = 256;
};

// All three algorithms open one PostingSource::OpenImpactCursor per query
// term and read both accesses from it: sorted access by stepping it,
// random access through its FindWeight. So the same implementation serves
// the in-memory file (materialized impact order, binary search on the
// doc-ordered list, a hit weighed by the model) and a catalog shard (the
// snapshot's cached impact order of its live postings, binary search on
// its doc-ordered entries, which carry the weight; no lock). All require
// impact metadata (HasImpacts) on every non-empty query-term list.

/// Fagin's original algorithm (FA): sorted phase until n documents have
/// been seen in every list, then random-access completion of all seen
/// documents.
Result<TopNResult> FaginFA(const PostingSource& source,
                           const ScoringModel& model, const Query& query,
                           size_t n, const FaginOptions& options = {});

/// Threshold Algorithm (TA): round-robin sorted access with random-access
/// completion of each newly seen document; stops when the n-th best score
/// reaches the threshold (sum of the last weights seen per list).
///
/// Completion is lazy once n documents are held (after the Upper
/// algorithm's bound-driven probing, Marian, Bruno and Gravano, TODS
/// 2004): a document first seen in list i is unseen in every other list,
/// so its weight there is at most that list's current threshold. TA
/// probes the other lists by descending threshold (ties to the lower
/// accessor index) and stops, leaving the document resolved, as soon as
/// its upper bound (known weights plus the unprobed lists' thresholds,
/// summed in accessor order like the score) is *strictly* below the n-th
/// best score; on equality the document could still win on its lower id.
/// Each bound test ticks one compare. A skipped document could not have
/// entered the heap, so answers, scores, sorted accesses, candidates and
/// the stopping round are those of eager completion; only random accesses
/// fall.
Result<TopNResult> FaginTA(const PostingSource& source,
                           const ScoringModel& model, const Query& query,
                           size_t n, const FaginOptions& options = {});

/// No-Random-Access algorithm (NRA): sorted access only, with per-document
/// [lower, upper] score bounds; stops when the n-th best lower bound is at
/// least every other candidate's upper bound.
Result<TopNResult> FaginNRA(const PostingSource& source,
                            const ScoringModel& model, const Query& query,
                            size_t n, const FaginOptions& options = {});

}  // namespace moa

#endif  // MOA_TOPN_FAGIN_H_
