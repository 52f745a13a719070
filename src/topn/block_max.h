// Shared block-max pruned accumulation: the term-at-a-time scoring core
// used by MaxScoreTopN and StopAfterTopN's scoring stage.
//
// The dense phase is the classic max-score scan (build/update accumulators
// until no unseen document can reach the top n). The refinement over the
// classic algorithm is the *pruned* phase: once accumulator creation
// stops, a term's remaining work is pure lookup, so instead of scanning
// the whole posting list the helper probes the cursor once per surviving
// accumulator — shallow_advance to the accumulator's doc, bound-check
//
//   acc[d] + MaxImpact(t) + remaining-terms bound  <  nth lower bound
//
// against the running n-th best score, and only deep-advance (decode) when
// the bound cannot rule the document out. Documents ruled out are dropped
// permanently: their ceiling is strictly below the running n-th best
// score, which never decreases, so they can never re-enter the top n.
// Every bound is the source's (PostingSource::MaxImpact), one per
// (snapshot, term) over a catalog. Over block-structured storage (MOAIF03
// segments) the shallow step is a block-directory walk, and a block that
// holds no surviving accumulator is never decoded.
//
// Exactness: every retained document's score is the same sum, added in
// the same term order, as the full dense scan would produce — the top-n
// answer is bit-identical over every storage backend (the parity suites
// enforce this). Abandonment only removes documents strictly below the
// final n-th score, so with `strict` engagement even the (score desc,
// doc asc) tie-broken ranking of the top n is preserved.
#ifndef MOA_TOPN_BLOCK_MAX_H_
#define MOA_TOPN_BLOCK_MAX_H_

#include <unordered_map>
#include <vector>

#include "ir/query_gen.h"
#include "ir/scoring.h"
#include "storage/segment/posting_cursor.h"
#include "topn/maxscore.h"

namespace moa {

/// \brief Tuning for BlockMaxAccumulate.
struct BlockMaxOptions {
  /// Result size the caller ultimately wants; 0 disables pruning.
  size_t n = 0;
  /// What happens when the bound engages (see PruneMode).
  PruneMode mode = PruneMode::kContinue;
  /// Hard cap on live accumulators (0 = unlimited); unsafe when it binds.
  size_t accumulator_budget = 0;
  /// Engage pruning only when the n-th best *strictly* exceeds the
  /// remaining-terms bound. Strict engagement guarantees every excluded
  /// document scores strictly below the final n-th score — callers that
  /// need the exact tie-broken ranking (StopAfterTopN, which is compared
  /// rank-for-rank against the exact baseline) use this; max-score keeps
  /// the classic non-strict test ("exact up to score ties").
  bool strict = false;
  /// Externally known lower bound on the n-th best score (0 = none): the
  /// distributed-max-score seed. The shard coordinator passes the running
  /// global n-th score of the already-merged shards, so this shard prunes
  /// against it from the first posting instead of waiting for n local
  /// accumulators. Any caller passing a nonzero threshold MUST also set
  /// `strict`: with the classic non-strict test an unseen document tying
  /// the threshold exactly could be dropped even though the global
  /// (score desc, doc asc) tie-break might admit it.
  double initial_threshold = 0.0;
};

/// \brief What the accumulation pass observed (for ExecStats).
struct BlockMaxOutcome {
  /// True when pruning engaged (kContinue) or evaluation stopped (kQuit).
  bool stopped_early = false;
};

/// Runs the pruned term-at-a-time accumulation over `terms` *in the given
/// order* (callers choose: df-ascending for max-score, query order for
/// stop-after's bit-identical dense equivalence) and returns the surviving
/// accumulators with their exact scores. Requires source.MaxImpact for
/// every term (callers must have checked HasImpacts).
std::unordered_map<DocId, double> BlockMaxAccumulate(
    const PostingSource& source, const ScoringModel& model,
    const std::vector<TermId>& terms, const BlockMaxOptions& options,
    BlockMaxOutcome* outcome);

}  // namespace moa

#endif  // MOA_TOPN_BLOCK_MAX_H_
