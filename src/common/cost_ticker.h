// Deterministic work accounting for operators and the cost model.
//
// Wall-clock timings vary with the machine; the paper's claims are about
// *work avoided* (postings not read, objects not scored). Every physical
// operator reports its work through CostCounters so that benches can report
// exact, reproducible work ratios alongside wall-clock, and so that the
// Step-3 cost model has a ground truth to calibrate against.
#ifndef MOA_COMMON_COST_TICKER_H_
#define MOA_COMMON_COST_TICKER_H_

#include <cstdint>
#include <string>

namespace moa {

/// \brief Counter bundle describing the work one operator (or plan) did.
///
/// Semantics:
///  - `sequential_reads`: postings/tuples consumed via sorted or scan access.
///  - `random_reads`: point lookups (Fagin random access, sparse-index probe).
///  - `score_evals`: scoring-function invocations.
///  - `compares`: comparison operations in sorts/heaps.
///  - `bytes_touched`: modelled data volume (for fragment-size arguments).
///  - `blocks_decoded` / `blocks_skipped`: compressed posting blocks a
///    segment cursor materialized vs passed over undecoded (block-dir
///    skips and block-max pruning). Storage-level observability for
///    ExplainSearch; deliberately outside Scalar() so pruning changes
///    never move the planner's abstract-cost comparisons.
///  - `shards_visited` / `shards_skipped`: catalog shards the coordinator
///    executed vs pruned by their aggregate impact upper bound;
///    `shard_postings_skipped` is the exact posting volume those pruned
///    shards held for the query's terms (the paper's "work avoided"
///    ledger, lifted to the partition level). Like the block counters,
///    outside Scalar(): shard pruning must not perturb per-shard planner
///    comparisons.
///  - `impact_postings`: postings an impact order scored on the query's
///    behalf (storage/segment/posting_cursor.h, ImpactOrder) — the cost of
///    sorted access over storage without a materialized order. On a
///    catalog snapshot a term's bound or sorted access extends the order's
///    emitted prefix, scoring the dominance layers (tombstoned postings
///    included) and the memtable postings the emission needs; the
///    coordinator books bounds taken before execution. 0 when the order
///    was materialized in memory or the snapshot had already emitted the
///    prefix read.
///  - `layer_postings`: postings a segment grouped into dominance layers
///    (DominanceLayers) on the query's behalf: the first use of a
///    (segment, term) builds them, once per segment, at several times the
///    cost per posting of scoring one. Booked like impact_postings.
///    Both stay outside Scalar(): whether an order or its layers were
///    already built must not move the work ticks.
struct CostCounters {
  int64_t sequential_reads = 0;
  int64_t random_reads = 0;
  int64_t score_evals = 0;
  int64_t compares = 0;
  int64_t bytes_touched = 0;
  int64_t blocks_decoded = 0;
  int64_t blocks_skipped = 0;
  int64_t shards_visited = 0;
  int64_t shards_skipped = 0;
  int64_t shard_postings_skipped = 0;
  int64_t impact_postings = 0;
  int64_t layer_postings = 0;

  bool operator==(const CostCounters&) const = default;
  CostCounters& operator+=(const CostCounters& o) {
    sequential_reads += o.sequential_reads;
    random_reads += o.random_reads;
    score_evals += o.score_evals;
    compares += o.compares;
    bytes_touched += o.bytes_touched;
    blocks_decoded += o.blocks_decoded;
    blocks_skipped += o.blocks_skipped;
    shards_visited += o.shards_visited;
    shards_skipped += o.shards_skipped;
    shard_postings_skipped += o.shard_postings_skipped;
    impact_postings += o.impact_postings;
    layer_postings += o.layer_postings;
    return *this;
  }
  friend CostCounters operator+(CostCounters a, const CostCounters& b) {
    a += b;
    return a;
  }
  friend CostCounters operator-(CostCounters a, const CostCounters& b) {
    a.sequential_reads -= b.sequential_reads;
    a.random_reads -= b.random_reads;
    a.score_evals -= b.score_evals;
    a.compares -= b.compares;
    a.bytes_touched -= b.bytes_touched;
    a.blocks_decoded -= b.blocks_decoded;
    a.blocks_skipped -= b.blocks_skipped;
    a.shards_visited -= b.shards_visited;
    a.shards_skipped -= b.shards_skipped;
    a.shard_postings_skipped -= b.shard_postings_skipped;
    a.impact_postings -= b.impact_postings;
    a.layer_postings -= b.layer_postings;
    return a;
  }

  /// Scalar "abstract cost" used when one number is needed: weights chosen to
  /// reflect a main-memory system where random access costs a few sequential
  /// accesses (cache misses), and scoring dominates comparison.
  double Scalar() const {
    return 1.0 * static_cast<double>(sequential_reads) +
           4.0 * static_cast<double>(random_reads) +
           2.0 * static_cast<double>(score_evals) +
           0.25 * static_cast<double>(compares);
  }

  std::string ToString() const;
};

/// \brief Thread-local accumulation point operators tick into.
///
/// Scoped usage:
///   CostScope scope;                 // zeroes a fresh frame
///   ... run operator ...
///   CostCounters used = scope.Snapshot();
class CostTicker {
 public:
  static CostCounters& Current();

  static void TickSeq(int64_t n = 1) { Current().sequential_reads += n; }
  static void TickRandom(int64_t n = 1) { Current().random_reads += n; }
  static void TickScore(int64_t n = 1) { Current().score_evals += n; }
  static void TickCompare(int64_t n = 1) { Current().compares += n; }
  static void TickBytes(int64_t n) { Current().bytes_touched += n; }
  static void TickBlockDecoded(int64_t n = 1) { Current().blocks_decoded += n; }
  static void TickBlockSkipped(int64_t n = 1) { Current().blocks_skipped += n; }
  static void TickShardVisited(int64_t n = 1) { Current().shards_visited += n; }
  static void TickShardSkipped(int64_t n = 1) { Current().shards_skipped += n; }
  static void TickShardPostingsSkipped(int64_t n) {
    Current().shard_postings_skipped += n;
  }
  static void TickImpactPostings(int64_t n) { Current().impact_postings += n; }
  static void TickLayerPostings(int64_t n) { Current().layer_postings += n; }
};

/// \brief RAII frame: captures the counters delta produced inside the scope.
class CostScope {
 public:
  CostScope() : base_(CostTicker::Current()) {}

  /// Work performed since construction.
  CostCounters Snapshot() const { return CostTicker::Current() - base_; }

 private:
  CostCounters base_;
};

}  // namespace moa

#endif  // MOA_COMMON_COST_TICKER_H_
