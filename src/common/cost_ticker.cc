#include "common/cost_ticker.h"

#include <sstream>

namespace moa {

CostCounters& CostTicker::Current() {
  thread_local CostCounters counters;
  return counters;
}

std::string CostCounters::ToString() const {
  std::ostringstream os;
  os << "{seq=" << sequential_reads << " rnd=" << random_reads
     << " score=" << score_evals << " cmp=" << compares
     << " bytes=" << bytes_touched << " blk_dec=" << blocks_decoded
     << " blk_skip=" << blocks_skipped;
  if (shards_visited != 0 || shards_skipped != 0) {
    os << " shard_vis=" << shards_visited << " shard_skip=" << shards_skipped
       << " shard_post_skip=" << shard_postings_skipped;
  }
  if (impact_postings != 0) os << " impact=" << impact_postings;
  if (layer_postings != 0) os << " layer=" << layer_postings;
  os << " scalar=" << Scalar() << "}";
  return os.str();
}

}  // namespace moa
