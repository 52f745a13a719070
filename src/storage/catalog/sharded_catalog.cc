#include "storage/catalog/sharded_catalog.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_map>

namespace moa {

// ------------------------------------------------------------ ShardedCatalog

std::string ShardedCatalog::ShardDir(const Options& options, size_t s) {
  if (options.shard.dir.empty() || options.num_shards == 1) {
    return options.shard.dir;
  }
  return options.shard.dir + "/shard_" + std::to_string(s);
}

bool ShardedCatalog::Exists(const Options& options) {
  return !options.shard.dir.empty() &&
         std::filesystem::exists(ShardDir(options, 0) + "/" +
                                 kManifestFileName);
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Build(
    const Options& options,
    Result<std::unique_ptr<IndexCatalog>> (*open_one)(
        const IndexCatalog::Options&)) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardedCatalog: num_shards must be >= 1");
  }
  auto catalog = std::unique_ptr<ShardedCatalog>(new ShardedCatalog(options));
  catalog->shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    IndexCatalog::Options shard_options = options.shard;
    shard_options.dir = ShardDir(options, s);
    Result<std::unique_ptr<IndexCatalog>> shard = open_one(shard_options);
    if (!shard.ok()) return shard.status();
    catalog->shards_.push_back(std::move(shard).ValueOrDie());
  }
  return catalog;
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Create(
    const Options& options) {
  return Build(options, &IndexCatalog::Create);
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Open(
    const Options& options) {
  return Build(options, &IndexCatalog::Open);
}

size_t ShardedCatalog::LeastLoaded(const std::vector<uint64_t>& doc_space) {
  size_t best = 0;
  for (size_t s = 1; s < doc_space.size(); ++s) {
    if (doc_space[s] < doc_space[best]) best = s;
  }
  return best;
}

std::vector<uint64_t> ShardedCatalog::DocSpaces() const {
  std::vector<uint64_t> spaces(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    spaces[s] = shards_[s]->Snapshot()->doc_space();
  }
  return spaces;
}

Result<DocId> ShardedCatalog::AddDocument(const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  const size_t s = LeastLoaded(DocSpaces());
  Result<DocId> local = shards_[s]->AddDocument(terms);
  if (!local.ok()) return local.status();
  InvalidateSnapshotCache();
  return GlobalOf(local.ValueOrDie(), s, shards_.size());
}

Result<std::vector<DocId>> ShardedCatalog::AddDocuments(
    const std::vector<DocTerms>& docs) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  if (docs.empty()) return std::vector<DocId>{};
  const size_t n = shards_.size();

  // Route greedily in input order against a simulated load vector. From
  // an empty catalog this is exactly round-robin, so a pristine seed gets
  // identity global ids.
  std::vector<uint64_t> spaces = DocSpaces();
  std::vector<size_t> shard_of(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    shard_of[i] = LeastLoaded(spaces);
    ++spaces[shard_of[i]];
  }

  std::vector<DocId> first_local(n, 0);
  const bool one_shard =
      std::all_of(shard_of.begin(), shard_of.end(),
                  [&](size_t s) { return s == shard_of[0]; });
  if (one_shard) {
    // One commit, straight from the caller's batch (no per-shard copy).
    Result<DocId> first = shards_[shard_of[0]]->AddDocuments(docs);
    if (!first.ok()) return first.status();
    first_local[shard_of[0]] = first.ValueOrDie();
  } else {
    // One commit per touched shard, under the snapshot lock so no
    // snapshot shows the batch half applied.
    std::vector<std::vector<DocTerms>> batches(n);
    for (size_t i = 0; i < docs.size(); ++i) {
      batches[shard_of[i]].push_back(docs[i]);
    }
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    for (size_t s = 0; s < n; ++s) {
      if (batches[s].empty()) continue;
      Result<DocId> first = shards_[s]->AddDocuments(batches[s]);
      if (!first.ok()) {
        InvalidateSnapshotCache();  // earlier shards may have committed
        return first.status();
      }
      first_local[s] = first.ValueOrDie();
    }
  }
  InvalidateSnapshotCache();

  std::vector<DocId> ids(docs.size());
  std::vector<DocId> next_local = first_local;  // consecutive per shard
  for (size_t i = 0; i < docs.size(); ++i) {
    const size_t s = shard_of[i];
    ids[i] = GlobalOf(next_local[s]++, s, n);
  }
  return ids;
}

Status ShardedCatalog::DeleteDocument(DocId global) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  const size_t s = ShardOf(global, shards_.size());
  Status status = shards_[s]->DeleteDocument(LocalOf(global, shards_.size()));
  if (status.ok()) InvalidateSnapshotCache();
  return status;
}

Result<DocId> ShardedCatalog::UpdateDocument(DocId global,
                                             const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  const size_t n = shards_.size();
  const size_t victim = ShardOf(global, n);
  const DocId local = LocalOf(global, n);
  // Doc spaces count tombstoned slots, so picking the target before the
  // delete picks what the delete would leave.
  const size_t target = LeastLoaded(DocSpaces());
  if (target == victim) {
    Result<DocId> fresh = shards_[victim]->UpdateDocument(local, terms);
    if (!fresh.ok()) return fresh.status();
    InvalidateSnapshotCache();
    return GlobalOf(fresh.ValueOrDie(), target, n);
  }
  // Cross-shard: delete then add, two commits under the snapshot lock.
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
  MOA_RETURN_NOT_OK(shards_[victim]->DeleteDocument(local));
  Result<DocId> fresh = shards_[target]->AddDocument(terms);
  InvalidateSnapshotCache();
  if (!fresh.ok()) return fresh.status();
  return GlobalOf(fresh.ValueOrDie(), target, n);
}

Status ShardedCatalog::Flush(size_t shard) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  Status status = shards_[shard]->Flush();
  InvalidateSnapshotCache();
  return status;
}

Status ShardedCatalog::FlushAll() {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  for (auto& shard : shards_) {
    const Status status = shard->Flush();
    InvalidateSnapshotCache();
    MOA_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Result<size_t> ShardedCatalog::Merge(size_t shard, const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  Result<size_t> merged = shards_[shard]->Merge(policy);
  InvalidateSnapshotCache();
  return merged;
}

Result<size_t> ShardedCatalog::MergeAll(const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  size_t total = 0;
  for (auto& shard : shards_) {
    Result<size_t> merged = shard->Merge(policy);
    InvalidateSnapshotCache();
    if (!merged.ok()) return merged.status();
    total += merged.ValueOrDie();
  }
  return total;
}

std::shared_ptr<const ShardedSnapshot> ShardedCatalog::Snapshot() const {
  // Declared before the lock, so the snapshot this call replaces is
  // destroyed (when this held its last reference) after the lock is
  // released, on this reader's thread: writers that take the lock do not
  // wait for it to free its orders.
  std::shared_ptr<const ShardedSnapshot> replaced;
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  // Read the generation before the shard states: a commit that bumps it
  // later leaves this snapshot marked stale, never a stale one current.
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached_ == nullptr || cached_generation_ != generation) {
    std::vector<std::shared_ptr<const CatalogState>> states;
    states.reserve(shards_.size());
    for (const auto& shard : shards_) states.push_back(shard->Snapshot());
    replaced = std::move(cached_);
    cached_ = std::make_shared<const ShardedSnapshot>(std::move(states),
                                                      options_.shard.scoring);
    cached_generation_ = generation;
  }
  return cached_;
}

// ----------------------------------------------------------- ShardedSnapshot

struct ShardedSnapshot::ShardEntry {
  ShardEntry(const ShardedSnapshot* snapshot, size_t index,
             std::shared_ptr<const CatalogState> s, ScoringModelKind kind,
             const CatalogStats* global)
      : state(std::move(s)),
        stats_view(global, state.get()),
        model(MakeScoringModel(kind, &stats_view)),
        source(snapshot, index, state.get()),
        composition(state->Composition()) {}

  std::shared_ptr<const CatalogState> state;
  ShardStatsView stats_view;
  std::unique_ptr<ScoringModel> model;
  ShardReadView source;
  CatalogComposition composition;

  // Impact orders by term under the snapshot's global statistics, each
  // with the prefix it has emitted so far, whose first entry is the
  // term's bound (see the header's file comment). A map, so an untouched
  // snapshot allocates nothing.
  mutable std::mutex orders_mutex;
  mutable std::unordered_map<TermId, std::shared_ptr<const ImpactOrder>>
      orders;
};

ShardedSnapshot::ShardedSnapshot(
    std::vector<std::shared_ptr<const CatalogState>> states,
    ScoringModelKind scoring)
    : global_(states.empty() ? 0 : states.front()->num_terms()) {
  // Aggregate the global statistics first: the per-shard models sample
  // the average document length at construction, so they must be built
  // against the completed aggregate.
  for (const auto& state : states) {
    const CatalogStats& s = state->stats();
    for (size_t t = 0; t < s.df.size(); ++t) {
      global_.df[t] += s.df[t];
      global_.cf[t] += s.cf[t];
    }
    global_.num_live_docs += s.num_live_docs;
    global_.total_live_tokens += s.total_live_tokens;
    version_ += state->version();
  }
  entries_.reserve(states.size());
  for (size_t s = 0; s < states.size(); ++s) {
    entries_.push_back(std::make_unique<ShardEntry>(
        this, s, std::move(states[s]), scoring, &global_));
  }
}

ShardedSnapshot::~ShardedSnapshot() = default;

uint64_t ShardedSnapshot::doc_space() const {
  const uint64_t n = entries_.size();
  uint64_t space = 0;
  for (size_t s = 0; s < entries_.size(); ++s) {
    const uint64_t local = entries_[s]->state->doc_space();
    if (local > 0) space = std::max(space, (local - 1) * n + s + 1);
  }
  return space;
}

const CatalogState& ShardedSnapshot::shard_state(size_t s) const {
  return *entries_[s]->state;
}

const ShardReadView& ShardedSnapshot::shard_source(size_t s) const {
  return entries_[s]->source;
}

const ScoringModel& ShardedSnapshot::shard_model(size_t s) const {
  return *entries_[s]->model;
}

SparseIndexCache& ShardedSnapshot::shard_sparse_cache(size_t s) const {
  return entries_[s]->state->sparse_cache();
}

const CatalogComposition& ShardedSnapshot::shard_composition(size_t s) const {
  return entries_[s]->composition;
}

double ShardedSnapshot::ShardTermBound(size_t s, TermId t) const {
  // Exact bound under the snapshot's global statistics: the first posting
  // the term's impact order emits, so a later sorted access reads it from
  // the emitted prefix. A term absent from this shard gets the empty
  // order, which bounds at zero.
  return ShardImpactOrder(s, t)->max_weight();
}

const std::shared_ptr<const ImpactOrder>& ShardedSnapshot::ShardImpactOrder(
    size_t s, TermId t) const {
  const ShardEntry& entry = *entries_[s];
  // A term absent from this shard (the *local* df, not the global one the
  // read view reports) orders nothing and is not cached.
  if (entry.state->stats().df[t] == 0) {
    static const std::shared_ptr<const ImpactOrder> empty =
        std::make_shared<const ImpactOrder>();
    return empty;
  }
  {
    std::lock_guard<std::mutex> lock(entry.orders_mutex);
    const auto it = entry.orders.find(t);
    if (it != entry.orders.end()) return it->second;
  }
  // Outside the lock: a segment's first use of the term builds its layers.
  std::shared_ptr<const ImpactOrder> made = CatalogState::OpenImpactOrder(
      entry.state, t, entry.model->ForTerm(t));
  std::lock_guard<std::mutex> lock(entry.orders_mutex);
  return entry.orders.emplace(t, std::move(made)).first->second;
}

double ShardedSnapshot::ShardQueryBound(size_t s, const Query& query) const {
  double bound = 0.0;
  for (TermId t : query.terms) bound += ShardTermBound(s, t);
  return bound;
}

uint32_t ShardedSnapshot::DocLength(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->DocLength(
      ShardedCatalog::LocalOf(global, n));
}

bool ShardedSnapshot::IsDeleted(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->IsDeleted(
      ShardedCatalog::LocalOf(global, n));
}

const DocTerms& ShardedSnapshot::TermsOf(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->TermsOf(
      ShardedCatalog::LocalOf(global, n));
}

std::vector<DocId> ShardedSnapshot::LiveDocIds() const {
  const size_t n = entries_.size();
  std::vector<DocId> ids;
  for (size_t s = 0; s < entries_.size(); ++s) {
    for (DocId local : entries_[s]->state->LiveDocIds()) {
      ids.push_back(ShardedCatalog::GlobalOf(local, s, n));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ShardedSnapshot::Describe() const {
  if (entries_.size() == 1) return entries_[0]->state->Describe();
  std::ostringstream os;
  os << "sharded(" << entries_.size() << "): [";
  for (size_t s = 0; s < entries_.size(); ++s) {
    if (s > 0) os << "; ";
    os << "shard " << s << ": " << entries_[s]->state->Describe();
  }
  os << "]";
  return os.str();
}

// ------------------------------------------------------------ ShardReadView

size_t ShardReadView::num_terms() const {
  return snapshot_->stats().df.size();
}

const ScoringModel* ShardReadView::model() const {
  return &snapshot_->shard_model(shard_);
}

uint32_t ShardReadView::DocFrequency(TermId t) const {
  return snapshot_->stats().df[t];
}

double ShardReadView::MaxImpact(TermId t) const {
  return snapshot_->ShardTermBound(shard_, t);
}

std::unique_ptr<PostingCursor> ShardReadView::OpenCursor(TermId t) const {
  return state_->OpenMergedCursor(t);
}

std::unique_ptr<ImpactCursor> ShardReadView::OpenImpactCursor(
    TermId t, const ScoringModel& /*model*/) const {
  return ImpactOrder::OpenCursor(snapshot_->ShardImpactOrder(shard_, t));
}

}  // namespace moa
