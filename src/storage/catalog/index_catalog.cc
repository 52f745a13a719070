#include "storage/catalog/index_catalog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "storage/segment/segment_writer.h"

namespace moa {
namespace {

/// Size of a just-written file, for the bytes-written counter. Best
/// effort: a stat failure contributes 0 rather than failing the flush.
double FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// Opens one durable segment (reader + sidecar) and cross-validates the
/// two against each other: document counts, per-document lengths, and the
/// full per-term document frequencies — a sidecar that drifted from its
/// segment would silently corrupt statistics maintenance. Every payload
/// block is decoded once (CheckIntegrity): structural validation cannot
/// see bit rot, which would otherwise surface as silently truncated
/// posting lists.
Result<std::shared_ptr<const CatalogSegment>> OpenCatalogSegment(
    const std::string& dir, const ManifestSegment& entry, size_t num_terms) {
  auto seg = std::make_shared<CatalogSegment>();
  seg->id = entry.id;
  seg->segment_path = dir + "/" + SegmentFileName(entry.id);

  Result<std::unique_ptr<SegmentReader>> reader =
      SegmentReader::Open(seg->segment_path);
  if (!reader.ok()) return reader.status();
  seg->reader = std::move(reader).ValueOrDie();
  if (seg->reader->num_terms() != num_terms) {
    return Status::InvalidArgument(
        "catalog: segment vocabulary disagrees with catalog: " +
        seg->segment_path);
  }
  if (seg->reader->num_docs() != entry.num_docs) {
    return Status::InvalidArgument(
        "catalog: segment document count disagrees with manifest: " +
        seg->segment_path);
  }
  MOA_RETURN_NOT_OK(seg->reader->CheckIntegrity());

  Result<ForwardIndex> fwd = ReadForwardIndex(
      dir + "/" + ForwardFileName(entry.id), entry.num_docs, num_terms);
  if (!fwd.ok()) return fwd.status();
  seg->fwd = std::make_shared<const ForwardIndex>(std::move(fwd).ValueOrDie());

  // Sidecar/segment cross-validation.
  std::vector<uint32_t> df(num_terms, 0);
  for (uint32_t d = 0; d < entry.num_docs; ++d) {
    const DocTerms& terms = seg->fwd->doc(d);
    uint32_t length = 0;
    for (const auto& [t, tf] : terms) {
      ++df[t];
      length += tf;
    }
    if (length != seg->reader->DocLength(d)) {
      return Status::InvalidArgument(
          "catalog: sidecar document length disagrees with segment: " +
          seg->segment_path);
    }
  }
  for (TermId t = 0; t < num_terms; ++t) {
    if (df[t] != seg->reader->DocFrequency(t)) {
      return Status::InvalidArgument(
          "catalog: sidecar document frequency disagrees with segment: " +
          seg->segment_path);
    }
  }

  seg->deleted.assign(entry.num_docs, 0);
  for (uint32_t local : entry.deleted) {
    seg->deleted[local] = 1;
  }
  seg->num_deleted = static_cast<uint32_t>(entry.deleted.size());
  return std::shared_ptr<const CatalogSegment>(std::move(seg));
}

/// Mirrors Memtable::AddDocument's validation without mutating anything,
/// so a group commit can reject a bad document *before* earlier documents
/// of the same batch have entered the shared memtable copy.
Status ValidateDocTerms(const DocTerms& terms, size_t num_terms) {
  DocTerms sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].first >= num_terms) {
      return Status::InvalidArgument("memtable: term id out of vocabulary");
    }
    if (sorted[i].second == 0) {
      return Status::InvalidArgument("memtable: zero term frequency");
    }
    if (i > 0 && sorted[i].first == sorted[i - 1].first) {
      return Status::InvalidArgument("memtable: duplicate term in document");
    }
  }
  return Status::OK();
}

/// seg_X.moa -> its retired sidecar set, best-effort removal. The `.frg`
/// fragment directory is no longer written, but a catalog created by an
/// older version still holds one per segment; unlinking it here keeps
/// merges from leaking it.
void RemoveSegmentFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".frg").c_str());
  std::string fwd_path = path;
  fwd_path.replace(fwd_path.size() - 3, 3, "fwd");
  std::remove(fwd_path.c_str());
}

struct GroupMetrics {
  obs::Counter* commits;
  obs::HistogramMetric* ops;
  obs::Counter* rotations;
  obs::Counter* backpressure;
  static const GroupMetrics& Get() {
    static const GroupMetrics m = [] {
      auto& r = obs::MetricsRegistry::Global();
      return GroupMetrics{r.GetCounter("moa_wal_group_commit_total"),
                          r.GetHistogram("moa_wal_group_ops"),
                          r.GetCounter("moa_wal_rotations_total"),
                          r.GetCounter("moa_bg_backpressure_total")};
    }();
    return m;
  }
};

}  // namespace

/// One enqueued mutation; owned by the submitting thread's stack.
struct IndexCatalog::PendingWrite {
  enum Kind { kAdd, kDelete, kUpdate };
  Kind kind = kAdd;
  const std::vector<DocTerms>* docs = nullptr;  ///< kAdd: the batch
  DocId target = 0;                             ///< kDelete/kUpdate
  const DocTerms* terms = nullptr;              ///< kUpdate: new body

  Status status;      ///< decided by the group leader
  DocId result = 0;   ///< first assigned id (kAdd/kUpdate)
  bool done = false;  ///< guarded by queue_mutex_
};

IndexCatalog::~IndexCatalog() = default;

Result<std::unique_ptr<IndexCatalog>> IndexCatalog::Create(
    const Options& options) {
  if (options.num_terms == 0) {
    return Status::InvalidArgument("catalog: vocabulary size required");
  }
  if (!options.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    if (ec) {
      return Status::Internal("catalog: cannot create directory: " +
                              options.dir + ": " + ec.message());
    }
    if (std::filesystem::exists(options.dir + "/" + kManifestFileName)) {
      return Status::InvalidArgument(
          "catalog: directory already holds a catalog (use Open): " +
          options.dir);
    }
  }
  auto catalog = std::unique_ptr<IndexCatalog>(new IndexCatalog(options));
  if (!options.dir.empty() && options.wal_enabled) {
    // Plant the empty WAL + the manifest naming it immediately: writes
    // acknowledged before the first Flush must already survive a crash.
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Create(options.dir + "/" + WalFileName(1));
    if (!wal.ok()) return wal.status();
    catalog->wal_ = std::move(wal).ValueOrDie();
    catalog->wal_seq_ = 1;
    MOA_RETURN_NOT_OK(WriteManifest(options.dir, ManifestFor({}, 1, 1),
                                    /*strict_dir_sync=*/true));
  }
  catalog->state_ = std::make_shared<const CatalogState>(
      std::vector<std::shared_ptr<const CatalogSegment>>{},
      std::make_shared<const Memtable>(options.num_terms),
      std::vector<uint8_t>{}, CatalogStats(options.num_terms), /*version=*/0);
  return catalog;
}

Result<std::unique_ptr<IndexCatalog>> IndexCatalog::Open(
    const Options& options) {
  if (options.num_terms == 0) {
    return Status::InvalidArgument("catalog: vocabulary size required");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("catalog: Open requires a directory");
  }
  Result<CatalogManifest> manifest_in = ReadManifest(options.dir);
  if (!manifest_in.ok()) return manifest_in.status();
  const CatalogManifest& manifest = manifest_in.ValueOrDie();

  std::vector<std::shared_ptr<const CatalogSegment>> segments;
  CatalogStats stats(options.num_terms);
  uint64_t segment_space = 0;
  for (const ManifestSegment& entry : manifest.segments) {
    Result<std::shared_ptr<const CatalogSegment>> seg =
        OpenCatalogSegment(options.dir, entry, options.num_terms);
    if (!seg.ok()) return seg.status();
    // Live statistics: apply every surviving document's composition.
    const CatalogSegment& s = *seg.ValueOrDie();
    for (uint32_t d = 0; d < s.num_docs(); ++d) {
      if (s.deleted[d] == 0) stats.Apply(s.fwd->doc(d), +1);
    }
    segment_space += s.num_docs();
    segments.push_back(std::move(seg).ValueOrDie());
  }

  auto catalog = std::unique_ptr<IndexCatalog>(new IndexCatalog(options));
  catalog->next_segment_id_ = manifest.next_segment_id;

  auto memtable = std::make_shared<Memtable>(options.num_terms);
  std::vector<uint8_t> memtable_deleted;

  if (manifest.wal_seq > 0) {
    // Replay the live WAL on top of the manifest state: the memtable
    // returns to exactly the acknowledged writes, a torn tail is cut.
    const std::string wal_path =
        options.dir + "/" + WalFileName(manifest.wal_seq);
    Result<WalReplay> replay = ReplayWal(wal_path);
    if (!replay.ok()) {
      return Status::Internal("catalog: manifest names WAL seq " +
                              std::to_string(manifest.wal_seq) +
                              " but replay failed: " +
                              replay.status().ToString());
    }
    for (const WalRecord& record : replay.ValueOrDie().records) {
      if (record.type == WalRecord::kAdd) {
        Result<DocId> local = memtable->AddDocument(record.terms);
        if (!local.ok()) {
          return Status::Internal("catalog: WAL replay add rejected: " +
                                  local.status().ToString());
        }
        memtable_deleted.push_back(0);
        stats.Apply(memtable->doc_terms(local.ValueOrDie()), +1);
        continue;
      }
      const DocId g = record.doc;
      if (g < segment_space) {
        uint64_t base = 0;
        size_t comp = segments.size();
        for (size_t i = 0; i < segments.size(); ++i) {
          if (g < base + segments[i]->num_docs()) {
            comp = i;
            break;
          }
          base += segments[i]->num_docs();
        }
        auto* seg = const_cast<CatalogSegment*>(segments[comp].get());
        const auto local = static_cast<DocId>(g - base);
        if (seg->deleted[local] != 0) {
          // Idempotent: the tombstone already made it into the manifest.
          MOA_LOG(Warning) << "catalog: WAL replay delete of already-dead doc "
                           << g << " skipped";
          continue;
        }
        seg->deleted[local] = 1;
        seg->num_deleted += 1;
        stats.Apply(seg->fwd->doc(local), -1);
      } else {
        const auto local = static_cast<DocId>(g - segment_space);
        if (local >= memtable->num_docs()) {
          return Status::Internal(
              "catalog: WAL replay delete past the replayed doc space");
        }
        if (memtable_deleted[local] != 0) {
          MOA_LOG(Warning) << "catalog: WAL replay delete of already-dead doc "
                           << g << " skipped";
          continue;
        }
        memtable_deleted[local] = 1;
        stats.Apply(memtable->doc_terms(local), -1);
      }
    }
    // Keep appending to the (tail-truncated) live log. A manifest-named
    // WAL stays active even under wal_enabled=false — dropping it would
    // orphan the acknowledged writes it still guards.
    if (!options.wal_enabled) {
      MOA_LOG(Warning) << "catalog: wal_enabled=false ignored for " +
                              options.dir + ": manifest names a WAL";
    }
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::OpenForAppend(wal_path);
    if (!wal.ok()) return wal.status();
    catalog->wal_ = std::move(wal).ValueOrDie();
    catalog->wal_seq_ = manifest.wal_seq;
  } else if (options.wal_enabled) {
    // Pre-WAL catalog reopened with the WAL on: upgrade in place.
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Create(options.dir + "/" + WalFileName(1));
    if (!wal.ok()) return wal.status();
    catalog->wal_ = std::move(wal).ValueOrDie();
    catalog->wal_seq_ = 1;
    MOA_RETURN_NOT_OK(
        WriteManifest(options.dir,
                      ManifestFor(segments, manifest.next_segment_id, 1),
                      /*strict_dir_sync=*/true));
  }

  catalog->state_ = std::make_shared<const CatalogState>(
      std::move(segments), std::move(memtable), std::move(memtable_deleted),
      std::move(stats), /*version=*/0);
  return catalog;
}

std::shared_ptr<const CatalogState> IndexCatalog::Snapshot() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

std::shared_ptr<const ShardReadView> IndexCatalog::OpenReadView() const {
  auto snapshot = std::make_shared<const ShardedSnapshot>(
      std::vector<std::shared_ptr<const CatalogState>>{Snapshot()},
      options_.scoring);
  const ShardReadView* view = &snapshot->shard_source(0);
  return std::shared_ptr<const ShardReadView>(std::move(snapshot), view);
}

void IndexCatalog::Publish(std::shared_ptr<const CatalogState> next) {
  // Gauges track the published state; every mutation funnels through
  // here, so the scrape always sees the latest catalog shape.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("moa_catalog_segments")
      ->Set(static_cast<double>(next->segments().size()));
  const double live = static_cast<double>(next->stats().num_live_docs);
  const double space = static_cast<double>(next->doc_space());
  registry.GetGauge("moa_catalog_live_docs")->Set(live);
  registry.GetGauge("moa_catalog_tombstone_density")
      ->Set(space == 0.0 ? 0.0 : 1.0 - live / space);
  std::lock_guard<std::mutex> lock(state_mutex_);
  state_ = std::move(next);
}

CatalogManifest IndexCatalog::ManifestFor(
    const std::vector<std::shared_ptr<const CatalogSegment>>& segments,
    uint64_t next_segment_id, uint64_t wal_seq) {
  CatalogManifest manifest;
  manifest.next_segment_id = next_segment_id;
  manifest.wal_seq = wal_seq;
  for (const auto& seg : segments) {
    ManifestSegment entry;
    entry.id = seg->id;
    entry.num_docs = seg->num_docs();
    for (uint32_t d = 0; d < seg->deleted.size(); ++d) {
      if (seg->deleted[d] != 0) entry.deleted.push_back(d);
    }
    manifest.segments.push_back(std::move(entry));
  }
  return manifest;
}

void IndexCatalog::SetWriteObserver(std::function<void()> observer) {
  {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    write_observer_ = std::move(observer);
  }
  // Wake writers blocked on backpressure: with the observer gone,
  // nothing will drain the debt, so they must stop waiting.
  backpressure_cv_.notify_all();
}

bool IndexCatalog::OverBudget() const {
  return Snapshot()->memtable().num_docs() >=
         options_.backpressure_memtable_docs;
}

Result<DocId> IndexCatalog::AddDocument(const DocTerms& terms) {
  return AddDocuments({terms});
}

Result<DocId> IndexCatalog::AddDocuments(const std::vector<DocTerms>& docs) {
  PendingWrite write;
  write.kind = PendingWrite::kAdd;
  write.docs = &docs;
  SubmitAndWait(&write);
  if (!write.status.ok()) return write.status;
  return write.result;
}

Status IndexCatalog::DeleteDocument(DocId global) {
  PendingWrite write;
  write.kind = PendingWrite::kDelete;
  write.target = global;
  SubmitAndWait(&write);
  return write.status;
}

Result<DocId> IndexCatalog::UpdateDocument(DocId global,
                                           const DocTerms& terms) {
  PendingWrite write;
  write.kind = PendingWrite::kUpdate;
  write.target = global;
  write.terms = &terms;
  SubmitAndWait(&write);
  if (!write.status.ok()) return write.status;
  return write.result;
}

void IndexCatalog::SubmitAndWait(PendingWrite* write) {
  std::unique_lock<std::mutex> lock(queue_mutex_);

  // Backpressure gates ingest (adds/updates) while maintenance is
  // attached; deletes always pass (they only shrink the live set).
  if (options_.backpressure_memtable_docs > 0 &&
      write->kind != PendingWrite::kDelete) {
    auto observer_attached = [this] {
      std::lock_guard<std::mutex> observer_lock(observer_mutex_);
      return static_cast<bool>(write_observer_);
    };
    if (observer_attached() && OverBudget()) {
      GroupMetrics::Get().backpressure->Add();
      if (options_.backpressure_soft_fail) {
        write->status = Status::ResourceExhausted(
            "catalog: write budget exceeded (memtable debt)");
        write->done = true;
        return;
      }
      // Block until a flush/merge drains the debt. Re-check the observer
      // each wake: a detaching maintenance loop must not strand us.
      while (OverBudget() && observer_attached()) {
        backpressure_cv_.wait_for(lock, std::chrono::milliseconds(50));
      }
    }
  }

  queue_.push_back(write);
  while (!write->done) {
    if (!leader_active_) {
      leader_active_ = true;
      DrainQueue(lock);
      leader_active_ = false;
      queue_cv_.notify_all();
    } else {
      queue_cv_.wait(lock);
    }
  }
}

void IndexCatalog::DrainQueue(std::unique_lock<std::mutex>& lock) {
  while (!queue_.empty()) {
    std::vector<PendingWrite*> group(queue_.begin(), queue_.end());
    queue_.clear();
    lock.unlock();
    CommitGroup(group);
    {
      // The maintenance observer runs outside every catalog lock (it may
      // schedule work that re-enters Flush/Merge).
      std::lock_guard<std::mutex> observer_lock(observer_mutex_);
      if (write_observer_) write_observer_();
    }
    lock.lock();
    for (PendingWrite* w : group) w->done = true;
    queue_cv_.notify_all();
  }
}

void IndexCatalog::CommitGroup(std::vector<PendingWrite*>& group) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const std::shared_ptr<const CatalogState> cur = Snapshot();

  // One copy-on-write set for the whole group.
  auto memtable = std::make_shared<Memtable>(cur->memtable());
  std::vector<uint8_t> memtable_deleted = cur->memtable_deleted();
  CatalogStats stats = cur->stats();
  std::vector<std::shared_ptr<const CatalogSegment>> segments =
      cur->segments();
  std::vector<uint8_t> patched(segments.size(), 0);
  const uint64_t segment_space = cur->memtable_base();
  const uint64_t wal_mark = wal_ ? wal_->appended_bytes() : 0;
  bool wal_dirty = false;
  bool segment_tombstones_changed = false;
  bool any_applied = false;
  Status infra_error;  // a WAL append failure poisons the whole group

  auto apply_add = [&](const std::vector<DocTerms>& docs,
                       DocId* first) -> Status {
    if (docs.empty()) {
      return Status::InvalidArgument("catalog: empty document batch");
    }
    // kEndDoc is the cursor sentinel; no document may ever occupy it.
    if (segment_space + memtable->num_docs() + docs.size() >= kEndDoc) {
      return Status::OutOfRange("catalog: doc-id space exhausted");
    }
    // All-or-nothing: validate the whole batch before the first insert.
    for (const DocTerms& terms : docs) {
      MOA_RETURN_NOT_OK(ValidateDocTerms(terms, options_.num_terms));
    }
    *first = static_cast<DocId>(segment_space + memtable->num_docs());
    for (const DocTerms& terms : docs) {
      Result<DocId> local = memtable->AddDocument(terms);
      if (!local.ok()) {
        infra_error = Status::Internal(
            "catalog: validated document rejected by memtable: " +
            local.status().ToString());
        return infra_error;
      }
      memtable_deleted.push_back(0);
      stats.Apply(memtable->doc_terms(local.ValueOrDie()), +1);
      if (wal_) {
        const Status s = wal_->AppendAdd(memtable->doc_terms(
            local.ValueOrDie()));
        if (!s.ok()) {
          infra_error = s;
          return s;
        }
        wal_dirty = true;
      }
    }
    return Status::OK();
  };

  auto apply_delete = [&](DocId global) -> Status {
    if (global >= segment_space + memtable->num_docs()) {
      return Status::InvalidArgument("catalog: no such document id");
    }
    if (global >= segment_space) {
      const auto local = static_cast<DocId>(global - segment_space);
      if (memtable_deleted[local] != 0) {
        return Status::NotFound("catalog: document already deleted");
      }
      memtable_deleted[local] = 1;
      stats.Apply(memtable->doc_terms(local), -1);
    } else {
      const auto [comp, local] = cur->Locate(global);
      if (segments[comp]->deleted[local] != 0) {
        return Status::NotFound("catalog: document already deleted");
      }
      if (patched[comp] == 0) {
        // Copy-on-first-patch: the copy is private to this group, so the
        // const_cast below mutates an unshared object.
        segments[comp] = std::make_shared<CatalogSegment>(*segments[comp]);
        patched[comp] = 1;
      }
      auto* seg = const_cast<CatalogSegment*>(segments[comp].get());
      seg->deleted[local] = 1;
      seg->num_deleted += 1;
      stats.Apply(seg->fwd->doc(local), -1);
      segment_tombstones_changed = true;
    }
    if (wal_) {
      const Status s = wal_->AppendDelete(global);
      if (!s.ok()) {
        infra_error = s;
        return s;
      }
      wal_dirty = true;
    }
    return Status::OK();
  };

  for (PendingWrite* w : group) {
    if (!infra_error.ok()) {
      w->status = infra_error;
      continue;
    }
    switch (w->kind) {
      case PendingWrite::kAdd: {
        DocId first = 0;
        w->status = apply_add(*w->docs, &first);
        if (w->status.ok()) w->result = first;
        break;
      }
      case PendingWrite::kDelete:
        w->status = apply_delete(w->target);
        break;
      case PendingWrite::kUpdate: {
        // Validate the replacement body *before* the delete so a bad
        // update leaves the old document untouched.
        w->status = ValidateDocTerms(*w->terms, options_.num_terms);
        if (w->status.ok() &&
            segment_space + memtable->num_docs() + 1 >= kEndDoc) {
          w->status = Status::OutOfRange("catalog: doc-id space exhausted");
        }
        if (w->status.ok()) w->status = apply_delete(w->target);
        if (w->status.ok()) {
          DocId first = 0;
          const std::vector<DocTerms> one{*w->terms};
          w->status = apply_add(one, &first);
          if (w->status.ok()) w->result = first;
        }
        break;
      }
    }
    if (w->status.ok()) any_applied = true;
  }

  auto fail_applied = [&](const Status& error) {
    if (wal_ && wal_dirty) {
      // Unacknowledged bytes must never replay; double failures here are
      // logged and left to the next Open's CRC walk.
      const Status t = wal_->TruncateTo(wal_mark);
      if (!t.ok()) {
        MOA_LOG(Error) << "catalog: WAL rollback failed after commit error: "
                       << t.ToString();
      }
    }
    for (PendingWrite* w : group) {
      if (w->status.ok()) w->status = error;
    }
  };

  if (!infra_error.ok()) {
    fail_applied(infra_error);
    return;
  }
  if (!any_applied) return;

  // Durability point: one fsync covers the whole group (or is deferred
  // by the wal_fsync_every batching knob).
  if (wal_ && wal_dirty) {
    const Status s = wal_->SyncIfPending(options_.wal_fsync_every);
    if (!s.ok()) {
      fail_applied(s);
      return;
    }
  }
  // Without a WAL, tombstones on durable segments are made durable in
  // the manifest before the state publishes (the pre-WAL contract).
  if (!wal_ && segment_tombstones_changed && !options_.dir.empty()) {
    const Status s = WriteManifest(
        options_.dir, ManifestFor(segments, next_segment_id_, 0));
    if (!s.ok()) {
      fail_applied(s);
      return;
    }
  }

  Publish(std::make_shared<const CatalogState>(
      std::move(segments), std::move(memtable), std::move(memtable_deleted),
      std::move(stats), cur->version() + 1));
  const GroupMetrics& m = GroupMetrics::Get();
  m.commits->Add();
  m.ops->Observe(static_cast<double>(group.size()));
}

Status IndexCatalog::RotateWal(
    const std::vector<std::shared_ptr<const CatalogSegment>>& segments,
    const Memtable& memtable, const std::vector<uint8_t>& memtable_deleted,
    const char* fault_point) {
  // write-new-WAL → publish-manifest → unlink-old: a crash anywhere
  // leaves the manifest naming exactly one fully-durable WAL.
  const uint64_t new_seq = wal_seq_ + 1;
  const std::string new_path = options_.dir + "/" + WalFileName(new_seq);
  Result<std::unique_ptr<WalWriter>> created = WalWriter::Create(new_path);
  if (!created.ok()) return created.status();
  std::unique_ptr<WalWriter> fresh = std::move(created).ValueOrDie();

  // Seed: reconstruct the post-publish memtable (and its tombstones) so
  // replay of the new WAL alone rebuilds it. Global ids restart at the
  // new segment-space size.
  uint64_t base = 0;
  for (const auto& seg : segments) base += seg->num_docs();
  for (DocId local = 0; local < memtable.num_docs(); ++local) {
    MOA_RETURN_NOT_OK(fresh->AppendAdd(memtable.doc_terms(local)));
    if (memtable_deleted[local] != 0) {
      MOA_RETURN_NOT_OK(
          fresh->AppendDelete(static_cast<DocId>(base + local)));
    }
  }
  MOA_RETURN_NOT_OK(fresh->Sync());

  MOA_RETURN_NOT_OK(WriteManifest(options_.dir,
                                  ManifestFor(segments, next_segment_id_,
                                              new_seq),
                                  /*strict_dir_sync=*/true));
  MOA_RETURN_NOT_OK(Fault(fault_point));

  const std::string old_path =
      options_.dir + "/" + WalFileName(wal_seq_);
  wal_ = std::move(fresh);
  wal_seq_ = new_seq;
  std::remove(old_path.c_str());  // best-effort; orphan is ignored by Open
  GroupMetrics::Get().rotations->Add();
  return Status::OK();
}

Status IndexCatalog::Flush() {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Phase A (locked): capture the memtable prefix to flush and reserve
  // the segment id. Writers keep committing after this returns.
  std::shared_ptr<const Memtable> flush_mem;
  size_t flushed_docs = 0;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> writer(writer_mutex_);
    const std::shared_ptr<const CatalogState> cur = Snapshot();
    if (cur->memtable().empty()) return Status::OK();
    if (options_.dir.empty()) {
      return Status::FailedPrecondition(
          "catalog: Flush requires a catalog directory (memory-only catalog)");
    }
    flush_mem = cur->memtable_ptr();
    flushed_docs = flush_mem->num_docs();
    id = next_segment_id_++;
  }

  // Phase B (unlocked): the expensive file writes. The captured memtable
  // is immutable (copy-on-write), so concurrent commits cannot move it.
  WallTimer flush_timer;
  auto seg = std::make_shared<CatalogSegment>();
  seg->id = id;
  seg->segment_path = options_.dir + "/" + SegmentFileName(id);
  const std::string segment_path = seg->segment_path;
  const std::string forward_path = options_.dir + "/" + ForwardFileName(id);

  Result<InvertedFile> file = flush_mem->ToInvertedFile();
  if (!file.ok()) return file.status();
  MOA_RETURN_NOT_OK(WriteSegment(file.ValueOrDie(), seg->segment_path,
                                 {options_.segment_block_size}));
  MOA_RETURN_NOT_OK(
      WriteForwardIndex(flush_mem->forward_index(), forward_path));
  MOA_RETURN_NOT_OK(Fault("flush:segment-written"));

  Result<std::unique_ptr<SegmentReader>> reader =
      SegmentReader::Open(seg->segment_path);
  if (!reader.ok()) return reader.status();
  seg->reader = std::move(reader).ValueOrDie();
  seg->fwd =
      std::make_shared<const ForwardIndex>(flush_mem->forward_index());

  // Phase C (locked): re-derive everything that may have moved during
  // phase B — tombstones for the flushed prefix, the memtable suffix
  // appended meanwhile — from the *current* state, then publish once.
  {
    std::lock_guard<std::mutex> writer(writer_mutex_);
    const std::shared_ptr<const CatalogState> cur = Snapshot();

    // Flush is id-stable: tombstoned memtable docs carry their tombstone
    // into the segment and are reclaimed by a later merge. Deletes that
    // landed during phase B are included — the tombstone diff rides the
    // same manifest.
    seg->deleted.assign(flushed_docs, 0);
    seg->num_deleted = 0;
    for (size_t d = 0; d < flushed_docs; ++d) {
      if (cur->memtable_deleted()[d] != 0) {
        seg->deleted[d] = 1;
        ++seg->num_deleted;
      }
    }

    // Documents appended during phase B become the successor memtable.
    auto remainder = std::make_shared<Memtable>(options_.num_terms);
    std::vector<uint8_t> remainder_deleted;
    for (size_t d = flushed_docs; d < cur->memtable().num_docs(); ++d) {
      Result<DocId> local =
          remainder->AddDocument(cur->memtable().doc_terms(d));
      if (!local.ok()) {
        return Status::Internal("catalog: memtable carry-over rejected: " +
                                local.status().ToString());
      }
      remainder_deleted.push_back(cur->memtable_deleted()[d]);
    }

    std::vector<std::shared_ptr<const CatalogSegment>> segments =
        cur->segments();
    segments.push_back(seg);

    if (wal_) {
      MOA_RETURN_NOT_OK(RotateWal(segments, *remainder, remainder_deleted,
                                  "flush:wal-rotated"));
    } else {
      MOA_RETURN_NOT_OK(WriteManifest(
          options_.dir, ManifestFor(segments, next_segment_id_, 0)));
    }

    Publish(std::make_shared<const CatalogState>(
        std::move(segments), std::move(remainder),
        std::move(remainder_deleted), cur->stats(), cur->version() + 1));
  }
  backpressure_cv_.notify_all();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("moa_catalog_flush_total")->Add();
  registry.GetHistogram("moa_catalog_flush_ms")
      ->Observe(flush_timer.ElapsedMillis());
  registry.GetCounter("moa_catalog_bytes_written_total")
      ->Add(FileSizeOrZero(segment_path) + FileSizeOrZero(forward_path));
  return Status::OK();
}

Result<size_t> IndexCatalog::Merge(const MergePolicy& policy) {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Phase A (locked): validate the run against the current segment list
  // and capture it. The list's *shape* cannot change during the merge —
  // flushes are serialized by maintenance_mutex_ and commits only patch
  // tombstones — so indices stay aligned through phase C.
  std::vector<std::shared_ptr<const CatalogSegment>> run;
  size_t first = 0;
  size_t count = 0;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> writer(writer_mutex_);
    const std::shared_ptr<const CatalogState> cur = Snapshot();
    const size_t num_segments = cur->segments().size();
    if (policy.first > num_segments) {
      return Status::InvalidArgument("catalog: merge run out of range");
    }
    first = policy.first;
    count = policy.count == 0 ? num_segments - policy.first : policy.count;
    if (policy.first + count > num_segments) {
      return Status::InvalidArgument("catalog: merge run out of range");
    }
    if (count == 0) return size_t{0};
    if (options_.dir.empty()) {
      return Status::FailedPrecondition(
          "catalog: Merge requires a catalog directory (memory-only catalog)");
    }
    run.assign(cur->segments().begin() + static_cast<ptrdiff_t>(first),
               cur->segments().begin() + static_cast<ptrdiff_t>(first + count));
    id = next_segment_id_++;
  }

  // Phase B (unlocked): rebuild the run's surviving documents under
  // compacted local ids, preserving insertion order, and remember the
  // old-local → merged-local mapping so deletes landing during this
  // window can be re-applied to the merged segment in phase C.
  WallTimer merge_timer;
  constexpr DocId kDropped = static_cast<DocId>(-1);
  InvertedFileBuilder builder(options_.num_terms);
  ForwardIndex merged_fwd;
  std::vector<std::vector<DocId>> remap(count);
  DocId next_local = 0;
  for (size_t i = 0; i < count; ++i) {
    const CatalogSegment& seg = *run[i];
    remap[i].assign(seg.num_docs(), kDropped);
    for (uint32_t d = 0; d < seg.num_docs(); ++d) {
      if (seg.deleted[d] != 0) continue;
      remap[i][d] = next_local;
      MOA_RETURN_NOT_OK(builder.AddDocument(next_local++, seg.fwd->doc(d)));
      merged_fwd.Append(seg.fwd->doc(d));
    }
  }

  auto merged = std::make_shared<CatalogSegment>();
  merged->id = id;
  merged->segment_path = options_.dir + "/" + SegmentFileName(id);
  const std::string segment_path = merged->segment_path;
  const std::string forward_path = options_.dir + "/" + ForwardFileName(id);

  const InvertedFile merged_file = builder.Build();
  MOA_RETURN_NOT_OK(WriteSegment(merged_file, merged->segment_path,
                                 {options_.segment_block_size}));
  MOA_RETURN_NOT_OK(WriteForwardIndex(merged_fwd, forward_path));
  MOA_RETURN_NOT_OK(Fault("merge:segment-written"));

  Result<std::unique_ptr<SegmentReader>> reader =
      SegmentReader::Open(merged->segment_path);
  if (!reader.ok()) return reader.status();
  merged->reader = std::move(reader).ValueOrDie();
  merged->deleted.assign(merged->reader->num_docs(), 0);
  merged->num_deleted = 0;
  merged->fwd = std::make_shared<const ForwardIndex>(std::move(merged_fwd));

  // Phase C (locked): re-apply deletes that hit the run during phase B
  // as tombstones on the merged segment, splice, publish once.
  {
    std::lock_guard<std::mutex> writer(writer_mutex_);
    const std::shared_ptr<const CatalogState> cur = Snapshot();

    for (size_t i = 0; i < count; ++i) {
      const CatalogSegment& now = *cur->segments()[first + i];
      for (uint32_t d = 0; d < now.num_docs(); ++d) {
        if (remap[i][d] != kDropped && now.deleted[d] != 0) {
          merged->deleted[remap[i][d]] = 1;
          ++merged->num_deleted;
        }
      }
    }

    // Splice: [prefix] + merged + [suffix]. Later segments' global
    // ranges shift down automatically (bases are computed, not stored).
    std::vector<std::shared_ptr<const CatalogSegment>> segments(
        cur->segments().begin(),
        cur->segments().begin() + static_cast<ptrdiff_t>(first));
    segments.push_back(merged);
    segments.insert(
        segments.end(),
        cur->segments().begin() + static_cast<ptrdiff_t>(first + count),
        cur->segments().end());

    // Merge compacts global ids, so every WAL record naming an old id is
    // invalid for the new state — rotation is mandatory, not an
    // optimization.
    if (wal_) {
      MOA_RETURN_NOT_OK(RotateWal(segments, cur->memtable(),
                                  cur->memtable_deleted(),
                                  "merge:wal-rotated"));
    } else {
      MOA_RETURN_NOT_OK(WriteManifest(
          options_.dir, ManifestFor(segments, next_segment_id_, 0)));
    }

    // Tombstoned docs are gone from storage; live statistics unchanged.
    Publish(std::make_shared<const CatalogState>(
        std::move(segments), cur->memtable_ptr(), cur->memtable_deleted(),
        cur->stats(), cur->version() + 1));
  }
  backpressure_cv_.notify_all();

  // Best-effort space reclamation: the old files left the manifest, so
  // failures here only leave ignorable orphans (in-flight snapshots still
  // hold the old mmaps open; POSIX keeps them readable until unmapped).
  for (const auto& seg : run) {
    RemoveSegmentFiles(seg->segment_path);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("moa_catalog_merge_total")->Add();
  registry.GetHistogram("moa_catalog_merge_ms")
      ->Observe(merge_timer.ElapsedMillis());
  registry.GetCounter("moa_catalog_merge_segments_total")
      ->Add(static_cast<double>(count));
  registry.GetCounter("moa_catalog_bytes_written_total")
      ->Add(FileSizeOrZero(segment_path) + FileSizeOrZero(forward_path));
  return count;
}

}  // namespace moa
