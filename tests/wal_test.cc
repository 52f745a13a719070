// WAL unit tests: record framing round trips, CRC rejection, torn-tail
// truncation at every byte boundary, rotation naming, fsync batching,
// group-commit rollback (TruncateTo), and catalog-level recovery to
// exactly the acknowledged writes — including the WAL-upgrade path for
// pre-WAL catalogs and the once-WAL-always-WAL reopen rule.
#include "storage/catalog/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog/index_catalog.h"
#include "storage/catalog/manifest.h"

namespace moa {
namespace {

constexpr size_t kVocab = 32;

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/wal_" + name +
                          "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

/// Truncates the file at `path` to `size` bytes (simulating a torn
/// append: the crash cut the tail mid-record).
void TruncateFile(const std::string& path, uint64_t size) {
  std::filesystem::resize_file(path, size);
}

/// Flips one byte in the middle of the file (bit rot / misdirected write).
void CorruptByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(WalTest, FileNameFormatsSequence) {
  EXPECT_EQ(WalFileName(1), "wal_000001.log");
  EXPECT_EQ(WalFileName(42), "wal_000042.log");
}

TEST(WalTest, RoundTripsRecords) {
  const std::string path = FreshDir("roundtrip") + "/wal_000001.log";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto& w = *writer.ValueOrDie();
  // Out-of-order input: the payload canonicalizes to ascending terms.
  ASSERT_TRUE(w.AppendAdd({{5, 2}, {1, 3}}).ok());
  ASSERT_TRUE(w.AppendAdd({}).ok());  // empty document is legal
  ASSERT_TRUE(w.AppendDelete(7).ok());
  ASSERT_TRUE(w.Sync().ok());

  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const WalReplay& r = replay.ValueOrDie();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.valid_bytes, FileSize(path));
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].type, WalRecord::kAdd);
  EXPECT_EQ(r.records[0].terms, (DocTerms{{1, 3}, {5, 2}}));
  EXPECT_TRUE(r.records[1].terms.empty());
  EXPECT_EQ(r.records[2].type, WalRecord::kDelete);
  EXPECT_EQ(r.records[2].doc, 7u);
}

TEST(WalTest, ReplayTruncatesTornTailAtEveryBoundary) {
  const std::string dir = FreshDir("torn");
  // Reference log: two records; cutting anywhere inside the second must
  // replay exactly the first and truncate the file back to it.
  const std::string ref = dir + "/ref.log";
  uint64_t first_end = 0;
  uint64_t full_end = 0;
  {
    auto writer = WalWriter::Create(ref);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie()->AppendAdd({{1, 2}, {3, 1}}).ok());
    first_end = writer.ValueOrDie()->appended_bytes();
    ASSERT_TRUE(writer.ValueOrDie()->AppendDelete(0).ok());
    ASSERT_TRUE(writer.ValueOrDie()->Sync().ok());
    full_end = writer.ValueOrDie()->appended_bytes();
  }

  for (uint64_t cut = first_end; cut < full_end; ++cut) {
    const std::string path = dir + "/cut_" + std::to_string(cut) + ".log";
    std::filesystem::copy_file(ref, path);
    TruncateFile(path, cut);
    auto replay = ReplayWal(path);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": "
                             << replay.status().ToString();
    EXPECT_EQ(replay.ValueOrDie().records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(replay.ValueOrDie().truncated, cut != first_end);
    EXPECT_EQ(replay.ValueOrDie().valid_bytes, first_end);
    // The truncation is physical: the torn bytes are gone.
    EXPECT_EQ(FileSize(path), first_end) << "cut at " << cut;
  }
}

TEST(WalTest, ReplayStopsAtCorruptRecord) {
  const std::string dir = FreshDir("corrupt");
  const std::string path = dir + "/wal_000001.log";
  uint64_t first_end = 0;
  {
    auto writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie()->AppendAdd({{1, 1}}).ok());
    first_end = writer.ValueOrDie()->appended_bytes();
    ASSERT_TRUE(writer.ValueOrDie()->AppendAdd({{2, 2}}).ok());
    ASSERT_TRUE(writer.ValueOrDie()->Sync().ok());
  }
  // Flip a payload byte of the second record: its CRC check fails, the
  // first record survives, the bad tail is cut.
  CorruptByte(path, first_end + 9);
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.ValueOrDie().records.size(), 1u);
  EXPECT_TRUE(replay.ValueOrDie().truncated);
  EXPECT_EQ(FileSize(path), first_end);
}

TEST(WalTest, ReplayRejectsBadHeader) {
  const std::string dir = FreshDir("header");
  const std::string path = dir + "/wal_000001.log";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAWAL!";
  }
  EXPECT_FALSE(ReplayWal(path).ok());
  EXPECT_FALSE(ReplayWal(dir + "/missing.log").ok());
}

TEST(WalTest, TruncateToRollsBackUnacknowledgedRecords) {
  const std::string path = FreshDir("rollback") + "/wal_000001.log";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  auto& w = *writer.ValueOrDie();
  ASSERT_TRUE(w.AppendAdd({{1, 1}}).ok());
  ASSERT_TRUE(w.Sync().ok());
  const uint64_t mark = w.appended_bytes();

  // A failed group: two records appended, then rolled back.
  ASSERT_TRUE(w.AppendAdd({{2, 2}}).ok());
  ASSERT_TRUE(w.AppendDelete(0).ok());
  ASSERT_TRUE(w.TruncateTo(mark).ok());
  EXPECT_EQ(w.appended_bytes(), mark);

  // The writer keeps appending correctly after the rollback.
  ASSERT_TRUE(w.AppendAdd({{3, 3}}).ok());
  ASSERT_TRUE(w.Sync().ok());

  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(replay.ValueOrDie().records[0].terms, (DocTerms{{1, 1}}));
  EXPECT_EQ(replay.ValueOrDie().records[1].terms, (DocTerms{{3, 3}}));
}

TEST(WalTest, SyncIfPendingBatchesFsyncs) {
  const std::string path = FreshDir("batch") + "/wal_000001.log";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  auto& w = *writer.ValueOrDie();
  ASSERT_TRUE(w.AppendAdd({{1, 1}}).ok());
  EXPECT_EQ(w.pending_records(), 1u);
  ASSERT_TRUE(w.SyncIfPending(3).ok());  // below threshold: no sync
  EXPECT_EQ(w.pending_records(), 1u);
  ASSERT_TRUE(w.AppendAdd({{2, 1}}).ok());
  ASSERT_TRUE(w.AppendAdd({{3, 1}}).ok());
  ASSERT_TRUE(w.SyncIfPending(3).ok());  // threshold reached: syncs
  EXPECT_EQ(w.pending_records(), 0u);
}

// ------------------------------------------------------- catalog recovery

IndexCatalog::Options InDir(const std::string& dir) {
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.dir = dir;
  return options;
}

std::vector<Posting> Scan(const CatalogState& state, TermId t) {
  std::vector<Posting> out;
  for (auto c = state.OpenMergedCursor(t); !c->at_end(); c->next()) {
    out.push_back(Posting{c->doc(), c->tf()});
  }
  return out;
}

TEST(WalRecoveryTest, AcknowledgedWritesSurviveWithoutFlush) {
  const std::string dir = FreshDir("no_flush");
  {
    auto catalog = IndexCatalog::Create(InDir(dir));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    auto& c = *catalog.ValueOrDie();
    ASSERT_TRUE(c.AddDocuments({{{1, 2}}, {{2, 3}}, {{1, 1}, {2, 1}}}).ok());
    ASSERT_TRUE(c.DeleteDocument(1).ok());
    ASSERT_TRUE(c.UpdateDocument(0, {{3, 9}}).ok());  // id 3
    // No Flush: the memtable is durable through the WAL alone.
  }
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(state->doc_space(), 4u);
  EXPECT_EQ(state->stats().num_live_docs, 2u);
  EXPECT_TRUE(state->IsDeleted(0));
  EXPECT_TRUE(state->IsDeleted(1));
  EXPECT_EQ(Scan(*state, 1), (std::vector<Posting>{{2, 1}}));
  EXPECT_EQ(Scan(*state, 3), (std::vector<Posting>{{3, 9}}));
}

TEST(WalRecoveryTest, TornTailDropsOnlyUnacknowledgedSuffix) {
  const std::string dir = FreshDir("torn_tail");
  uint64_t acked_bytes = 0;
  {
    auto catalog = IndexCatalog::Create(InDir(dir));
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog.ValueOrDie()->AddDocument({{1, 1}}).ok());
    ASSERT_TRUE(catalog.ValueOrDie()->AddDocument({{2, 2}}).ok());
    acked_bytes = FileSize(dir + "/" + WalFileName(1));
  }
  // Simulate a crash mid-append of a third record: garbage tail (a
  // plausible size field, then the crash — no CRC, no payload).
  {
    std::ofstream out(dir + "/" + WalFileName(1),
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x13, 0x00, 0x00, 0x00, 'g', 'a', 'r'};
    out.write(torn, sizeof(torn));
  }
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(state->doc_space(), 2u);
  EXPECT_EQ(state->stats().num_live_docs, 2u);
  EXPECT_EQ(FileSize(dir + "/" + WalFileName(1)), acked_bytes);

  // The truncated log accepts appends again.
  ASSERT_TRUE(reopened.ValueOrDie()->AddDocument({{3, 3}}).ok());
  auto reopened2 = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened2.ok());
  EXPECT_EQ(reopened2.ValueOrDie()->Snapshot()->doc_space(), 3u);
}

TEST(WalRecoveryTest, FlushRotatesAndBoundsReplay) {
  const std::string dir = FreshDir("rotate");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();
  ASSERT_TRUE(c.AddDocuments({{{1, 1}}, {{2, 2}}}).ok());
  ASSERT_TRUE(c.Flush().ok());
  // Rotation: seq 1 is gone, seq 2 is live and seeded with the (empty)
  // post-flush memtable.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + WalFileName(1)));
  ASSERT_TRUE(std::filesystem::exists(dir + "/" + WalFileName(2)));
  auto manifest = ReadManifest(dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.ValueOrDie().wal_seq, 2u);

  ASSERT_TRUE(c.AddDocument({{3, 3}}).ok());  // id 2, into seq-2 WAL
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->doc_space(), 3u);
  EXPECT_EQ(Scan(*state, 3), (std::vector<Posting>{{2, 3}}));
}

TEST(WalRecoveryTest, RotationSeedCarriesMemtableTombstones) {
  const std::string dir = FreshDir("seed_tombstones");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();
  // A flush while a *later* memtable doc is tombstoned: the rotation seed
  // after a merge must reproduce both the docs and their tombstones.
  ASSERT_TRUE(c.AddDocuments({{{1, 1}}, {{2, 2}}}).ok());
  ASSERT_TRUE(c.Flush().ok());
  ASSERT_TRUE(c.AddDocuments({{{3, 3}}, {{4, 4}}}).ok());  // ids 2, 3
  ASSERT_TRUE(c.DeleteDocument(3).ok());
  // Merge rotates the WAL; the new log must seed memtable docs 2,3 and
  // doc 3's tombstone — replay alone rebuilds the exact state.
  auto merged = c.Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(state->doc_space(), 4u);
  EXPECT_EQ(state->stats().num_live_docs, 3u);
  EXPECT_TRUE(state->IsDeleted(3));
  EXPECT_EQ(Scan(*state, 3), (std::vector<Posting>{{2, 3}}));
  EXPECT_TRUE(Scan(*state, 4).empty());
}

TEST(WalRecoveryTest, PreWalCatalogUpgradesOnOpen) {
  const std::string dir = FreshDir("upgrade");
  {
    IndexCatalog::Options options = InDir(dir);
    options.wal_enabled = false;
    auto catalog = IndexCatalog::Create(options);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog.ValueOrDie()->AddDocument({{1, 1}}).ok());
    ASSERT_TRUE(catalog.ValueOrDie()->Flush().ok());
    // No WAL file anywhere; the manifest says wal_seq 0.
    auto manifest = ReadManifest(dir);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest.ValueOrDie().wal_seq, 0u);
  }
  // Reopen with the WAL on: the catalog upgrades in place...
  {
    auto reopened = IndexCatalog::Open(InDir(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE(reopened.ValueOrDie()->AddDocument({{2, 2}}).ok());
  }
  // ...and the unflushed document survives the next crash.
  auto again = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie()->Snapshot()->doc_space(), 2u);
  EXPECT_EQ(Scan(*again.ValueOrDie()->Snapshot(), 2),
            (std::vector<Posting>{{1, 2}}));
}

TEST(WalRecoveryTest, WalBackedCatalogStaysWalBackedWhenDisabled) {
  const std::string dir = FreshDir("sticky");
  {
    auto catalog = IndexCatalog::Create(InDir(dir));
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog.ValueOrDie()->AddDocument({{1, 1}}).ok());
  }
  // Reopen with wal_enabled = false: the manifest names a WAL, so the
  // catalog must keep it (dropping the log would orphan the acknowledged
  // write) — and further writes stay durable.
  {
    IndexCatalog::Options options = InDir(dir);
    options.wal_enabled = false;
    auto reopened = IndexCatalog::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->doc_space(), 1u);
    ASSERT_TRUE(reopened.ValueOrDie()->AddDocument({{2, 2}}).ok());
  }
  auto again = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie()->Snapshot()->doc_space(), 2u);
}

TEST(WalRecoveryTest, GroupCommitConcurrentWritersAllDurable) {
  const std::string dir = FreshDir("group");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();

  constexpr int kThreads = 8;
  constexpr int kDocsPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kDocsPerThread; ++i) {
        const TermId term = static_cast<TermId>(1 + (t * 7 + i) % (kVocab - 1));
        ASSERT_TRUE(c.AddDocument({{term, 1u + static_cast<uint32_t>(i)}})
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  const uint64_t space = c.Snapshot()->doc_space();
  EXPECT_EQ(space, static_cast<uint64_t>(kThreads * kDocsPerThread));

  // Every acknowledged concurrent write replays.
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(state->doc_space(), space);
  EXPECT_EQ(state->stats().num_live_docs, space);
}

TEST(WalRecoveryTest, EmptyBatchAndBadDocsRejectedAtomically) {
  const std::string dir = FreshDir("validate");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();
  EXPECT_FALSE(c.AddDocuments({}).ok());
  // One bad document rejects the whole batch — nothing is applied, no
  // WAL record is written.
  EXPECT_FALSE(c.AddDocuments({{{1, 1}}, {{kVocab, 1}}}).ok());
  EXPECT_FALSE(c.AddDocuments({{{1, 1}}, {{2, 0}}}).ok());
  EXPECT_FALSE(c.AddDocuments({{{1, 1}}, {{2, 1}, {2, 2}}}).ok());
  EXPECT_EQ(c.Snapshot()->doc_space(), 0u);
  // An update whose replacement is invalid leaves the old doc alone.
  ASSERT_TRUE(c.AddDocument({{1, 1}}).ok());
  EXPECT_FALSE(c.UpdateDocument(0, {{kVocab, 1}}).ok());
  EXPECT_FALSE(c.Snapshot()->IsDeleted(0));

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->doc_space(), 1u);
  EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->stats().num_live_docs, 1u);
}

TEST(WalRecoveryTest, CrashAfterRotationBeforeUnlinkIsHarmless) {
  const std::string dir = FreshDir("rotated_unlinked");
  auto fail_point = std::make_shared<std::string>();
  IndexCatalog::Options options = InDir(dir);
  options.fault_injector = [fail_point](const std::string& point) {
    if (point == *fail_point) {
      return Status::Internal("injected crash at " + point);
    }
    return Status::OK();
  };
  auto catalog = IndexCatalog::Create(options);
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();
  ASSERT_TRUE(c.AddDocuments({{{1, 1}}, {{2, 2}}}).ok());

  // Crash after the new WAL + manifest are durable but before the old
  // WAL is unlinked: both files exist; recovery follows the manifest and
  // ignores the orphan.
  *fail_point = "flush:wal-rotated";
  EXPECT_FALSE(c.Flush().ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + WalFileName(1)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + WalFileName(2)));

  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto state = reopened.ValueOrDie()->Snapshot();
  // The manifest published by the rotation names the flushed segment and
  // the empty seq-2 WAL: both documents live in the segment.
  EXPECT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->doc_space(), 2u);
  EXPECT_EQ(state->stats().num_live_docs, 2u);
}

}  // namespace
}  // namespace moa
