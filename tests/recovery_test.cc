#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/file_util.h"
#include "engine/database.h"
#include "engine/snapshot.h"
#include "test_util.h"

namespace ivdb {
namespace {

using RecoveryTest = DurableDbTest;

// Forwards to the default Env and counts whole-file reads per file name.
// Segments are decoded on worker threads, hence the mutex.
class ReadCountingEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate_existing) override {
    return base_->NewWritableFile(path, truncate_existing);
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    {
      std::lock_guard<std::mutex> guard(reads_mu_);
      reads_[path.substr(path.find_last_of('/') + 1)]++;
    }
    return base_->ReadFileToString(path, out);
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return base_->RemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status EnsureDirectory(const std::string& path) override {
    return base_->EnsureDirectory(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDirectory(const std::string& path) override {
    return base_->SyncDirectory(path);
  }
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    return base_->ListDirectory(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }

  std::map<std::string, int> reads() {
    std::lock_guard<std::mutex> guard(reads_mu_);
    return reads_;
  }

 private:
  Env* const base_ = Env::Default();
  std::mutex reads_mu_;
  std::map<std::string, int> reads_;
};

TEST_F(RecoveryTest, CommittedWorkSurvivesRestart) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(2, "us", 5.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    // No checkpoint, no clean shutdown: recovery must replay the WAL.
  }
  auto db = OpenDb();
  Transaction* reader = db->Begin();
  auto row = db->Get(reader, "sales", {Value::Int64(1)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[2].AsDouble(), 10.0);
  EXPECT_EQ(db->ScanTable(reader, "sales")->size(), 2u);
  ASSERT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, UncommittedWorkRolledBackAtRestart) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* committed = db->Begin();
    ASSERT_TRUE(db->Insert(committed, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(committed).ok());

    Transaction* in_flight = db->Begin();
    ASSERT_TRUE(db->Insert(in_flight, "sales", Sale(2, "us", 99.0)).ok());
    ASSERT_TRUE(db->Update(in_flight, "sales", Sale(1, "eu", 777.0)).ok());
    // Force the in-flight records to disk so recovery actually sees them
    // (otherwise the crash simply loses them, which is also correct but
    // tests nothing).
    ASSERT_TRUE(db->FlushWal().ok());
    // Crash with in_flight active.
  }
  auto db = OpenDb();
  Transaction* reader = db->Begin();
  auto r1 = db->Get(reader, "sales", {Value::Int64(1)});
  ASSERT_TRUE(r1->has_value());
  EXPECT_EQ((**r1)[2].AsDouble(), 10.0);  // update undone
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(2)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, ViewMaintenanceRecovered) {
  ObjectId fact;
  {
    auto db = OpenDb();
    fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(2, "eu", 7.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db->Begin();
  auto eu = db->GetViewRow(reader, "by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 2);
  EXPECT_EQ((**eu)[2].AsDouble(), 17.0);
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, LogicalUndoAtRestartPreservesCommittedIncrements) {
  // T1 (committed) and T2 (in-flight at crash) increment the same aggregate
  // row. Restart must keep T1's contribution and strip T2's exactly.
  {
    auto db = OpenDb();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());

    Transaction* t1 = db->Begin();
    Transaction* t2 = db->Begin();
    ASSERT_TRUE(db->Insert(t1, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Insert(t2, "sales", Sale(2, "eu", 100.0)).ok());
    ASSERT_TRUE(db->Commit(t1).ok());
    ASSERT_TRUE(db->FlushWal().ok());
    // Crash with t2 active: its INSERT + INCREMENT are on disk, uncommitted.
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db->Begin();
  auto eu = db->GetViewRow(reader, "by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 1);
  EXPECT_EQ((**eu)[2].AsDouble(), 10.0);
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(2)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, SystemTransactionGhostSurvivesUserRollback) {
  // The ghost row is created by an independently-committed system
  // transaction; crashing the user transaction must roll back the increment
  // but keep the ghost (count back to 0).
  {
    auto db = OpenDb();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->FlushWal().ok());
    // Crash with txn active.
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  const ViewInfo* info = db->GetView("by_region").value();
  // Ghost physically present with count 0.
  EXPECT_EQ(db->GetIndex(info->id)->size(), 1u);
  Transaction* reader = db->Begin();
  EXPECT_FALSE(
      db->GetViewRow(reader, "by_region", {Value::String("eu")})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
  // And reclaimable.
  uint64_t reclaimed = 0;
  ASSERT_TRUE(db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 1u);
}

TEST_F(RecoveryTest, CheckpointRetiresDeadSegmentsAndRestores) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, "eu", 1.0)).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint work lands in the (fresh) log.
    Transaction* txn2 = db->Begin();
    ASSERT_TRUE(db->Insert(txn2, "sales", Sale(100, "us", 2.0)).ok());
    ASSERT_TRUE(db->Commit(txn2).ok());
  }
  // The checkpoint sealed the pre-checkpoint segments and retired them, so
  // the log only holds post-checkpoint records.
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  EXPECT_LT(records.size(), 10u);

  auto db = OpenDb();
  Transaction* reader = db->Begin();
  EXPECT_EQ(db->ScanTable(reader, "sales")->size(), 51u);
  EXPECT_TRUE(db->Commit(reader).ok());
}

// On a quiescent database with a drained version store, the image a
// checkpoint builds from snapshot scans is byte for byte the physical
// trees' own serialization: base rows, ghost view rows and secondary-index
// entries alike.
TEST_F(RecoveryTest, QuiescentCheckpointImageEqualsTreeSerialization) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ObjectId view = db->CreateIndexedView(RegionView(fact)).value()->id;
  ObjectId by_qty =
      db->CreateSecondaryIndex("sales_by_qty", "sales", {"qty"}).value()->id;
  const char* const regions[] = {"eu", "us", "apac"};
  Transaction* txn = db->Begin();
  for (int i = 0; i < 700; i++) {
    ASSERT_TRUE(
        db->Insert(txn, "sales", Sale(i, regions[i % 3], i * 0.5, i % 7)).ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);
  // Updates, deletes and a drained group (its view row stays as a ghost).
  txn = db->Begin();
  for (int i = 0; i < 700; i += 3) {
    ASSERT_TRUE(db->Delete(txn, "sales", {Value::Int64(i)}).ok());
  }
  for (int i = 1; i < 700; i += 9) {
    ASSERT_TRUE(db->Update(txn, "sales", Sale(i, "apac", 1.0, 3)).ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);
  for (int i = 0; i < 20 && db->version_store_entries() > 0; i++) {
    db->GarbageCollectVersions();
  }
  ASSERT_EQ(db->version_store_entries(), 0u);
  // Serialized before the checkpoint: the ghost-cleanup pass that follows
  // every checkpoint removes the ghost from the live tree.
  std::map<ObjectId, std::string> expected;
  for (ObjectId id : {fact, view, by_qty}) {
    db->GetIndex(id)->SerializeTo(&expected[id]);
  }

  ASSERT_TRUE(db->Checkpoint().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(dir_ + "/checkpoint.db", &contents).ok());
  SnapshotImage image;
  ASSERT_TRUE(DecodeSnapshot(contents, &image).ok());
  ASSERT_EQ(image.indexes.size(), expected.size());
  for (const auto& [id, payload] : image.indexes) {
    ASSERT_EQ(expected.count(id), 1u) << "index " << id;
    EXPECT_EQ(payload, expected[id]) << "index " << id;
  }
}

// Restart costs one pass over the live log plus one load of the image:
// every segment and the checkpoint file are read exactly once per open.
TEST_F(RecoveryTest, EachSegmentAndTheImageAreReadOncePerOpen) {
  DatabaseOptions options;
  options.dir = dir_;
  options.wal_segment_bytes = 4096;
  const char* const regions[] = {"eu", "us", "apac"};
  {
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
    for (int i = 0; i < 200; i++) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, regions[i % 3], i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      db->Forget(txn);
      if (i == 100) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    // A loser, so the undo pass walks a chain too.
    Transaction* loser = db->Begin();
    ASSERT_TRUE(db->Insert(loser, "sales", Sale(1000, "eu", 5.0)).ok());
    ASSERT_TRUE(db->FlushWal().ok());
  }
  auto segments = LogManager::ListSegmentFiles(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_GE(segments->size(), 3u) << "the log should span several segments";

  ReadCountingEnv env;
  options.env = &env;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  std::map<std::string, int> reads = env.reads();
  EXPECT_EQ(reads["checkpoint.db"], 1);
  for (const std::string& name : *segments) {
    EXPECT_EQ(reads[name], 1) << name;
  }
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db->Begin();
  EXPECT_EQ(db->ScanTable(reader, "sales")->size(), 200u);
  EXPECT_TRUE(db->Commit(reader).ok());
}

// LSNs are dense in a log except where allocation resumed past a gap
// (AdvancePastLsn, as after an image that was ahead of the durable log).
// Undo must still find a loser's records beyond such a gap.
TEST_F(RecoveryTest, UndoFindsLoserRecordsPastAnLsnGap) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  {
    // Skip 100 LSNs inside the newest segment, then log one empty
    // committed transaction there so the gap is on disk.
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    log.AdvancePastLsn(log.last_lsn() + 100);
    for (LogRecordType type : {LogRecordType::kBegin, LogRecordType::kCommit,
                               LogRecordType::kEnd}) {
      LogRecord rec;
      rec.type = type;
      rec.txn_id = 999;
      ASSERT_TRUE(log.Append(&rec).ok());
      ASSERT_TRUE(log.Flush(rec.lsn).ok());
    }
  }
  {
    auto db = OpenDb();
    Transaction* loser = db->Begin();
    ASSERT_TRUE(db->Insert(loser, "sales", Sale(2, "us", 5.0)).ok());
    ASSERT_TRUE(db->FlushWal().ok());
    // Crash with the loser in flight, its records past the gap.
  }
  auto db = OpenDb();
  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(2)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

// The bottom-up image load rebuilds each tree so that it serializes back to
// exactly the payload it was loaded from (nothing replays on top here: the
// database was quiescent, with no ghost rows, when the image was taken).
TEST_F(RecoveryTest, RestoredTreesReserializeToTheirImagePayloads) {
  {
    auto db = OpenDb();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
    ASSERT_TRUE(
        db->CreateSecondaryIndex("sales_by_qty", "sales", {"qty"}).ok());
    const char* const regions[] = {"eu", "us", "apac", "latam"};
    Transaction* txn = db->Begin();
    for (int i = 0; i < 5000; i++) {
      ASSERT_TRUE(db->Insert(txn, "sales",
                             Sale(i, regions[i % 4], i * 0.25, i % 11))
                      .ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
    db->Forget(txn);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(dir_ + "/checkpoint.db", &contents).ok());
  SnapshotImage image;
  ASSERT_TRUE(DecodeSnapshot(contents, &image).ok());
  ASSERT_EQ(image.indexes.size(), 3u);

  auto db = OpenDb();
  for (const auto& [id, payload] : image.indexes) {
    BTree* tree = db->GetIndex(id);
    ASSERT_NE(tree, nullptr) << "index " << id;
    EXPECT_TRUE(tree->Validate().ok()) << "index " << id;
    std::string restored;
    tree->SerializeTo(&restored);
    EXPECT_EQ(restored, payload) << "index " << id;
  }
}

// Recovery registers the image's views before the log is open and then
// replays into their trees, so their ghost cleaners start only once Recover
// has returned. The image holds a ghost (a checkpoint reclaims ghosts only
// after publishing its image) and a second ghost lives in the log alone;
// across two crashes the opens succeed, the cleaner reclaims the second
// ghost through the open log, and the log stays one ascending LSN sequence.
TEST_F(RecoveryTest, GhostCleanersStartOnlyAfterRecovery) {
  DatabaseOptions options;
  options.dir = dir_;
  options.wal_segment_bytes = 4096;
  ObjectId view;
  {
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    view = db->CreateIndexedView(RegionView(fact)).value()->id;
    const char* const regions[] = {"eu", "us", "apac"};
    for (int i = 0; i < 150; i++) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, regions[i % 3], i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      db->Forget(txn);
    }
    auto drain = [&](int first) {
      for (int i = first; i < 150; i += 3) {
        Transaction* txn = db->Begin();
        ASSERT_TRUE(db->Delete(txn, "sales", {Value::Int64(i)}).ok());
        ASSERT_TRUE(db->Commit(txn).ok());
        db->Forget(txn);
      }
    };
    drain(1);  // "us": a ghost the checkpoint image captures
    ASSERT_TRUE(db->Checkpoint().ok());
    drain(2);  // "apac": a ghost only the log knows
    // Crash: no clean shutdown.
  }
  auto segments = LogManager::ListSegmentFiles(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_GE(segments->size(), 2u) << "the log should span several segments";

  options.start_ghost_cleaner = true;
  for (int round = 0; round < 2; round++) {
    SCOPED_TRACE("reopen " + std::to_string(round));
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    if (round == 0) {
      const GhostCleanerMetrics* stats = db->ghost_metrics("by_region");
      ASSERT_NE(stats, nullptr);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (stats->reclaimed->Value() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(stats->reclaimed->Value(), 1u);
    }
    EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1000 + round, "eu", 1.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    db->Forget(txn);
    // Crash again.
  }

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  for (size_t i = 1; i < records.size(); i++) {
    ASSERT_LT(records[i - 1].lsn, records[i].lsn) << "record " << i;
  }
  options.start_ghost_cleaner = false;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  EXPECT_EQ(db->GetIndex(view)->size(), 1u) << "only the eu row is left";
  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1000)})->has_value());
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1001)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, ViewDefinitionSurvivesViaCheckpoint) {
  ObjectId view_id;
  {
    auto db = OpenDb();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    view_id = db->CreateIndexedView(RegionView(fact)).value()->id;
  }
  auto db = OpenDb();
  auto view = db->GetView("by_region");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value()->id, view_id);
  EXPECT_EQ(view.value()->definition.group_by, std::vector<int>{1});
  // The restored view is live: maintenance continues.
  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 3.0)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* committed = db->Begin();
    ASSERT_TRUE(db->Insert(committed, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(committed).ok());
    Transaction* loser = db->Begin();
    ASSERT_TRUE(db->Insert(loser, "sales", Sale(2, "us", 5.0)).ok());
    ASSERT_TRUE(db->FlushWal().ok());
  }
  // Recover, crash immediately (restart undo CLRs are appended but we
  // "crash" again before any checkpoint), recover again.
  for (int round = 0; round < 3; round++) {
    auto db = OpenDb();
    Transaction* reader = db->Begin();
    auto rows = db->ScanTable(reader, "sales");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << "round " << round;
    EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
    EXPECT_TRUE(db->Commit(reader).ok());
  }
}

TEST_F(RecoveryTest, TornLogTailIgnored) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  // Simulate a torn final write on the newest (open) segment.
  auto segments = LogManager::ListSegmentFiles(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string newest = dir_ + "/" + segments->back();
  std::string contents;
  ASSERT_TRUE(ReadFileToString(newest, &contents).ok());
  contents.resize(contents.size() - 3);
  ASSERT_TRUE(WriteStringToFileAtomic(newest, contents).ok());

  auto db = OpenDb();
  Transaction* reader = db->Begin();
  // The commit record was torn... or the END was; either way the database
  // opens and is consistent (the transaction is either fully in or out).
  auto rows = db->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_LE(rows->size(), 1u);
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, MultipleCheckpointCycles) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    for (int round = 0; round < 5; round++) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(
          db->Insert(txn, "sales", Sale(round, "eu", round * 1.0)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  auto db = OpenDb();
  Transaction* reader = db->Begin();
  EXPECT_EQ(db->ScanTable(reader, "sales")->size(), 5u);
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, CrashDuringHeavyMixedWorkloadStaysConsistent) {
  {
    auto db = OpenDb();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
    const char* regions[] = {"eu", "us", "apac"};
    for (int i = 0; i < 60; i++) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(
          db->Insert(txn, "sales", Sale(i, regions[i % 3], i * 0.5)).ok());
      if (i % 4 == 0 && i > 0) {
        Status s = db->Delete(txn, "sales", {Value::Int64(i - 1)});
        // The previous row may not exist (its insert was aborted).
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      }
      if (i % 7 == 3) {
        ASSERT_TRUE(db->Abort(txn).ok());
      } else {
        ASSERT_TRUE(db->Commit(txn).ok());
      }
    }
    // Leave two transactions in flight.
    Transaction* a = db->Begin();
    Transaction* b = db->Begin();
    ASSERT_TRUE(db->Insert(a, "sales", Sale(1000, "eu", 1.0)).ok());
    ASSERT_TRUE(db->Insert(b, "sales", Sale(1001, "us", 2.0)).ok());
    ASSERT_TRUE(db->FlushWal().ok());
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok())
      << db->VerifyViewConsistency("by_region").ToString();
  Transaction* reader = db->Begin();
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(1000)})->has_value());
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(1001)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(RecoveryTest, TimestampsAndIdsAdvancePastLog) {
  uint64_t commit_ts_before;
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 1.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    commit_ts_before = txn->commit_ts();
  }
  auto db = OpenDb();
  Transaction* txn = db->Begin();
  EXPECT_GT(txn->begin_ts(), commit_ts_before);
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(2, "eu", 1.0)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_GT(txn->commit_ts(), commit_ts_before);
}

}  // namespace
}  // namespace ivdb
