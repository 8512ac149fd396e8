#include "view/ghost_cleaner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "common/env.h"
#include "engine/database.h"

namespace ivdb {
namespace {

using namespace std::chrono_literals;

Schema SalesSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
}

Row Sale(int64_t id, int64_t grp, int64_t amount = 1) {
  return {Value::Int64(id), Value::Int64(grp), Value::Int64(amount)};
}

struct Fixture {
  std::unique_ptr<Database> db;
  ObjectId view_id = kInvalidObjectId;

  explicit Fixture(DatabaseOptions options = {}) {
    db = std::move(Database::Open(std::move(options))).value();
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ViewDefinition def;
    def.name = "by_grp";
    def.kind = ViewKind::kAggregate;
    def.fact_table = fact;
    def.group_by = {1};
    def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
    view_id = db->CreateIndexedView(def).value()->id;
  }

  // Runs fn in a transaction and commits it. A failed attempt is rolled
  // back and forgotten; a transient one (kBusy from ghost-row stabilization
  // racing the background cleaner, or a lock-conflict rollback) is retried
  // a bounded number of times.
  void CommitOp(const std::function<Status(Transaction*)>& fn) {
    Status s;
    for (int attempt = 0; attempt < 20; attempt++) {
      Transaction* txn = db->Begin();
      s = fn(txn);
      if (s.ok()) s = db->Commit(txn);
      if (!s.ok() && txn->state() == TxnState::kActive) (void)db->Abort(txn);
      db->Forget(txn);
      if (s.ok() || !(s.IsBusy() || s.RequiresRollback())) break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  uint64_t PhysicalRows() { return db->GetIndex(view_id)->size(); }
};

TEST(GhostCleaner, ReclaimsCommittedGhosts) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });
  f.CommitOp([&](Transaction* t) {
    return f.db->Delete(t, "sales", {Value::Int64(1)});
  });
  EXPECT_EQ(f.PhysicalRows(), 1u);  // ghost with count 0
  uint64_t reclaimed = 0;
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(f.PhysicalRows(), 0u);
  const GhostCleanerMetrics* stats = f.db->ghost_metrics("by_grp");
  EXPECT_EQ(stats->reclaimed->Value(), 1u);
  EXPECT_GE(stats->passes->Value(), 1u);
}

TEST(GhostCleaner, LeavesLiveRowsAlone) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });
  uint64_t reclaimed = 99;
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);
  EXPECT_EQ(f.PhysicalRows(), 1u);
}

TEST(GhostCleaner, SkipsGhostWithUncommittedDecrementer) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });

  // This transaction takes the group to count 0 but is still open: its E
  // lock must make the cleaner skip (an abort would revive the row).
  Transaction* open_txn = f.db->Begin();
  ASSERT_TRUE(f.db->Delete(open_txn, "sales", {Value::Int64(1)}).ok());

  uint64_t reclaimed = 0;
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);
  const GhostCleanerMetrics* stats = f.db->ghost_metrics("by_grp");
  EXPECT_GE(stats->skipped_locked->Value(), 1u);

  ASSERT_TRUE(f.db->Abort(open_txn).ok());  // count back to 1
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);  // revived: not a ghost anymore
  EXPECT_TRUE(f.db->VerifyViewConsistency("by_grp").ok());
}

TEST(GhostCleaner, SkipsRevivedRow) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });
  f.CommitOp([&](Transaction* t) {
    return f.db->Delete(t, "sales", {Value::Int64(1)});
  });
  // Revive the group before the cleaner runs.
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(2, 7)); });
  uint64_t reclaimed = 0;
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);
  Transaction* reader = f.db->Begin();
  auto row = f.db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), 1);
  EXPECT_TRUE(f.db->Commit(reader).ok());
}

TEST(GhostCleaner, SnapshotReaderStillSeesPreCleanupState) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });
  // Open a snapshot BEFORE the delete: it must keep seeing count 1 even
  // after the row is deleted and the ghost is physically reclaimed.
  Transaction* snapshot = f.db->Begin(ReadMode::kSnapshot);
  f.CommitOp([&](Transaction* t) {
    return f.db->Delete(t, "sales", {Value::Int64(1)});
  });
  ASSERT_TRUE(f.db->CleanGhosts().ok());
  EXPECT_EQ(f.PhysicalRows(), 0u);

  auto row = f.db->GetViewRow(snapshot, "by_grp", {Value::Int64(7)});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), 1);
  EXPECT_TRUE(f.db->Commit(snapshot).ok());
}

TEST(GhostCleaner, ManyGhostsReclaimedInOnePass) {
  Fixture f;
  for (int64_t g = 0; g < 50; g++) {
    f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(g, g)); });
    f.CommitOp([&](Transaction* t) {
      return f.db->Delete(t, "sales", {Value::Int64(g)});
    });
  }
  EXPECT_EQ(f.PhysicalRows(), 50u);
  uint64_t reclaimed = 0;
  ASSERT_TRUE(f.db->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 50u);
  EXPECT_EQ(f.PhysicalRows(), 0u);
  EXPECT_TRUE(f.db->VerifyViewConsistency("by_grp").ok());
}

TEST(GhostCleaner, BackgroundModeStartStop) {
  DatabaseOptions options;
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 500;
  Fixture f(options);
  for (int64_t g = 0; g < 10; g++) {
    f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(g, g)); });
    f.CommitOp([&](Transaction* t) {
      return f.db->Delete(t, "sales", {Value::Int64(g)});
    });
  }
  // The background thread reclaims without explicit calls.
  for (int i = 0; i < 100 && f.PhysicalRows() > 0; i++) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(f.PhysicalRows(), 0u);
  // Destruction (Fixture going out of scope) stops the thread cleanly.
}

TEST(GhostCleaner, DegradedEngineStopsPassAndCountsErrors) {
  // Ghost reclamation appends to the WAL (system-transaction DELETEs), so a
  // degraded engine fails every reclamation identically: the pass must stop
  // early with kUnavailable, count the error, and leave the ghosts parked —
  // they are logically absent either way, so this costs space, not
  // correctness.
  std::string dir = ::testing::TempDir() + "ghost_cleaner_degraded";
  std::filesystem::remove_all(dir);
  {
    FaultInjectionEnv env(123);
    DatabaseOptions options;
    options.dir = dir;
    options.sync = SyncMode::kFsync;
    options.env = &env;
    Fixture f(std::move(options));
    for (int64_t g = 0; g < 3; g++) {
      f.CommitOp(
          [&](Transaction* t) { return f.db->Insert(t, "sales", Sale(g, g)); });
      f.CommitOp([&](Transaction* t) {
        return f.db->Delete(t, "sales", {Value::Int64(g)});
      });
    }
    ASSERT_EQ(f.PhysicalRows(), 3u);

    // Degrade the engine: a commit-time fsync failure poisons the WAL.
    env.FailNextSyncs(1);
    Transaction* txn = f.db->Begin();
    ASSERT_TRUE(f.db->Insert(txn, "sales", Sale(100, 50)).ok());
    ASSERT_FALSE(f.db->Commit(txn).ok());
    ASSERT_TRUE(f.db->degraded());
    // The rolled-back insert left one more ghost behind (group 50's row,
    // escrow-decremented back to count 0).
    const uint64_t parked = f.PhysicalRows();
    ASSERT_GE(parked, 3u);

    Status s = f.db->CleanGhosts();
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_EQ(f.PhysicalRows(), parked);  // nothing reclaimed, nothing lost
    const GhostCleanerMetrics* stats = f.db->ghost_metrics("by_grp");
    ASSERT_NE(stats, nullptr);
    EXPECT_GE(stats->errors->Value(), 1u);

    // Sticky: a later pass fails the same way (and counts again) instead of
    // crashing or silently claiming success.
    EXPECT_TRUE(f.db->CleanGhosts().IsUnavailable());

    // The ghosts stay invisible to readers while parked.
    Transaction* reader = f.db->Begin(ReadMode::kSnapshot);
    auto rows = f.db->ScanView(reader, "by_grp");
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
    EXPECT_TRUE(f.db->Commit(reader).ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(GhostCleaner, GhostInvisibleInAllReadModes) {
  Fixture f;
  f.CommitOp([&](Transaction* t) { return f.db->Insert(t, "sales", Sale(1, 7)); });
  f.CommitOp([&](Transaction* t) {
    return f.db->Delete(t, "sales", {Value::Int64(1)});
  });
  for (ReadMode mode :
       {ReadMode::kLocking, ReadMode::kSnapshot, ReadMode::kDirty}) {
    Transaction* reader = f.db->Begin(mode);
    auto row = f.db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
    ASSERT_TRUE(row.ok());
    EXPECT_FALSE(row->has_value()) << static_cast<int>(mode);
    auto rows = f.db->ScanView(reader, "by_grp");
    EXPECT_TRUE(rows->empty());
    EXPECT_TRUE(f.db->Commit(reader).ok());
  }
}

}  // namespace
}  // namespace ivdb
