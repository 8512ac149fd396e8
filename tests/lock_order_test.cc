// Tests for the runtime lock-order / invariant checkers (common/lock_order.h,
// common/invariant.h). Violations abort the process, so the firing cases are
// death tests; the passing cases run the real engine paths.

#include "common/lock_order.h"

#include <gtest/gtest.h>

#include "engine/database.h"

namespace ivdb {
namespace {

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ChecksEnabled()) {
      GTEST_SKIP() << "checkers compiled out (NDEBUG without IVDB_CHECKS)";
    }
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockOrderTest, OrderedAcquisitionPasses) {
  ASSERT_EQ(LockOrderDepth(), 0);
  {
    LockOrderScope txn(LockRank::kTxnVisibility, "visibility_mu_");
    EXPECT_EQ(LockOrderDepth(), 1);
    {
      LockOrderScope vs(LockRank::kVersionStore, "version_store_mu_");
      LockOrderScope wal(LockRank::kWalShard, "wal_shard_mu_");
      EXPECT_EQ(LockOrderDepth(), 3);
    }
    EXPECT_EQ(LockOrderDepth(), 1);
  }
  EXPECT_EQ(LockOrderDepth(), 0);
}

TEST_F(LockOrderTest, ReacquisitionAfterReleasePasses) {
  // Sequential (non-nested) use of every rank in any order is legal.
  for (LockRank rank : {LockRank::kWalShard, LockRank::kTxnActive,
                        LockRank::kCatalog, LockRank::kLockManager}) {
    LockOrderScope scope(rank, "sequential");
    EXPECT_EQ(LockOrderDepth(), 1);
  }
  EXPECT_EQ(LockOrderDepth(), 0);
}

TEST_F(LockOrderTest, NonLifoReleaseIsTracked) {
  LockOrderAcquire(LockRank::kTxnActive, "active_mu_");
  LockOrderAcquire(LockRank::kLockManager, "lock_mu_");
  // Release the outer rank first (unique_lock::unlock() mid-scope pattern).
  LockOrderRelease(LockRank::kTxnActive);
  EXPECT_EQ(LockOrderDepth(), 1);
  LockOrderRelease(LockRank::kLockManager);
  EXPECT_EQ(LockOrderDepth(), 0);
}

TEST_F(LockOrderTest, OutOfOrderAcquisitionAborts) {
  // Seeded violation: taking the lock-manager mutex while holding a WAL
  // staging-shard mutex inverts the documented order and must abort with a
  // report.
  EXPECT_DEATH(
      {
        LockOrderScope wal(LockRank::kWalShard, "wal_shard_mu_");
        LockOrderScope lock(LockRank::kLockManager, "lock_manager_mu_");
      },
      "lock-order violation");
}

TEST_F(LockOrderTest, SameRankReacquisitionAborts) {
  // These mutexes are not recursive; re-entering the same rank is a
  // self-deadlock in waiting.
  EXPECT_DEATH(
      {
        LockOrderScope a(LockRank::kVersionStore, "version_store_mu_");
        LockOrderScope b(LockRank::kVersionStore, "version_store_mu_");
      },
      "lock-order violation");
}

TEST_F(LockOrderTest, ViolationReportNamesTheCycle) {
  EXPECT_DEATH(
      {
        LockOrderScope wal(LockRank::kWalFlush, "flush_mu_");
        LockOrderScope txn(LockRank::kTxnVisibility, "visibility_mu_");
      },
      "cycle:");
}

TEST_F(LockOrderTest, InvariantMacroAbortsWithMessage) {
  EXPECT_DEATH(IVDB_INVARIANT(1 == 2, "seeded invariant failure"),
               "seeded invariant failure");
  EXPECT_DEATH(IVDB_ASSERT(false), "IVDB_ASSERT failed");
}

// End-to-end: a full transaction through the engine exercises every
// registered locking site (active/visibility/lock-manager/version-store/WAL/
// catalog) in the documented order without tripping the checker.
TEST_F(LockOrderTest, EngineCommitPathRespectsDocumentedOrder) {
  auto db_result = Database::Open({});
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result.value());

  Schema schema({{"id", TypeId::kInt64},
                 {"region", TypeId::kString},
                 {"amount", TypeId::kInt64}});
  auto table = db->CreateTable("sales", schema, {0});
  ASSERT_TRUE(table.ok());

  ViewDefinition def;
  def.name = "sales_by_region";
  def.fact_table = table.value()->id;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ASSERT_TRUE(db->CreateIndexedView(def).ok());

  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales",
                         {Value::Int64(1), Value::String("eu"),
                          Value::Int64(10)})
                  .ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  Transaction* aborter = db->Begin();
  ASSERT_TRUE(db->Insert(aborter, "sales",
                         {Value::Int64(2), Value::String("us"),
                          Value::Int64(7)})
                  .ok());
  ASSERT_TRUE(db->Abort(aborter).ok());
  EXPECT_EQ(LockOrderDepth(), 0);
}

}  // namespace
}  // namespace ivdb
