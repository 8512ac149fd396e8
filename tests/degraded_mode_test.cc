// Sticky read-only degraded mode (docs/ROBUSTNESS.md §2).
//
// An unrecoverable WAL I/O failure — a failed commit fsync, a torn flush
// append, a failed checkpoint write — poisons the log: the failing committer
// is rolled back logically, every further write statement (and every new
// locking-mode transaction) is rejected with kUnavailable, and snapshot
// readers keep serving the acknowledged state. Only a restart, whose
// recovery rebuilds from the durable prefix, clears the condition.
#include <gtest/gtest.h>

#include <string>

#include "common/env.h"
#include "engine/database.h"
#include "test_util.h"

namespace ivdb {
namespace {

class DegradedModeTest : public DurableDbTest {
 protected:
  // Drives the engine into degraded mode via a commit-time fsync failure:
  // row 1 is acknowledged while healthy, row 2's commit fails. Returns the
  // degraded database.
  std::unique_ptr<Database> DegradeViaFailedCommit(FaultInjectionEnv* env);
};

std::unique_ptr<Database> DegradedModeTest::DegradeViaFailedCommit(
    FaultInjectionEnv* env) {
  auto db = OpenDb(env, SyncMode::kFsync);
  EXPECT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  Transaction* acked = db->Begin();
  EXPECT_TRUE(db->Insert(acked, "sales", Sale(1, "eu", 10.0)).ok());
  EXPECT_TRUE(db->Commit(acked).ok());

  env->FailNextSyncs(1);
  Transaction* failing = db->Begin();
  EXPECT_TRUE(db->Insert(failing, "sales", Sale(2, "us", 20.0)).ok());
  Status s = db->Commit(failing);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The flush failure left the transaction fully pending, so the engine
  // rolled it back logically before surfacing the error.
  EXPECT_EQ(failing->state(), TxnState::kAborted);
  db->Forget(failing);
  EXPECT_TRUE(db->degraded());
  return db;
}

TEST_F(DegradedModeTest, FsyncFailureAtCommitFlipsEngineReadOnly) {
  FaultInjectionEnv env(7);
  auto db = DegradeViaFailedCommit(&env);

  // Write statements on an existing transaction: rejected, statement
  // atomic, not doomed — but also not worth retrying in-process.
  Transaction* writer = db->Begin();
  Status s = db->Insert(writer, "sales", Sale(3, "eu", 1.0));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_TRUE(s.IsTransient());
  EXPECT_FALSE(s.RequiresRollback());
  (void)db->Abort(writer);
  db->Forget(writer);

  // New write-capable (locking) transactions: not admitted.
  auto locking = db->BeginChecked(ReadMode::kLocking);
  ASSERT_FALSE(locking.ok());
  EXPECT_TRUE(locking.status().IsUnavailable())
      << locking.status().ToString();

  // DDL and checkpoints: rejected too.
  EXPECT_TRUE(db->CreateTable("t2", SalesSchema(), {0}).status()
                  .IsUnavailable());
  EXPECT_TRUE(db->Checkpoint().IsUnavailable());

  // Snapshot readers are admitted and serve exactly the acknowledged state:
  // row 1, never the rolled-back row 2.
  auto reader = db->BeginChecked(ReadMode::kSnapshot);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(db->Get(reader.value(), "sales", {Value::Int64(1)})
                  ->has_value());
  EXPECT_FALSE(db->Get(reader.value(), "sales", {Value::Int64(2)})
                   ->has_value());
  EXPECT_TRUE(db->Commit(reader.value()).ok());

  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_engine_degraded 1"), std::string::npos)
      << metrics;
}

TEST_F(DegradedModeTest, ReopenRecoversAckedStateAndClearsDegradedMode) {
  FaultInjectionEnv env(7);
  DegradeViaFailedCommit(&env).reset();

  auto db = OpenDb();  // real Env: recovery from the durable prefix
  EXPECT_FALSE(db->degraded());
  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_engine_degraded 0"), std::string::npos)
      << metrics;

  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(2)})->has_value());
  ASSERT_TRUE(db->Commit(reader).ok());

  // The engine writes again.
  Transaction* writer = db->Begin();
  ASSERT_TRUE(db->Insert(writer, "sales", Sale(3, "apac", 30.0)).ok());
  ASSERT_TRUE(db->Commit(writer).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
}

TEST_F(DegradedModeTest, TornFlushAppendDegradesEngine) {
  FaultInjectionEnv env(11);
  auto db = OpenDb(&env, SyncMode::kFsync);
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  Transaction* acked = db->Begin();
  ASSERT_TRUE(db->Insert(acked, "sales", Sale(1, "eu", 10.0)).ok());
  ASSERT_TRUE(db->Commit(acked).ok());

  // The next WAL batch write tears before any bytes reach the file.
  env.FailNextAppends(1);
  Transaction* failing = db->Begin();
  ASSERT_TRUE(db->Insert(failing, "sales", Sale(2, "us", 20.0)).ok());
  Status s = db->Commit(failing);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(failing->state(), TxnState::kAborted);
  EXPECT_TRUE(db->degraded());

  Transaction* writer = db->Begin();
  EXPECT_TRUE(db->Insert(writer, "sales", Sale(3, "eu", 1.0))
                  .IsUnavailable());
}

TEST_F(DegradedModeTest, CheckpointWriteFailureDegradesEngine) {
  FaultInjectionEnv env(13);
  auto db = OpenDb(&env, SyncMode::kFsync);
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  for (int64_t id = 1; id <= 2; id++) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(id, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  // The checkpoint image write fails; the previous checkpoint and the full
  // WAL stay intact, but the engine could never truncate the log again, so
  // it degrades while the on-disk pair is still a consistent recovery
  // point.
  env.FailNextAppends(1);
  Status s = db->Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(db->degraded());
  Transaction* writer = db->Begin();
  EXPECT_TRUE(db->Insert(writer, "sales", Sale(9, "eu", 1.0))
                  .IsUnavailable());
  db.reset();

  auto recovered = OpenDb();
  EXPECT_FALSE(recovered->degraded());
  Transaction* reader = recovered->Begin();
  for (int64_t id = 1; id <= 2; id++) {
    EXPECT_TRUE(recovered->Get(reader, "sales", {Value::Int64(id)})
                    ->has_value());
  }
  ASSERT_TRUE(recovered->Commit(reader).ok());
  ASSERT_TRUE(recovered->Checkpoint().ok());
}

TEST_F(DegradedModeTest, DegradeDropsSpanIntoFailingCommittersTrace) {
  FaultInjectionEnv env(17);
  DatabaseOptions options;
  options.dir = dir_;
  options.sync = SyncMode::kFsync;
  options.env = &env;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  env.FailNextSyncs(1);
  Transaction* failing = db->Begin();
  ASSERT_TRUE(db->Insert(failing, "sales", Sale(1, "eu", 10.0)).ok());
  ASSERT_FALSE(db->Commit(failing).ok());

  // The poison callback ran on the committing thread while the
  // transaction ran there: the transition marker lands in its span log,
  // ahead of the rollback the failed commit triggered.
  std::string trace = db->DumpTrace(failing->id());
  size_t p_degraded = trace.find("degraded");
  size_t p_abort = trace.find("txn_abort");
  ASSERT_NE(p_degraded, std::string::npos) << trace;
  ASSERT_NE(p_abort, std::string::npos) << trace;
  EXPECT_LT(p_degraded, p_abort) << trace;
}

// Degraded-mode entry is the black-box moment: the engine must leave a
// flight-recorder dump next to the WAL before anyone asks, so a post-mortem
// has the per-thread timeline that led up to the poisoned batch.
TEST_F(DegradedModeTest, DegradeWritesBlackboxDumpNextToWal) {
  FaultInjectionEnv env(7);
  DegradeViaFailedCommit(&env).reset();

  const std::string path = dir_ + "/blackbox-1.json";
  ASSERT_TRUE(Env::Default()->FileExists(path));
  std::string dump;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &dump).ok());
  // The versioned snapshot envelope, stamped with the dump reason.
  EXPECT_EQ(dump.front(), '{');
  EXPECT_EQ(dump.back(), '}');
  EXPECT_NE(dump.find("\"reason\":\"degraded\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"flight_recorder\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"threads\":["), std::string::npos);
  // The committing thread's history is in the dump: it recorded the
  // acknowledged commit's span before the poisoned batch degraded the
  // engine, and the degraded-entry instant itself.
  EXPECT_NE(dump.find("\"type\":\"commit\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"type\":\"degraded\""), std::string::npos) << dump;

  // A later incident never overwrites an earlier dump: reopen (recovery
  // clears the poison), degrade again, and the next dump takes seq 2.
  FaultInjectionEnv env2(19);
  auto db = OpenDb(&env2, SyncMode::kFsync);
  env2.FailNextSyncs(1);
  Transaction* failing = db->Begin();
  ASSERT_TRUE(db->Insert(failing, "sales", Sale(3, "us", 30.0)).ok());
  ASSERT_FALSE(db->Commit(failing).ok());
  ASSERT_TRUE(db->degraded());
  EXPECT_TRUE(Env::Default()->FileExists(dir_ + "/blackbox-2.json"));
}

TEST_F(DegradedModeTest, RunTransactionDoesNotRetryUnavailable) {
  FaultInjectionEnv env(7);
  auto db = DegradeViaFailedCommit(&env);

  RunTransactionResult result;
  Status s = db->RunTransaction(
      RunTransactionOptions(),
      [&](Transaction* txn) { return db->Insert(txn, "sales", Sale(5, "eu", 1.0)); },
      &result);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // BeginChecked rejects the locking-mode attempt outright, and the sticky
  // status is never retried in-process.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.backoff_micros_total, 0u);
}

}  // namespace
}  // namespace ivdb
