#include "txn/txn_manager.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "view/maintenance.h"

namespace ivdb {
namespace {

// Minimal storage for exercising the transaction manager in isolation: one
// map per object id, mutated through the same ApplyRedo contract the engine
// implements.
class FakeStorage : public LogApplier {
 public:
  Status ApplyRedo(LogRecordType op_type, const LogRecord& rec) override {
    auto& object = objects_[rec.object_id];
    switch (op_type) {
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
        object[rec.key] = rec.after;
        return Status::OK();
      case LogRecordType::kDelete:
        object.erase(rec.key);
        return Status::OK();
      case LogRecordType::kIncrement: {
        Row row;
        IVDB_RETURN_NOT_OK(DecodeRow(object.at(rec.key), &row));
        IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, rec.deltas));
        object[rec.key] = EncodeRow(row);
        return Status::OK();
      }
      default:
        return Status::Corruption("unexpected op");
    }
  }

  std::map<uint32_t, std::map<std::string, std::string>> objects_;
};

class TxnTest : public ::testing::Test {
 protected:
  TxnTest()
      : log_(LogManagerOptions{}),  // empty dir => in-memory log
        txns_(&locks_, &log_, &versions_, &storage_) {
    EXPECT_TRUE(log_.Open().ok());
  }

  // Performs op through the WAL-before-apply discipline.
  Status Insert(Transaction* txn, uint32_t obj, const std::string& key,
                const std::string& value) {
    IVDB_RETURN_NOT_OK(txns_.LogInsert(txn, obj, key, value));
    storage_.objects_[obj][key] = value;
    return Status::OK();
  }
  Status Update(Transaction* txn, uint32_t obj, const std::string& key,
                const std::string& value) {
    std::string before = storage_.objects_[obj][key];
    IVDB_RETURN_NOT_OK(txns_.LogUpdate(txn, obj, key, before, value));
    storage_.objects_[obj][key] = value;
    return Status::OK();
  }
  Status Remove(Transaction* txn, uint32_t obj, const std::string& key) {
    std::string before = storage_.objects_[obj][key];
    IVDB_RETURN_NOT_OK(txns_.LogDelete(txn, obj, key, before));
    storage_.objects_[obj].erase(key);
    return Status::OK();
  }
  Status Increment(Transaction* txn, uint32_t obj, const std::string& key,
                   std::vector<ColumnDelta> deltas) {
    IVDB_RETURN_NOT_OK(txns_.LogIncrement(txn, obj, key, deltas));
    Row row;
    IVDB_RETURN_NOT_OK(DecodeRow(storage_.objects_[obj][key], &row));
    IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, deltas));
    storage_.objects_[obj][key] = EncodeRow(row);
    return Status::OK();
  }

  FakeStorage storage_;
  LockManager locks_;
  VersionStore versions_;
  LogManager log_;
  TransactionManager txns_;
};

TEST_F(TxnTest, BeginAssignsIncreasingIdsAndTimestamps) {
  Transaction* a = txns_.Begin();
  Transaction* b = txns_.Begin();
  EXPECT_LT(a->id(), b->id());
  EXPECT_LT(a->begin_ts(), b->begin_ts());
  EXPECT_EQ(a->state(), TxnState::kActive);
  EXPECT_EQ(txns_.ActiveCount(), 2);
  EXPECT_TRUE(txns_.Commit(a).ok());
  EXPECT_TRUE(txns_.Commit(b).ok());
  EXPECT_EQ(txns_.ActiveCount(), 0);
}

TEST_F(TxnTest, ReadOnlyCommitWritesNoLog) {
  Transaction* txn = txns_.Begin();
  Lsn before = log_.last_lsn();
  ASSERT_TRUE(txns_.Commit(txn).ok());
  EXPECT_EQ(log_.last_lsn(), before);
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
}

TEST_F(TxnTest, CommitWritesBeginDataCommitEnd) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "k", "v").ok());
  ASSERT_TRUE(txns_.Commit(txn).ok());
  // BEGIN + INSERT + COMMIT + END
  EXPECT_EQ(log_.last_lsn(), 4u);
  EXPECT_GT(txn->commit_ts(), txn->begin_ts());
  EXPECT_GE(log_.flushed_lsn(), 3u);  // commit record was forced
}

TEST_F(TxnTest, AbortRollsBackInsert) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "k", "v").ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(storage_.objects_[1].count("k"), 0u);
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

TEST_F(TxnTest, AbortRollsBackUpdateAndDelete) {
  Transaction* setup = txns_.Begin();
  ASSERT_TRUE(Insert(setup, 1, "a", "v1").ok());
  ASSERT_TRUE(Insert(setup, 1, "b", "v2").ok());
  ASSERT_TRUE(txns_.Commit(setup).ok());

  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Update(txn, 1, "a", "changed").ok());
  ASSERT_TRUE(Remove(txn, 1, "b").ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(storage_.objects_[1]["a"], "v1");
  EXPECT_EQ(storage_.objects_[1]["b"], "v2");
}

TEST_F(TxnTest, AbortUndoesInReverseOrder) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "k", "v1").ok());
  ASSERT_TRUE(Update(txn, 1, "k", "v2").ok());
  ASSERT_TRUE(Update(txn, 1, "k", "v3").ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(storage_.objects_[1].count("k"), 0u);
}

TEST_F(TxnTest, LogicalUndoOfIncrementPreservesConcurrentWork) {
  // The escrow-recovery property: T1 and T2 increment the same row; T1
  // aborts; T2's contribution must survive exactly.
  Transaction* setup = txns_.Begin();
  Row zero = {Value::Int64(0)};
  ASSERT_TRUE(Insert(setup, 1, "agg", EncodeRow(zero)).ok());
  ASSERT_TRUE(txns_.Commit(setup).ok());

  Transaction* t1 = txns_.Begin();
  Transaction* t2 = txns_.Begin();
  ASSERT_TRUE(Increment(t1, 1, "agg", {{0, Value::Int64(10)}}).ok());
  ASSERT_TRUE(Increment(t2, 1, "agg", {{0, Value::Int64(100)}}).ok());
  ASSERT_TRUE(Increment(t1, 1, "agg", {{0, Value::Int64(1)}}).ok());
  ASSERT_TRUE(txns_.Abort(t1).ok());
  ASSERT_TRUE(txns_.Commit(t2).ok());

  Row row;
  ASSERT_TRUE(DecodeRow(storage_.objects_[1]["agg"], &row).ok());
  EXPECT_EQ(row[0].AsInt64(), 100);
}

TEST_F(TxnTest, AbortWritesClrChain) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "k", "v").ok());
  ASSERT_TRUE(Insert(txn, 1, "k2", "v2").ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  // BEGIN, 2 inserts, ABORT, 2 CLRs, END = 7 records.
  EXPECT_EQ(log_.last_lsn(), 7u);
}

TEST_F(TxnTest, CommitReleasesLocks) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(locks_.Lock(txn->id(), ResourceId::Key(1, "k"), LockMode::kX)
                  .ok());
  ASSERT_TRUE(Insert(txn, 1, "k", "v").ok());
  ASSERT_TRUE(txns_.Commit(txn).ok());
  EXPECT_EQ(locks_.NumHolders(ResourceId::Key(1, "k")), 0);
}

TEST_F(TxnTest, AbortReleasesLocks) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(locks_.Lock(txn->id(), ResourceId::Key(1, "k"), LockMode::kE)
                  .ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(locks_.NumHolders(ResourceId::Key(1, "k")), 0);
}

TEST_F(TxnTest, DoubleCommitRejected) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(txns_.Commit(txn).ok());
  EXPECT_TRUE(txns_.Commit(txn).IsInvalidArgument());
  EXPECT_TRUE(txns_.Abort(txn).IsInvalidArgument());
}

// On a log with a (simulated) device, where a user commit waits for the
// writer. The fixture's log has no device, so there every append is at the
// watermark at once and a skipped flush cannot be told from a forced one.
TEST_F(TxnTest, SystemTxnCommitSkipsForcedFlush) {
  LogManagerOptions device;
  device.flush_delay_micros = 1;
  LogManager log(device);
  TransactionManager txns(&locks_, &log, &versions_, &storage_);
  Transaction* sys = txns.BeginSystem();
  EXPECT_TRUE(sys->is_system());
  ASSERT_TRUE(txns.LogInsert(sys, 1, "ghost", "g").ok());
  storage_.objects_[1]["ghost"] = "g";
  Lsn flushed_before = log.flushed_lsn();
  ASSERT_TRUE(txns.Commit(sys).ok());
  // No forced flush: flushed LSN unchanged.
  EXPECT_EQ(log.flushed_lsn(), flushed_before);
  EXPECT_EQ(storage_.objects_[1]["ghost"], "g");
}

TEST_F(TxnTest, VersionStoreFlipsAtCommit) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "k", "new").ok());
  versions_.NotePendingWrite(1, "k", std::nullopt, txn->id());
  Transaction* early_reader = txns_.Begin();  // snapshot before commit
  ASSERT_TRUE(txns_.Commit(txn).ok());
  Transaction* late_reader = txns_.Begin();

  auto early = versions_.GetAsOf(1, "k", early_reader->begin_ts());
  ASSERT_TRUE(early.use_chain_value);
  EXPECT_FALSE(early.chain_value.has_value());  // not yet inserted

  auto late = versions_.GetAsOf(1, "k", late_reader->begin_ts());
  EXPECT_FALSE(late.use_chain_value);  // reads the physical value

  EXPECT_TRUE(txns_.Commit(early_reader).ok());
  EXPECT_TRUE(txns_.Commit(late_reader).ok());
}

TEST_F(TxnTest, OldestActiveTs) {
  uint64_t idle = txns_.OldestActiveTs();
  Transaction* a = txns_.Begin();
  Transaction* b = txns_.Begin();
  EXPECT_EQ(txns_.OldestActiveTs(), a->begin_ts());
  EXPECT_GE(a->begin_ts(), idle);
  ASSERT_TRUE(txns_.Commit(a).ok());
  EXPECT_EQ(txns_.OldestActiveTs(), b->begin_ts());
  ASSERT_TRUE(txns_.Commit(b).ok());
  EXPECT_GT(txns_.OldestActiveTs(), b->begin_ts());
}

// Far beyond any wait below: these quiesces end when the test commits.
constexpr uint64_t kGenerousQuiesceMicros = 10'000'000;

TEST_F(TxnTest, QuiesceBlocksNewTransactions) {
  Transaction* active = txns_.Begin();
  std::atomic<bool> quiesced{false};
  std::thread checkpointer([&] {
    if (txns_.TryQuiesce(kGenerousQuiesceMicros)) {
      quiesced = true;
      txns_.EndQuiesce();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(quiesced.load());
  ASSERT_TRUE(txns_.Commit(active).ok());
  checkpointer.join();
  EXPECT_TRUE(quiesced.load());
  // Gate re-opens.
  Transaction* after = txns_.Begin();
  ASSERT_TRUE(txns_.Commit(after).ok());
}

// Two quiescent sections that overlap (say, two DDLs on different
// tables): the first one's end must not reopen the gate under the second.
TEST_F(TxnTest, OverlappingQuiesceSectionsKeepTheGateClosed) {
  ASSERT_TRUE(txns_.TryQuiesce(kGenerousQuiesceMicros));
  ASSERT_TRUE(txns_.TryQuiesce(kGenerousQuiesceMicros));
  txns_.EndQuiesce();
  std::atomic<bool> begun{false};
  std::thread user([&] {
    Transaction* txn = txns_.Begin();
    begun = true;
    EXPECT_TRUE(txns_.Commit(txn).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(begun.load()) << "the gate reopened inside a section";
  txns_.EndQuiesce();
  user.join();
  EXPECT_TRUE(begun.load());
}

TEST_F(TxnTest, SystemTxnBypassesQuiesceGate) {
  Transaction* user = txns_.Begin();
  std::thread quiescer([&] {
    if (txns_.TryQuiesce(kGenerousQuiesceMicros)) txns_.EndQuiesce();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // While the quiescer waits on `user`, a system transaction must still run.
  Transaction* sys = txns_.BeginSystem();
  ASSERT_TRUE(txns_.Commit(sys).ok());
  ASSERT_TRUE(txns_.Commit(user).ok());
  quiescer.join();
}

TEST_F(TxnTest, StatsCounters) {
  Transaction* a = txns_.Begin();
  ASSERT_TRUE(Insert(a, 1, "x", "1").ok());
  ASSERT_TRUE(txns_.Commit(a).ok());
  Transaction* b = txns_.Begin();
  ASSERT_TRUE(Insert(b, 1, "y", "1").ok());
  ASSERT_TRUE(txns_.Abort(b).ok());
  Transaction* sys = txns_.BeginSystem();
  ASSERT_TRUE(Insert(sys, 1, "z", "1").ok());
  ASSERT_TRUE(txns_.Commit(sys).ok());
  EXPECT_EQ(txns_.metrics().committed->Value(), 1u);
  EXPECT_EQ(txns_.metrics().aborted->Value(), 1u);
  EXPECT_EQ(txns_.metrics().system_committed->Value(), 1u);
  EXPECT_EQ(txns_.metrics().begun->Value(), 3u);
}

TEST_F(TxnTest, ForgetReclaimsDescriptor) {
  Transaction* txn = txns_.Begin();
  TxnId id = txn->id();
  ASSERT_TRUE(txns_.Commit(txn).ok());
  txns_.Forget(txn);  // must not crash; descriptor freed
  // A fresh transaction gets a fresh id.
  Transaction* next = txns_.Begin();
  EXPECT_GT(next->id(), id);
  EXPECT_TRUE(txns_.Commit(next).ok());
}

TEST_F(TxnTest, SavepointRollsBackSuffixOnly) {
  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Insert(txn, 1, "keep", "v1").ok());
  TransactionManager::Savepoint sp = TransactionManager::GetSavepoint(txn);
  ASSERT_TRUE(Insert(txn, 1, "drop1", "v2").ok());
  ASSERT_TRUE(Update(txn, 1, "keep", "v1-changed").ok());
  ASSERT_TRUE(txns_.RollbackToSavepoint(txn, sp).ok());

  // Statement effects gone, earlier work intact, txn still usable.
  EXPECT_EQ(storage_.objects_[1].count("drop1"), 0u);
  EXPECT_EQ(storage_.objects_[1]["keep"], "v1");
  ASSERT_TRUE(Insert(txn, 1, "after", "v3").ok());
  ASSERT_TRUE(txns_.Commit(txn).ok());
  EXPECT_EQ(storage_.objects_[1]["keep"], "v1");
  EXPECT_EQ(storage_.objects_[1]["after"], "v3");
}

TEST_F(TxnTest, FullAbortAfterSavepointRollbackDoesNotDoubleUndo) {
  Transaction* setup = txns_.Begin();
  ASSERT_TRUE(Insert(setup, 1, "row", "original").ok());
  ASSERT_TRUE(txns_.Commit(setup).ok());

  Transaction* txn = txns_.Begin();
  ASSERT_TRUE(Update(txn, 1, "row", "first").ok());
  TransactionManager::Savepoint sp = TransactionManager::GetSavepoint(txn);
  ASSERT_TRUE(Update(txn, 1, "row", "second").ok());
  ASSERT_TRUE(txns_.RollbackToSavepoint(txn, sp).ok());
  EXPECT_EQ(storage_.objects_[1]["row"], "first");
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(storage_.objects_[1]["row"], "original");
}

TEST_F(TxnTest, SavepointIncrementUndoIsLogical) {
  Transaction* setup = txns_.Begin();
  ASSERT_TRUE(Insert(setup, 1, "agg", EncodeRow({Value::Int64(0)})).ok());
  ASSERT_TRUE(txns_.Commit(setup).ok());

  Transaction* t1 = txns_.Begin();
  Transaction* t2 = txns_.Begin();
  TransactionManager::Savepoint sp = TransactionManager::GetSavepoint(t1);
  ASSERT_TRUE(Increment(t1, 1, "agg", {{0, Value::Int64(7)}}).ok());
  ASSERT_TRUE(Increment(t2, 1, "agg", {{0, Value::Int64(100)}}).ok());
  ASSERT_TRUE(txns_.RollbackToSavepoint(t1, sp).ok());
  ASSERT_TRUE(txns_.Commit(t1).ok());
  ASSERT_TRUE(txns_.Commit(t2).ok());
  Row row;
  ASSERT_TRUE(DecodeRow(storage_.objects_[1]["agg"], &row).ok());
  EXPECT_EQ(row[0].AsInt64(), 100);  // t2's interleaved work preserved
}

TEST_F(TxnTest, SavepointValidation) {
  Transaction* txn = txns_.Begin();
  EXPECT_TRUE(txns_.RollbackToSavepoint(txn, 5).IsInvalidArgument());
  ASSERT_TRUE(txns_.Commit(txn).ok());
  EXPECT_TRUE(txns_.RollbackToSavepoint(txn, 0).IsInvalidArgument());
}

TEST_F(TxnTest, AdvancePast) {
  txns_.AdvancePast(1000, 5000);
  Transaction* txn = txns_.Begin();
  EXPECT_GT(txn->id(), 1000u);
  EXPECT_GT(txn->begin_ts(), 5000u);
  EXPECT_TRUE(txns_.Commit(txn).ok());
}

}  // namespace
}  // namespace ivdb
