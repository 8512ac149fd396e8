#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"

namespace ivdb {
namespace {

using namespace std::chrono_literals;

Schema SalesSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
}

Row Sale(int64_t id, int64_t grp, int64_t amount) {
  return {Value::Int64(id), Value::Int64(grp), Value::Int64(amount)};
}

ViewDefinition GroupView(ObjectId fact, const std::string& name = "by_grp") {
  ViewDefinition def;
  def.name = name;
  def.kind = ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  return def;
}

std::unique_ptr<Database> OpenDb(DatabaseOptions options = {}) {
  auto result = Database::Open(std::move(options));
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// Runs a full user transaction with automatic retry on rollback-required
// outcomes; returns number of aborts encountered.
int RunWithRetry(Database* db, const std::function<Status(Transaction*)>& fn) {
  int aborts = 0;
  while (true) {
    Transaction* txn = db->Begin();
    Status s = fn(txn);
    if (s.ok()) s = db->Commit(txn);
    if (s.ok()) {
      db->Forget(txn);
      return aborts;
    }
    aborts++;
    if (txn->state() == TxnState::kActive) (void)db->Abort(txn);
    db->Forget(txn);
    EXPECT_TRUE(s.RequiresRollback() || s.IsBusy()) << s.ToString();
  }
}

TEST(Concurrency, ConcurrentEscrowIncrementsOnOneGroup) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 100;
  std::atomic<int64_t> next_id{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; i++) {
        int64_t id = next_id.fetch_add(1);
        RunWithRetry(db.get(), [&](Transaction* txn) {
          return db->Insert(txn, "sales", Sale(id, /*grp=*/7, /*amount=*/1));
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  Transaction* reader = db->Begin();
  auto row = db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), kThreads * kTxnsPerThread);
  EXPECT_EQ((**row)[2].AsInt64(), kThreads * kTxnsPerThread);
  EXPECT_TRUE(db->Commit(reader).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
}

TEST(Concurrency, EscrowAllowsTrueConcurrencyXLocksDoNot) {
  // Two transactions increment the same aggregate row; with escrow the
  // second proceeds while the first is still open, with X locks it blocks.
  for (bool use_escrow : {true, false}) {
    DatabaseOptions options;
    options.use_escrow_locks = use_escrow;
    options.lock_wait_timeout = 200ms;
    auto db = OpenDb(options);
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());
    // Seed the group so neither transaction needs ghost creation.
    Transaction* seed = db->Begin();
    ASSERT_TRUE(db->Insert(seed, "sales", Sale(0, 7, 1)).ok());
    ASSERT_TRUE(db->Commit(seed).ok());

    Transaction* t1 = db->Begin();
    ASSERT_TRUE(db->Insert(t1, "sales", Sale(1, 7, 1)).ok());

    Transaction* t2 = db->Begin();
    Status s = db->Insert(t2, "sales", Sale(2, 7, 1));
    if (use_escrow) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(db->Commit(t2).ok());
      ASSERT_TRUE(db->Commit(t1).ok());
    } else {
      // Blocks on the aggregate row's X lock until timeout.
      EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
      ASSERT_TRUE(db->Abort(t2).ok());
      ASSERT_TRUE(db->Commit(t1).ok());
    }
    EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
  }
}

TEST(Concurrency, LockingReaderBlocksBehindEscrowWriter) {
  DatabaseOptions options;
  options.lock_wait_timeout = 150ms;
  auto db = OpenDb(options);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());
  Transaction* seed = db->Begin();
  ASSERT_TRUE(db->Insert(seed, "sales", Sale(0, 7, 1)).ok());
  ASSERT_TRUE(db->Commit(seed).ok());

  Transaction* writer = db->Begin();
  ASSERT_TRUE(db->Insert(writer, "sales", Sale(1, 7, 1)).ok());

  Transaction* reader = db->Begin(ReadMode::kLocking);
  auto blocked = db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
  EXPECT_TRUE(blocked.status().IsTimedOut()) << blocked.status().ToString();
  EXPECT_TRUE(db->Abort(reader).ok());
  ASSERT_TRUE(db->Commit(writer).ok());
}

TEST(Concurrency, SnapshotReaderNeverBlocksAndSeesConsistentState) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());
  Transaction* seed = db->Begin();
  ASSERT_TRUE(db->Insert(seed, "sales", Sale(0, 7, 10)).ok());
  ASSERT_TRUE(db->Commit(seed).ok());

  Transaction* writer = db->Begin();
  ASSERT_TRUE(db->Insert(writer, "sales", Sale(1, 7, 100)).ok());

  // The snapshot reader strips the uncommitted increment.
  Transaction* reader = db->Begin(ReadMode::kSnapshot);
  auto row = db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), 1);
  EXPECT_EQ((**row)[2].AsInt64(), 10);

  ASSERT_TRUE(db->Commit(writer).ok());
  // Same snapshot: still the old state even after the writer committed.
  auto again = db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
  ASSERT_TRUE(again->has_value());
  EXPECT_EQ((**again)[2].AsInt64(), 10);
  EXPECT_TRUE(db->Commit(reader).ok());

  Transaction* later = db->Begin(ReadMode::kSnapshot);
  auto fresh = db->GetViewRow(later, "by_grp", {Value::Int64(7)});
  EXPECT_EQ((**fresh)[2].AsInt64(), 110);
  EXPECT_TRUE(db->Commit(later).ok());
}

TEST(Concurrency, SnapshotReaderDuringManyWritersGetsCommittedPrefix) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_id{0};
  std::thread writer([&] {
    while (!stop) {
      int64_t id = next_id.fetch_add(1);
      RunWithRetry(db.get(), [&](Transaction* txn) {
        return db->Insert(txn, "sales", Sale(id, 7, 1));
      });
    }
  });

  // Snapshot invariant: in this workload every committed transaction adds
  // exactly (count += 1, total += 1), so any consistent snapshot must see
  // count == total.
  for (int i = 0; i < 200; i++) {
    Transaction* reader = db->Begin(ReadMode::kSnapshot);
    auto row = db->GetViewRow(reader, "by_grp", {Value::Int64(7)});
    ASSERT_TRUE(row.ok());
    if (row->has_value()) {
      EXPECT_EQ((**row)[1].AsInt64(), (**row)[2].AsInt64());
    }
    EXPECT_TRUE(db->Commit(reader).ok());
    db->Forget(reader);
  }
  stop = true;
  writer.join();
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
}

TEST(Concurrency, DeadlocksResolvedAndWorkCompletes) {
  DatabaseOptions options;
  options.lock_wait_timeout = 2000ms;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  Transaction* seed = db->Begin();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(db->Insert(seed, "sales", Sale(i, 0, 0)).ok());
  }
  ASSERT_TRUE(db->Commit(seed).ok());

  // Threads update two rows in opposite orders: classic deadlock recipe.
  std::atomic<int> total_aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      for (int i = 0; i < 50; i++) {
        int a = static_cast<int>(rng.Uniform(4));
        int b = static_cast<int>(rng.Uniform(4));
        total_aborts += RunWithRetry(db.get(), [&](Transaction* txn) {
          IVDB_RETURN_NOT_OK(
              db->Update(txn, "sales", Sale(a, 0, static_cast<int>(i))));
          return db->Update(txn, "sales", Sale(b, 0, static_cast<int>(i + 1)));
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  // All transactions eventually committed (RunWithRetry loops), and any
  // deadlocks were broken by the detector rather than by timeouts.
  EXPECT_EQ(db->lock_metrics().timeouts->Value(), 0u);
}

TEST(Concurrency, GhostCreationRaceResolvesToOneRow) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  // Many threads simultaneously create the same brand-new group.
  constexpr int kThreads = 8;
  std::atomic<int64_t> next_id{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; i++) {
        int64_t id = next_id.fetch_add(1);
        RunWithRetry(db.get(), [&](Transaction* txn) {
          return db->Insert(txn, "sales", Sale(id, 42, 1));
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  const ViewInfo* info = db->GetView("by_grp").value();
  EXPECT_EQ(db->GetIndex(info->id)->size(), 1u);
  Transaction* reader = db->Begin();
  auto row = db->GetViewRow(reader, "by_grp", {Value::Int64(42)});
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), kThreads * 20);
  EXPECT_TRUE(db->Commit(reader).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
}

TEST(Concurrency, ChurnWithBackgroundGhostCleaner) {
  DatabaseOptions options;
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 1000;
  auto db = OpenDb(options);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  // Insert/delete whole groups repeatedly while the cleaner races us.
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; i++) {
        int64_t id = t * 1000 + i;
        int64_t grp = id % 5;
        RunWithRetry(db.get(), [&](Transaction* txn) {
          return db->Insert(txn, "sales", Sale(id, grp, 1));
        });
        RunWithRetry(db.get(), [&](Transaction* txn) {
          Status s = db->Delete(txn, "sales", {Value::Int64(id)});
          // Row may already be gone if a previous retry half-succeeded.
          return s.IsNotFound() ? Status::OK() : s;
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  // Quiesce the cleaner and verify.
  ASSERT_TRUE(db->CleanGhosts().ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok())
      << db->VerifyViewConsistency("by_grp").ToString();
  const GhostCleanerMetrics* stats = db->ghost_metrics("by_grp");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->reclaimed->Value(), 0u);
}

TEST(Concurrency, MixedWorkloadManyGroupsStaysConsistent) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  constexpr int kThreads = 6;
  constexpr int kOps = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(t * 31 + 7);
      for (int i = 0; i < kOps; i++) {
        int64_t id = t * 100000 + static_cast<int64_t>(rng.Uniform(200));
        int64_t grp = static_cast<int64_t>(rng.Uniform(8));
        int64_t amount = static_cast<int64_t>(rng.Uniform(100));
        switch (rng.Uniform(3)) {
          case 0:
            RunWithRetry(db.get(), [&](Transaction* txn) {
              Status s = db->Insert(txn, "sales", Sale(id, grp, amount));
              return s.IsAlreadyExists() ? Status::OK() : s;
            });
            break;
          case 1:
            RunWithRetry(db.get(), [&](Transaction* txn) {
              Status s = db->Update(txn, "sales", Sale(id, grp, amount));
              return s.IsNotFound() ? Status::OK() : s;
            });
            break;
          case 2:
            RunWithRetry(db.get(), [&](Transaction* txn) {
              Status s = db->Delete(txn, "sales", {Value::Int64(id)});
              return s.IsNotFound() ? Status::OK() : s;
            });
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok())
      << db->VerifyViewConsistency("by_grp").ToString();
}

TEST(Concurrency, AbortStormLeavesViewExact) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int64_t> committed_sum{0};
  std::atomic<int64_t> committed_count{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(t + 100);
      for (int i = 0; i < 100; i++) {
        int64_t id = t * 10000 + i;
        int64_t amount = static_cast<int64_t>(rng.Uniform(50));
        Transaction* txn = db->Begin();
        Status s = db->Insert(txn, "sales", Sale(id, 3, amount));
        if (!s.ok()) {
          (void)db->Abort(txn);
          db->Forget(txn);
          continue;
        }
        if (rng.OneIn(2)) {
          ASSERT_TRUE(db->Abort(txn).ok());
        } else {
          if (db->Commit(txn).ok()) {
            committed_sum += amount;
            committed_count += 1;
          }
        }
        db->Forget(txn);
      }
    });
  }
  for (auto& t : threads) t.join();

  Transaction* reader = db->Begin();
  auto row = db->GetViewRow(reader, "by_grp", {Value::Int64(3)});
  if (committed_count.load() > 0) {
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((**row)[1].AsInt64(), committed_count.load());
    EXPECT_EQ((**row)[2].AsInt64(), committed_sum.load());
  }
  EXPECT_TRUE(db->Commit(reader).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
}

// A rollback restores the physical row before the version store unlinks
// the transaction's pending entry. Snapshot scans racing that window must
// still return every committed row with its committed value: never miss the
// row while a delete rolls back, never return an aborted update's value.
TEST(Concurrency, SnapshotScansSeeCommittedRowsThroughRollbacks) {
  auto db = OpenDb();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  constexpr int64_t kRows = 1000;
  constexpr int64_t kTarget = kRows / 2;
  constexpr int64_t kSentinel = -1;
  constexpr int kScans = 2000;
  // Version GC is off by default, so loaded rows keep their insert chains.
  // The target row is loaded first and its chain collected: it is then
  // chained only while an aborting writer holds it, and served from the
  // leaf copy otherwise. The other rows stay chained, so every scan lists
  // their chains between its copy and the target's stripe, which widens the
  // window a rollback must not fall into.
  Transaction* load = db->Begin();
  ASSERT_TRUE(db->Insert(load, "sales", Sale(kTarget, kTarget % 10, kTarget))
                  .ok());
  ASSERT_TRUE(db->Commit(load).ok());
  db->Forget(load);
  db->GarbageCollectVersions();
  ASSERT_EQ(db->version_store_entries(), 0u);
  load = db->Begin();
  for (int64_t id = 0; id < kRows; id++) {
    if (id == kTarget) continue;
    ASSERT_TRUE(db->Insert(load, "sales", Sale(id, id % 10, id)).ok());
  }
  ASSERT_TRUE(db->Commit(load).ok());
  db->Forget(load);

  std::atomic<bool> stop{false};
  auto abort_loop = [&](std::function<Status(Transaction*)> write) {
    while (!stop.load(std::memory_order_acquire)) {
      Transaction* txn = db->Begin();
      (void)write(txn);  // a lock timeout leaves nothing to roll back
      if (txn->state() == TxnState::kActive) (void)db->Abort(txn);
      db->Forget(txn);
    }
  };
  std::thread deleter(abort_loop, [&](Transaction* txn) {
    return db->Delete(txn, "sales", {Value::Int64(kTarget)});
  });
  std::thread updater(abort_loop, [&](Transaction* txn) {
    return db->Update(txn, "sales", Sale(kTarget, kTarget % 10, kSentinel));
  });

  int missing = 0;
  int wrong = 0;
  for (int i = 0; i < kScans; i++) {
    Transaction* reader = db->Begin(ReadMode::kSnapshot);
    auto rows = db->ScanTableRange(reader, "sales", {Value::Int64(0)},
                                   {Value::Int64(kRows)});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_TRUE(db->Commit(reader).ok());
    db->Forget(reader);
    if (rows->size() != static_cast<size_t>(kRows)) {
      missing++;
      continue;
    }
    for (int64_t id = 0; id < kRows; id++) {
      if ((*rows)[id] != Sale(id, id % 10, id)) {
        wrong++;
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  deleter.join();
  updater.join();
  EXPECT_EQ(missing, 0) << "scans missing a row, of " << kScans;
  EXPECT_EQ(wrong, 0) << "scans with a wrong row, of " << kScans;
}

// With default options the log has no device, so it acknowledges a commit
// at append and runs no WAL writer. A commit must still be visible once
// Commit returns: a snapshot that another thread begins afterwards sees the
// row, and the view stays exact.
TEST(Concurrency, InMemoryCommitIsVisibleWhenCommitReturns) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(GroupView(fact)).ok());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> committed;  // ids whose Commit has returned
  int writers_done = 0;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        const int64_t id = int64_t{t} * kPerThread + i;
        RunWithRetry(db.get(), [&](Transaction* txn) {
          return db->Insert(txn, "sales", Sale(id, id % 4, id));
        });
        std::lock_guard<std::mutex> lock(mu);
        committed.push_back(id);
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(mu);
      writers_done++;
      cv.notify_one();
    });
  }

  int checked = 0;
  int missing = 0;
  for (;;) {
    int64_t id;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return !committed.empty() || writers_done == kThreads;
      });
      if (committed.empty()) break;
      id = committed.front();
      committed.pop_front();
    }
    Transaction* reader = db->Begin(ReadMode::kSnapshot);
    auto row = db->Get(reader, "sales", {Value::Int64(id)});
    if (!row.ok() || !row->has_value() || **row != Sale(id, id % 4, id)) {
      missing++;
    }
    EXPECT_TRUE(db->Commit(reader).ok());
    db->Forget(reader);
    checked++;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(checked, kThreads * kPerThread);
  EXPECT_EQ(missing, 0) << "committed rows a later snapshot did not see";
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
  EXPECT_EQ(db->log_metrics().flushes->Value(), 0);
}

}  // namespace
}  // namespace ivdb
