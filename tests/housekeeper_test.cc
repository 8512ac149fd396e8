// The engine housekeeper: one background thread, started after recovery,
// runs the WAL-size checkpoint, version GC, ghost cleanup and the
// stuck-transaction sweep (docs/INTERNALS.md §4, §6; docs/ROBUSTNESS.md §3).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "test_util.h"

namespace ivdb {
namespace {

using namespace std::chrono_literals;
using Steady = std::chrono::steady_clock;

std::unique_ptr<Database> OpenOrFail(const DatabaseOptions& options) {
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

// Every duty on, at short intervals.
DatabaseOptions AllDuties(const std::string& dir) {
  DatabaseOptions options;
  options.dir = dir;
  options.checkpoint_wal_bytes = 4 << 10;
  options.version_gc_interval_micros = 1000;
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 1000;
  options.max_txn_lifetime_micros = 200 * 1000;
  return options;
}

template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = Steady::now() + limit;
  while (!pred()) {
    if (Steady::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Housekeeper, OneThreadBesideTheWalWriterAndNoneByDefault) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "/proc/self/task unavailable";
  for (int views : {0, 2, 8}) {
    SCOPED_TRACE(std::to_string(views) + " views");
    ScopedTempDir dir("housekeeper_threads");
    // perfbench's background settings.
    DatabaseOptions options;
    options.dir = dir.path();
    options.flush_delay_micros = 1000;
    options.checkpoint_wal_bytes = 1 << 20;
    options.start_ghost_cleaner = true;
    options.version_gc_interval_micros = 20 * 1000;
    int open_threads = 0;
    {
      auto db = OpenOrFail(options);
      ASSERT_NE(db, nullptr);
      ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
      for (int v = 0; v < views; v++) {
        ASSERT_TRUE(
            db->CreateIndexedView(RegionView(fact, std::to_string(v) + "_v"))
                .ok());
      }
      open_threads = ProcessThreads();
    }
    // The WAL writer and the housekeeper. (A joined thread can linger in
    // /proc for a moment while it finishes exiting.)
    EXPECT_TRUE(WaitFor(
        [&] { return open_threads - ProcessThreads() == 2; }, 1000ms))
        << open_threads << " threads while open, " << ProcessThreads()
        << " after";
  }
  // Default options: no duty is on and the log has no device, so opening
  // starts neither a housekeeper nor a WAL writer.
  const int before_open = ProcessThreads();
  auto db = OpenOrFail(DatabaseOptions());
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(ProcessThreads(), before_open);
}

TEST(Housekeeper, SweepAbortsIdleTransactionWhileGhostPassesSkipItsRow) {
  ScopedTempDir dir("housekeeper_sweep");
  auto db = OpenOrFail(AllDuties(dir.path()));
  ASSERT_NE(db, nullptr);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ObjectId view = db->CreateIndexedView(RegionView(fact)).value()->id;
  const GhostCleanerMetrics* ghosts = db->ghost_metrics("by_region");
  ASSERT_NE(ghosts, nullptr);

  // Insert and delete in one transaction: the group's row is a ghost
  // (count 0) on which the transaction still holds its E lock.
  Transaction* stuck = db->Begin();
  ASSERT_TRUE(db->Insert(stuck, "sales", Sale(1, "eu", 5.0)).ok());
  ASSERT_TRUE(db->Delete(stuck, "sales", {Value::Int64(1)}).ok());
  const auto idle_since = Steady::now();

  // The stuck transaction goes idle; the sweep must abort it even though
  // ghost passes keep running and keep finding its row locked.
  const obs::Counter* aborted = db->txn_metrics().watchdog_aborted;
  ASSERT_TRUE(WaitFor([&] { return aborted->Value() >= 1; }, 2000ms));
  EXPECT_LT(Steady::now() - idle_since, 1s);
  EXPECT_GT(ghosts->skipped_locked->Value(), 0u);
  // The owner sees the abort (Abort after a watchdog abort is a no-op).
  EXPECT_TRUE(db->Abort(stuck).ok());
  EXPECT_EQ(stuck->state(), TxnState::kAborted);
  db->Forget(stuck);

  // With the E lock released, the ghost is reclaimed. (A pass removes its
  // rows before it counts them, once its batch commits.)
  EXPECT_TRUE(
      WaitFor([&] { return db->GetIndex(view)->size() == 0; }, 5000ms));
  EXPECT_TRUE(WaitFor([&] { return ghosts->reclaimed->Value() >= 1; }, 5000ms));
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
}

TEST(Housekeeper, ShutdownDoesNotWaitOutLongIntervals) {
  DatabaseOptions options;
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 10 * 1000 * 1000;
  options.version_gc_interval_micros = 10 * 1000 * 1000;
  auto db = OpenOrFail(options);
  ASSERT_NE(db, nullptr);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
  std::this_thread::sleep_for(20ms);  // the housekeeper is parked
  const auto start = Steady::now();
  db.reset();
  EXPECT_LT(Steady::now() - start, 200ms);
}

TEST(Housekeeper, FlightRecorderHasOneHousekeeperLane) {
  ScopedTempDir dir("housekeeper_lane");
  DatabaseOptions options = AllDuties(dir.path());
  options.version_gc_interval_micros = 5000;
  options.ghost_cleaner_interval_micros = 5000;
  options.max_txn_lifetime_micros = 40 * 1000;
  auto db = OpenOrFail(options);
  ASSERT_NE(db, nullptr);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
  // Enough WAL for the size trigger (4 KiB) to fire a checkpoint.
  Transaction* txn = db->Begin();
  for (int64_t id = 0; id < 200; id++) {
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(id, "eu", 1.0)).ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);

  const std::set<std::string> kDuties = {"gc_pass", "ghost_pass",
                                         "watchdog_pass", "ckpt_retire"};
  std::set<std::string> seen;
  obs::FlightRecorder::Snapshot snap;
  ASSERT_TRUE(WaitFor(
      [&] {
        snap = db->flight_recorder()->Snap();
        seen.clear();
        for (const auto& lane : snap.threads) {
          if (lane.name != "housekeeper") continue;
          for (const auto& e : lane.events) {
            seen.insert(obs::FlightEventName(e.type));
          }
        }
        for (const std::string& duty : kDuties) {
          if (seen.count(duty) == 0) return false;
        }
        return true;
      },
      10000ms))
      << "housekeeper lane events seen: " << seen.size();
  int housekeepers = 0;
  for (const auto& lane : snap.threads) {
    if (lane.name == "housekeeper") housekeepers++;
    for (const char* gone :
         {"checkpointer", "version-gc", "ghost-cleaner", "watchdog"}) {
      EXPECT_NE(lane.name, gone);
    }
  }
  EXPECT_EQ(housekeepers, 1);
}

// Writers keep emptying and refilling one group while ghost passes run
// back to back, so the row is often reclaimed between a writer creating
// it and locking it. The writer must drop that lock and recreate the row;
// holding the lock would block the recreation and end in Busy.
TEST(Housekeeper, WritersRecreateReclaimedGhostsWithoutBusy) {
  DatabaseOptions options;
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 100;
  auto db = OpenOrFail(options);
  ASSERT_NE(db, nullptr);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
  std::atomic<int> busy{0};
  std::vector<std::thread> writers;
  for (int64_t w = 0; w < 4; w++) {
    writers.emplace_back([&, w] {
      for (int64_t id = w * 10000; id < w * 10000 + 1000; id++) {
        for (bool insert : {true, false}) {
          Transaction* txn = db->Begin();
          Status s = insert ? db->Insert(txn, "sales", Sale(id, "eu", 1.0))
                            : db->Delete(txn, "sales", {Value::Int64(id)});
          if (s.ok()) s = db->Commit(txn);
          if (s.IsBusy()) busy++;
          if (txn->state() == TxnState::kActive) (void)db->Abort(txn);
          db->Forget(txn);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(busy.load(), 0);
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
}

// Every checkpoint, not only the housekeeper's own, resets the WAL-size
// trigger: an explicit checkpoint right after a burst of writes leaves
// nothing for the background one to do.
TEST(Housekeeper, ExplicitCheckpointResetsWalSizeTrigger) {
  ScopedTempDir dir("housekeeper_trigger");
  DatabaseOptions options;
  options.dir = dir.path();
  options.checkpoint_wal_bytes = 64 << 10;
  auto db = OpenOrFail(options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  const obs::Counter* checkpoints =
      db->metrics_registry()->GetCounter("ivdb_ckpt_total");
  int64_t id = 0;
  for (int round = 0; round < 5; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    Transaction* txn = db->Begin();
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Insert(txn, "sales", Sale(id++, "eu", 1.0)).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
    db->Forget(txn);
    ASSERT_TRUE(db->Checkpoint().ok());
    const uint64_t after_explicit = checkpoints->Value();
    std::this_thread::sleep_for(100ms);
    EXPECT_EQ(checkpoints->Value(), after_explicit);
  }
}

// The ghost duty reads the view registry on every pass, so a view that an
// online build flips live is cleaned like any other.
TEST(Housekeeper, CleansViewsFlippedLiveByAnOnlineBuild) {
  ScopedTempDir dir("housekeeper_online");
  DatabaseOptions options;
  options.dir = dir.path();
  options.start_ghost_cleaner = true;
  options.ghost_cleaner_interval_micros = 1000;
  auto db = OpenOrFail(options);
  ASSERT_NE(db, nullptr);
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  auto view = db->CreateIndexedViewOnline(RegionView(fact));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 5.0)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);
  txn = db->Begin();
  ASSERT_TRUE(db->Delete(txn, "sales", {Value::Int64(1)}).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);
  BTree* tree = db->GetIndex(view.value()->id);
  EXPECT_TRUE(WaitFor([&] { return tree->size() == 0; }, 5000ms));
  const GhostCleanerMetrics* ghosts = db->ghost_metrics("by_region");
  ASSERT_NE(ghosts, nullptr);
  EXPECT_TRUE(WaitFor([&] { return ghosts->reclaimed->Value() >= 1; }, 5000ms));
}

}  // namespace
}  // namespace ivdb
