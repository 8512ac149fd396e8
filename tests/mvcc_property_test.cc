// MVCC property torture: snapshot readers must observe a state that equals
// the model at their snapshot timestamp, while plain and escrow writers
// (rolling back about one transaction in four after its DML), continuous
// version GC, ghost cleanup, and fuzzy checkpoints all run concurrently
// (docs/INTERNALS.md §7, EXPERIMENTS.md E11).
//
// The per-snapshot model is the fact table read in the SAME transaction:
// at any begin timestamp, the two aggregate views over "sales" must equal a
// from-scratch recomputation of their definitions over the fact rows the
// snapshot sees. This is exactly the consistency the paper's maintenance
// protocol promises, and it is the property epoch-based reclamation could
// silently break — a version freed too early makes a reader reconstruct a
// state that never existed. The end state is additionally compared against
// a shadow model keyed by commit order (the shadow mutex is held across
// Commit, so shadow order == visibility order).
//
// Deterministically seeded: IVDB_TORTURE_SEED selects the run (default
// 0xC0FFEE). CI runs this suite under TSan as well as the release build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "test_util.h"

namespace ivdb {
namespace {

uint64_t TortureSeed() {
  const char* s = std::getenv("IVDB_TORTURE_SEED");
  if (s == nullptr || *s == '\0') return 0xC0FFEE;
  return std::strtoull(s, nullptr, 10);
}

const char* const kRegions[] = {"eu", "us", "apac", "latam"};

// Committed fact row: amounts are small integers (stored as doubles), so
// every SUM below is exact and comparisons need no epsilon.
struct FactRow {
  std::string region;
  int64_t amount = 0;
  int64_t qty = 0;
};

struct RegionAgg {
  int64_t count = 0;
  int64_t amount = 0;
  int64_t qty = 0;
};

using AggModel = std::map<std::string, RegionAgg>;

AggModel AggregateFacts(const std::vector<Row>& fact_rows) {
  AggModel model;
  for (const Row& row : fact_rows) {
    RegionAgg& agg = model[row[1].AsString()];
    agg.count++;
    agg.amount += static_cast<int64_t>(row[2].AsDouble());
    agg.qty += row[3].AsInt64();
  }
  return model;
}

// Parses finalized aggregate rows: [region, count, total] for "by_region",
// plus SUM(qty) as [region, count, total, units] for "by_region_units".
AggModel ParseViewRows(const std::vector<Row>& rows, bool with_units) {
  AggModel model;
  for (const Row& row : rows) {
    RegionAgg& agg = model[row[0].AsString()];
    agg.count = row[1].AsInt64();
    agg.amount = static_cast<int64_t>(row[2].AsDouble());
    if (with_units) agg.qty = row[3].AsInt64();
  }
  return model;
}

void ExpectAggEqual(const AggModel& expected, const AggModel& actual,
                    bool check_qty, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (const auto& [region, want] : expected) {
    auto it = actual.find(region);
    ASSERT_NE(it, actual.end()) << what << ": missing region " << region;
    EXPECT_EQ(it->second.count, want.count) << what << " count @" << region;
    EXPECT_EQ(it->second.amount, want.amount) << what << " total @" << region;
    if (check_qty) {
      EXPECT_EQ(it->second.qty, want.qty) << what << " units @" << region;
    }
  }
}

class MvccPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();  // checkpoints need a directory
    options.version_gc_interval_micros = 300;  // continuous background GC
    options.start_ghost_cleaner = true;
    options.ghost_cleaner_interval_micros = 1000;
    options.lock_wait_timeout = std::chrono::milliseconds(2000);
    auto result = Database::Open(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    db_ = std::move(result).value();
    auto table = db_->CreateTable("sales", SalesSchema(), {0});
    ASSERT_TRUE(table.ok());
    ObjectId fact = table.value()->id;
    ASSERT_TRUE(db_->CreateIndexedView(RegionView(fact, "by_region")).ok());
    ASSERT_TRUE(
        db_->CreateIndexedView(
               RegionView(fact, "by_region_units", /*with_units=*/true))
            .ok());
  }

  // One writer operation with retry on concurrency rollbacks. Applies the
  // committed effect to the shadow model with the shadow mutex held across
  // Commit, so shadow-apply order equals commit-visibility order.
  void RandomWrite(Random* rng) {
    for (int attempt = 0; attempt < 50; attempt++) {
      const int64_t id = static_cast<int64_t>(rng->Uniform(kIdSpace));
      const std::string region = kRegions[rng->Uniform(4)];
      const int64_t amount = static_cast<int64_t>(rng->Uniform(100));
      const int64_t qty = 1 + static_cast<int64_t>(rng->Uniform(5));
      const uint32_t op = rng->Uniform(4);

      Transaction* txn = db_->Begin();
      Status s;
      bool applied = false;
      FactRow next{region, amount, qty};
      switch (op) {
        case 0:  // insert a new fact (escrow-increments existing groups)
        case 1:
          s = db_->Insert(txn, "sales",
                          Sale(id, region, static_cast<double>(amount), qty));
          applied = s.ok();
          if (s.IsAlreadyExists()) s = Status::OK();
          break;
        case 2:  // plain update: moves a row between groups
          s = db_->Update(txn, "sales",
                          Sale(id, region, static_cast<double>(amount), qty));
          applied = s.ok();
          if (s.IsNotFound()) s = Status::OK();
          break;
        case 3:  // delete: drains a group, leaving a ghost to clean
          s = db_->Delete(txn, "sales", {Value::Int64(id)});
          applied = s.ok();
          if (s.IsNotFound()) s = Status::OK();
          break;
      }
      if (s.ok() && rng->Uniform(4) == 0) {
        // A deliberate rollback after the DML landed: its physical undo and
        // pending-version unlinks race the snapshot readers.
        EXPECT_TRUE(db_->Abort(txn).ok());
        db_->Forget(txn);
        return;
      }
      if (s.ok()) {
        // The shadow mutex brackets Commit, so shadow-apply order equals
        // commit-visibility order. Taken only after every row lock is held
        // (DML is done), so it nests strictly above the lock manager and
        // cannot deadlock with a writer blocked on a row.
        std::unique_lock<std::mutex> shadow_lock(shadow_mu_);
        s = db_->Commit(txn);
        if (s.ok()) {
          if (applied) {
            if (op == 3) {
              shadow_.erase(id);
            } else {
              shadow_[id] = next;
            }
          }
          db_->Forget(txn);
          return;
        }
      }
      EXPECT_TRUE(s.RequiresRollback()) << s.ToString();
      if (txn->state() == TxnState::kActive) (void)db_->Abort(txn);
      db_->Forget(txn);
    }
    FAIL() << "write never succeeded";
  }

  // One snapshot read: both views must equal a recomputation from the fact
  // table at the same begin timestamp, and a range scan over a random
  // sub-range must equal, row for row, point reads of every id in it (Get
  // resolves each key on its own, so it is the reference for the scan).
  void SnapshotCheck(Random* rng) {
    const int64_t lo = static_cast<int64_t>(rng->Uniform(kIdSpace));
    const int64_t hi =
        lo + 1 + static_cast<int64_t>(rng->Uniform(kIdSpace - lo));
    Transaction* txn = db_->Begin(ReadMode::kSnapshot);
    auto facts = db_->ScanTable(txn, "sales");
    auto v1 = db_->ScanView(txn, "by_region");
    auto v2 = db_->ScanView(txn, "by_region_units");
    auto range = db_->ScanTableRange(txn, "sales", {Value::Int64(lo)},
                                     {Value::Int64(hi)});
    std::vector<Row> gets;
    for (int64_t id = lo; id < hi; id++) {
      auto row = db_->Get(txn, "sales", {Value::Int64(id)});
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (row->has_value()) gets.push_back(std::move(**row));
    }
    ASSERT_TRUE(facts.ok()) << facts.status().ToString();
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_TRUE(db_->Commit(txn).ok());
    db_->Forget(txn);

    EXPECT_EQ(*range, gets) << "range [" << lo << ", " << hi << ")";

    const AggModel expected = AggregateFacts(*facts);
    ExpectAggEqual(expected, ParseViewRows(*v1, false), false, "by_region");
    ExpectAggEqual(expected, ParseViewRows(*v2, true), true,
                   "by_region_units");
  }

  // Drives GC passes until the version store is empty. A racing background
  // system transaction (ghost cleaner, checkpoint reader) may pin the
  // horizon for a moment, so one pass is not guaranteed to drain.
  void DrainVersionStore() {
    for (int i = 0; i < 200 && db_->version_store_entries() > 0; i++) {
      db_->GarbageCollectVersions();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    db_->GarbageCollectVersions();
    EXPECT_EQ(db_->version_store_entries(), 0u);
  }

  static constexpr int64_t kIdSpace = 64;  // small => heavy key contention

  ScopedTempDir dir_{"mvcc_property"};
  std::unique_ptr<Database> db_;
  std::mutex shadow_mu_;
  std::map<int64_t, FactRow> shadow_;
};

TEST_F(MvccPropertyTest, ReadersMatchModelUnderConcurrentGc) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 250;
  constexpr int kReaders = 3;
  const uint64_t seed = TortureSeed();

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([this, w, seed] {
      Random rng(seed * 7919 + static_cast<uint64_t>(w) + 1);
      for (int i = 0; i < kOpsPerWriter; i++) RandomWrite(&rng);
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([this, &done, r, seed] {
      Random rng(seed * 104729 + static_cast<uint64_t>(r) + 1);
      while (!done.load(std::memory_order_acquire)) SnapshotCheck(&rng);
      SnapshotCheck(&rng);  // one final check after the last commit
    });
  }
  // Chaos: fuzzy checkpoints + ghost cleanup + foreground GC passes race
  // the background GC thread, the writers, and the readers.
  threads.emplace_back([this, &done] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db_->Checkpoint().ok());
      EXPECT_TRUE(db_->CleanGhosts().ok());
      db_->GarbageCollectVersions();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int w = 0; w < kWriters; w++) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); i++) threads[i].join();

  // End state: the fact table equals the shadow model exactly, and the
  // views still pass the stored-vs-recomputed oracle.
  Transaction* reader = db_->Begin(ReadMode::kSnapshot);
  auto facts = db_->ScanTable(reader, "sales");
  ASSERT_TRUE(facts.ok());
  {
    std::unique_lock<std::mutex> shadow_lock(shadow_mu_);
    ASSERT_EQ(facts->size(), shadow_.size());
    for (const Row& row : *facts) {
      auto it = shadow_.find(row[0].AsInt64());
      ASSERT_NE(it, shadow_.end()) << "unexpected id " << row[0].AsInt64();
      EXPECT_EQ(row[1].AsString(), it->second.region);
      EXPECT_EQ(static_cast<int64_t>(row[2].AsDouble()), it->second.amount);
      EXPECT_EQ(row[3].AsInt64(), it->second.qty);
    }
  }
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("by_region").ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("by_region_units").ok());

  // Reclamation actually ran: once quiescent, nothing is left chained and
  // the retire pile has been drained.
  DrainVersionStore();
}

TEST_F(MvccPropertyTest, PinnedSnapshotStableUnderContinuousGc) {
  const uint64_t seed = TortureSeed();
  Random rng(seed ^ 0x5eed);
  for (int i = 0; i < 40; i++) RandomWrite(&rng);

  // Pin one snapshot, capture what it sees...
  Transaction* pinned = db_->Begin(ReadMode::kSnapshot);
  auto facts0 = db_->ScanTable(pinned, "sales");
  auto view0 = db_->ScanView(pinned, "by_region_units");
  ASSERT_TRUE(facts0.ok());
  ASSERT_TRUE(view0.ok());

  // ...then churn every key and garbage-collect aggressively. The pinned
  // reader's epoch keeps its versions resolvable the whole time.
  for (int round = 0; round < 30; round++) {
    for (int i = 0; i < 8; i++) RandomWrite(&rng);
    db_->GarbageCollectVersions();
    EXPECT_TRUE(db_->CleanGhosts().ok());
  }

  auto facts1 = db_->ScanTable(pinned, "sales");
  auto view1 = db_->ScanView(pinned, "by_region_units");
  ASSERT_TRUE(facts1.ok());
  ASSERT_TRUE(view1.ok());
  EXPECT_EQ(*facts1, *facts0);
  EXPECT_EQ(*view1, *view0);
  EXPECT_TRUE(db_->Commit(pinned).ok());

  // With the pin released, the horizon advances and the chains drain.
  DrainVersionStore();
  SnapshotCheck(&rng);
}

}  // namespace
}  // namespace ivdb
