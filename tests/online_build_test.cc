// Online view build (docs/ROBUSTNESS.md §4): live-path behaviour of the
// phased build state machine — correctness under concurrent writers, the
// capture-straddling transaction case, barrier timeout/retry/exhaustion,
// degraded-mode abort at every sync boundary of the build, the async API,
// and recovery of committed and abandoned builds. The crash sweep at every
// env-op boundary lives in crash_torture_test.cc.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "engine/database.h"
#include "test_util.h"

namespace ivdb {
namespace {

class OnlineBuildTest : public DurableDbTest {};

TEST_F(OnlineBuildTest, QuiescentBuildMatchesRecomputationAndRecovers) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  static const char* kRegions[] = {"eu", "us", "apac"};
  for (int i = 0; i < 40; i++) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(
        db->Insert(txn, "sales",
                   Sale(i, kRegions[i % 3], i * 1.5, i % 5 + 1))
            .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  auto view =
      db->CreateIndexedViewOnline(RegionView(fact, "by_region", true));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  EXPECT_TRUE(db->catalog().ListViewBuilds().empty());

  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_view_build_started_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("ivdb_view_build_committed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("ivdb_view_build_abandoned_total 0"),
            std::string::npos);

  // The view keeps maintaining after the flip.
  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1000, "eu", 5.0, 2)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());

  // Crash (no checkpoint): the view must come back purely from WAL redo of
  // the start marker, the flip transaction's records, and the commit marker.
  db.reset();
  db = OpenDb();
  ASSERT_TRUE(db->GetView("by_region").ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  EXPECT_TRUE(db->catalog().ListViewBuilds().empty());
}

TEST_F(OnlineBuildTest, BuildUnderConcurrentWritersStaysConsistent) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", WideSchema(), {0}).value()->id;
  {
    Random rng(7);
    for (int i = 0; i < 20; i++) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(db->Insert(txn, "sales", RandomWideRow(&rng, i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
  }

  // Writers hammer the fact table for the whole duration of the build, so
  // the catch-up phase replays a real tail and the barrier has to drain
  // genuinely active transactions.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; t++) {
    writers.emplace_back([&db, &stop, t]() {
      Random rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        RandomOp(db.get(), &rng, 64);
      }
    });
  }

  ViewDefinition def;
  def.name = "by_grp";
  def.kind = ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 3, "total"},
                    {AggregateFunction::kAvg, 4, "avg_price"}};
  auto view = db->CreateIndexedViewOnline(def);
  stop.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
  EXPECT_TRUE(db->catalog().ListViewBuilds().empty());

  // And after a crash, redo reconstructs both the flip and the concurrent
  // writers' maintenance on top of it.
  db.reset();
  db = OpenDb();
  ASSERT_TRUE(db->GetView("by_grp").ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_grp").ok());
}

TEST_F(OnlineBuildTest, CaptureStraddlingTransactionReplaysIntoTheBuild) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  for (int i = 0; i < 10; i++) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  // A transaction active at the build's capture point: its insert is
  // invisible to the snapshot scan and must arrive via WAL catch-up when it
  // commits mid-build.
  Transaction* straddler = db->Begin();
  ASSERT_TRUE(db->Insert(straddler, "sales", Sale(100, "us", 42.0)).ok());

  ASSERT_TRUE(db->StartViewBuildAsync(RegionView(fact)).ok());
  // A second build is rejected while the first is in flight (the straddler
  // keeps the flip barrier from closing until we commit).
  EXPECT_TRUE(db->StartViewBuildAsync(RegionView(fact, "other")).IsBusy());

  ASSERT_TRUE(db->Commit(straddler).ok());
  ASSERT_TRUE(db->WaitForViewBuild().ok());

  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db->Begin();
  auto us = db->GetViewRow(reader, "by_region", {Value::String("us")});
  ASSERT_TRUE(us.ok());
  ASSERT_TRUE(us->has_value());
  EXPECT_EQ((**us)[1].AsInt64(), 1);
  EXPECT_EQ((**us)[2].AsDouble(), 42.0);
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(OnlineBuildTest, AsyncBuildSurfacesFailureThroughWait) {
  auto db = OpenDb();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->StartViewBuildAsync(RegionView(fact)).ok());
  ASSERT_TRUE(db->WaitForViewBuild().ok());
  ASSERT_TRUE(db->GetView("by_region").ok());
  // Same name again: the build runs and fails; the error comes back from
  // WaitForViewBuild, not from the (fire-and-forget) start call.
  ASSERT_TRUE(db->StartViewBuildAsync(RegionView(fact)).ok());
  EXPECT_TRUE(db->WaitForViewBuild().IsAlreadyExists());
}

TEST_F(OnlineBuildTest, InMemoryDatabaseRejectsOnlineBuild) {
  DatabaseOptions options;  // no dir: no WAL tail to catch up from
  auto db = std::move(Database::Open(options)).value();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  auto view = db->CreateIndexedViewOnline(RegionView(fact));
  EXPECT_TRUE(view.status().IsInvalidArgument()) << view.status().ToString();
}

TEST_F(OnlineBuildTest, BarrierExhaustionAbandonsAndRecoveryGarbageCollects) {
  DatabaseOptions options;
  options.dir = dir_;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  for (int i = 0; i < 5; i++) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, "eu", 1.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  // This transaction never finishes, so every barrier attempt times out.
  Transaction* hold = db->Begin();
  ASSERT_TRUE(db->Insert(hold, "sales", Sale(99, "us", 2.0)).ok());

  auto view = db->CreateIndexedViewOnline(RegionView(fact));
  EXPECT_TRUE(view.status().IsBusy()) << view.status().ToString();

  auto builds = db->catalog().ListViewBuilds();
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(builds[0].name, "by_region");
  EXPECT_EQ(builds[0].phase, ViewBuildState::Phase::kAbandoned);
  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_view_build_abandoned_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("ivdb_view_build_barrier_timeouts_total 16"),
            std::string::npos);

  // The gate reopened: normal work continues after the failed build.
  ASSERT_TRUE(db->Commit(hold).ok());

  // Crash; recovery finds the start marker without a commit marker and
  // garbage-collects the abandoned build.
  db.reset();
  db = OpenDb();
  EXPECT_TRUE(db->catalog().ListViewBuilds().empty());
  EXPECT_TRUE(db->GetView("by_region").status().IsNotFound());
  metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_view_build_gc_total 1"), std::string::npos);

  // The name is free again; an offline build on the recovered data works.
  ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
}

// Degraded-mode entry mid-build aborts the build exactly like a crash: a
// single fsync failure placed at every sync boundary of the build in turn.
// Each poison must leave the engine degraded, stamp the black box with the
// "view_build" reason, leave at most one kAbandoned catalog record, and a
// restart must land on fully-live-and-consistent or fully-absent-with-GC.
TEST(OnlineBuildDegraded, EveryBuildSyncBoundaryAbortsLikeACrash) {
  const uint64_t seed = 0xB111D;

  auto run_setup = [&](Database* db) -> ObjectId {
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    static const char* kRegions[] = {"eu", "us", "apac"};
    for (int i = 0; i < 8; i++) {
      Transaction* txn = db->Begin();
      EXPECT_TRUE(
          db->Insert(txn, "sales", Sale(i, kRegions[i % 3], i * 2.0)).ok());
      EXPECT_TRUE(db->Commit(txn).ok());
    }
    return fact;
  };

  // Dry run: find the window of sync indices the build itself issues.
  int64_t sync_floor = 0;
  int64_t sync_ceil = 0;
  {
    ScopedTempDir dir("online_degraded_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.env = &env;
    auto db = std::move(Database::Open(options)).value();
    ObjectId fact = run_setup(db.get());
    sync_floor = env.syncs_seen();
    ASSERT_TRUE(db->CreateIndexedViewOnline(RegionView(fact)).ok());
    sync_ceil = env.syncs_seen();
  }
  ASSERT_GT(sync_ceil, sync_floor) << "build issued no syncs; sweep vacuous";

  for (int64_t k = sync_floor; k < sync_ceil; k++) {
    SCOPED_TRACE("failing build sync index " + std::to_string(k));
    ScopedTempDir dir("online_degraded");
    FaultInjectionEnv env(seed * 1000003 + static_cast<uint64_t>(k));
    env.FailSyncAt(k);
    {
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.env = &env;
      auto db = std::move(Database::Open(options)).value();
      ObjectId fact = run_setup(db.get());

      auto view = db->CreateIndexedViewOnline(RegionView(fact));
      EXPECT_FALSE(view.ok());
      EXPECT_TRUE(db->degraded());
      EXPECT_FALSE(env.crashed());

      // The black box names the build as the poisoned activity.
      const std::string blackbox = dir.path() + "/blackbox-1.json";
      ASSERT_TRUE(Env::Default()->FileExists(blackbox));
      std::string dump;
      ASSERT_TRUE(Env::Default()->ReadFileToString(blackbox, &dump).ok());
      EXPECT_NE(dump.find("\"reason\":\"view_build\""), std::string::npos);

      // Depending on the boundary, the build either died before its catalog
      // record existed or left it behind in the abandoned state.
      auto builds = db->catalog().ListViewBuilds();
      ASSERT_LE(builds.size(), 1u);
      if (!builds.empty()) {
        EXPECT_EQ(builds[0].phase, ViewBuildState::Phase::kAbandoned);
      }
    }

    // Restart with a healthy env: fully live and consistent (the commit
    // marker's write may have reached the file even though its fsync
    // failed) or fully absent with the abandoned record GC'd.
    DatabaseOptions recovered;
    recovered.dir = dir.path();
    auto reopened = Database::Open(recovered);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(reopened.value()->catalog().ListViewBuilds().empty());
    if (reopened.value()->GetView("by_region").ok()) {
      EXPECT_TRUE(
          reopened.value()->VerifyViewConsistency("by_region").ok());
    }
  }
}

}  // namespace
}  // namespace ivdb
