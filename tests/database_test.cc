#include "engine/database.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "test_util.h"

namespace ivdb {
namespace {

// GROUP BY region with SUM(amount) + SUM(qty).
ViewDefinition SalesRegionView(ObjectId fact) {
  return RegionView(fact, "sales_by_region", /*with_units=*/true);
}

using DatabaseTest = SalesDbTest;

TEST_F(DatabaseTest, CreateTableErrors) {
  EXPECT_TRUE(db_->CreateTable("sales", SalesSchema(), {0})
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db_->CreateTable("x", SalesSchema(), {})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DatabaseTest, InsertGetRoundTrip) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  Transaction* reader = db_->Begin();
  auto row = db_->Get(reader, "sales", {Value::Int64(1)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsString(), "eu");
  EXPECT_EQ((**row)[2].AsDouble(), 10.0);
  auto missing = db_->Get(reader, "sales", {Value::Int64(99)});
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  ASSERT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, DuplicateInsertRejected) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(
      db_->Insert(txn, "sales", Sale(1, "us", 1.0, 1)).IsAlreadyExists());
  ASSERT_TRUE(db_->Abort(txn).ok());
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(1, "eu", 99.0, 3)).ok());
  });
  Transaction* reader = db_->Begin();
  auto row = db_->Get(reader, "sales", {Value::Int64(1)});
  EXPECT_EQ((**row)[2].AsDouble(), 99.0);
  EXPECT_TRUE(db_->Commit(reader).ok());

  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(1)}).ok());
  });
  reader = db_->Begin();
  EXPECT_FALSE(db_->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, UpdateMissingRowFails) {
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(db_->Update(txn, "sales", Sale(5, "eu", 1.0, 1)).IsNotFound());
  EXPECT_TRUE(db_->Delete(txn, "sales", {Value::Int64(5)}).IsNotFound());
  EXPECT_TRUE(db_->Abort(txn).ok());
}

TEST_F(DatabaseTest, SchemaValidatedOnDml) {
  Transaction* txn = db_->Begin();
  Row bad = {Value::Int64(1), Value::Int64(2)};
  EXPECT_TRUE(db_->Insert(txn, "sales", bad).IsInvalidArgument());
  EXPECT_TRUE(db_->Abort(txn).ok());
}

TEST_F(DatabaseTest, AbortRollsBackBaseTable) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  Transaction* reader = db_->Begin();
  EXPECT_FALSE(db_->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, AggregateViewMaintainedOnInsert) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 5.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(3, "us", 7.0, 4)).ok());
  });
  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "sales_by_region",
                            {Value::String("eu")});
  ASSERT_TRUE(eu.ok());
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 2);       // count
  EXPECT_EQ((**eu)[2].AsDouble(), 15.0);   // total
  EXPECT_EQ((**eu)[3].AsInt64(), 3);       // units
  auto us = db_->GetViewRow(reader, "sales_by_region",
                            {Value::String("us")});
  EXPECT_EQ((**us)[1].AsInt64(), 1);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, AggregateViewMaintainedOnDeleteAndUpdate) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 5.0, 1)).ok());
  });
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(2)}).ok());
  });
  Commit([&](Transaction* txn) {
    // Move row 1 from eu to us with a new amount.
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(1, "us", 3.0, 2)).ok());
  });
  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "sales_by_region",
                            {Value::String("eu")});
  EXPECT_FALSE(eu->has_value());  // count dropped to 0 => ghost, invisible
  auto us = db_->GetViewRow(reader, "sales_by_region",
                            {Value::String("us")});
  ASSERT_TRUE(us->has_value());
  EXPECT_EQ((**us)[1].AsInt64(), 1);
  EXPECT_EQ((**us)[2].AsDouble(), 3.0);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, ViewPopulatedFromExistingData) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 5.0, 1)).ok());
  });
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Transaction* reader = db_->Begin();
  auto rows = db_->ScanView(reader, "sales_by_region");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, ViewWithFilter) {
  ViewDefinition def = SalesRegionView(sales_);
  def.name = "big_sales";
  def.filter = {{2, CompareOp::kGe, Value::Double(10.0)}};
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 3.0, 1)).ok());
  });
  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "big_sales", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 1);  // only the >= 10 row counts
  EXPECT_TRUE(db_->Commit(reader).ok());

  // An update that moves a row across the filter boundary.
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(2, "eu", 50.0, 1)).ok());
  });
  reader = db_->Begin();
  eu = db_->GetViewRow(reader, "big_sales", {Value::String("eu")});
  EXPECT_EQ((**eu)[1].AsInt64(), 2);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("big_sales").ok());
}

TEST_F(DatabaseTest, AvgViewFinalization) {
  ViewDefinition def;
  def.name = "avg_by_region";
  def.kind = ViewKind::kAggregate;
  def.fact_table = sales_;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kAvg, 2, "avg_amount"}};
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 20.0, 1)).ok());
  });
  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "avg_by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[2].AsDouble(), 15.0);
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, AbortRollsBackViewMaintenance) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 100.0, 9)).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());

  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "sales_by_region",
                            {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 1);
  EXPECT_EQ((**eu)[2].AsDouble(), 10.0);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, GhostRowsStayPhysicallyUntilCleaned) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(1)}).ok());
  });
  // Invisible to queries...
  Transaction* reader = db_->Begin();
  EXPECT_FALSE(db_->GetViewRow(reader, "sales_by_region",
                               {Value::String("eu")})
                   ->has_value());
  EXPECT_TRUE(db_->ScanView(reader, "sales_by_region")->empty());
  EXPECT_TRUE(db_->Commit(reader).ok());
  // ...but physically present until the cleaner runs.
  const ViewInfo* info = db_->GetView("sales_by_region").value();
  EXPECT_EQ(db_->GetIndex(info->id)->size(), 1u);
  uint64_t reclaimed = 0;
  ASSERT_TRUE(db_->CleanGhosts(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(db_->GetIndex(info->id)->size(), 0u);
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, GhostStatsTracked) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  });
  const ViewMaintainerMetrics* stats = db_->view_metrics("sales_by_region");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->ghosts_created->Value(), 1u);
  EXPECT_EQ(stats->increments_applied->Value(), 1u);
}

TEST_F(DatabaseTest, ProjectionView) {
  ViewDefinition def;
  def.name = "eu_sales";
  def.kind = ViewKind::kProjection;
  def.fact_table = sales_;
  def.filter = {{1, CompareOp::kEq, Value::String("eu")}};
  def.projection = {0, 2};   // id, amount
  def.projection_key = {0};  // id
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());

  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 5.0, 1)).ok());
  });
  Transaction* reader = db_->Begin();
  auto rows = db_->ScanView(reader, "eu_sales");
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
  EXPECT_EQ((*rows)[0][1].AsDouble(), 10.0);
  EXPECT_TRUE(db_->Commit(reader).ok());

  // Update within the filter changes the projected row; moving out of the
  // filter removes it.
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(1, "eu", 11.0, 1)).ok());
  });
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(1, "apac", 11.0, 1)).ok());
  });
  reader = db_->Begin();
  EXPECT_TRUE(db_->ScanView(reader, "eu_sales")->empty());
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("eu_sales").ok());
}

TEST_F(DatabaseTest, JoinViewMaintainedThroughFactChanges) {
  Schema dim_schema(
      {{"region", TypeId::kString}, {"zone", TypeId::kString}});
  auto dim = db_->CreateTable("regions", dim_schema, {0});
  ASSERT_TRUE(dim.ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "regions",
                            {Value::String("eu"), Value::String("emea")})
                    .ok());
    ASSERT_TRUE(db_->Insert(txn, "regions",
                            {Value::String("us"), Value::String("amer")})
                    .ok());
  });

  ViewDefinition def;
  def.name = "sales_by_zone";
  def.kind = ViewKind::kAggregate;
  def.fact_table = sales_;
  def.join = JoinSpec{dim.value()->id, 1};  // sales.region = regions.region
  def.group_by = {5};                       // regions.zone
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());

  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 5.0, 1)).ok());
    // No matching dimension row: drops out of the join.
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(3, "mars", 99.0, 1)).ok());
  });
  Transaction* reader = db_->Begin();
  auto emea = db_->GetViewRow(reader, "sales_by_zone",
                              {Value::String("emea")});
  ASSERT_TRUE(emea->has_value());
  EXPECT_EQ((**emea)[1].AsInt64(), 1);
  EXPECT_EQ((**emea)[2].AsDouble(), 10.0);
  auto rows = db_->ScanView(reader, "sales_by_zone");
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_zone").ok());

  // Dimension DML is rejected while referenced.
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(db_->Insert(txn, "regions",
                          {Value::String("cn"), Value::String("apac")})
                  .IsNotSupported());
  EXPECT_TRUE(db_->Abort(txn).ok());
}

TEST_F(DatabaseTest, DeferredMaintenanceCoalesces) {
  DatabaseOptions options;
  options.maintenance_timing = MaintenanceTiming::kDeferred;
  auto result = Database::Open(options);
  ASSERT_TRUE(result.ok());
  auto db = std::move(result).value();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(SalesRegionView(fact)).ok());

  Transaction* txn = db->Begin();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(i, "eu", 1.0, 1)).ok());
  }
  // Before commit the view is untouched.
  {
    Transaction* peek = db->Begin(ReadMode::kDirty);
    EXPECT_TRUE(db->ScanView(peek, "sales_by_region")->empty());
    EXPECT_TRUE(db->Commit(peek).ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());

  Transaction* reader = db->Begin();
  auto eu = db->GetViewRow(reader, "sales_by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 10);
  EXPECT_TRUE(db->Commit(reader).ok());

  // Ten changes coalesced into a single increment.
  const ViewMaintainerMetrics* stats = db->view_metrics("sales_by_region");
  EXPECT_EQ(stats->increments_applied->Value(), 1u);
  EXPECT_EQ(stats->deferred_changes_coalesced->Value(), 10u);
  EXPECT_TRUE(db->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, DeferredSelfCancelingChangeIsNoop) {
  DatabaseOptions options;
  options.maintenance_timing = MaintenanceTiming::kDeferred;
  auto db = std::move(Database::Open(options)).value();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(SalesRegionView(fact)).ok());

  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 4.0, 1)).ok());
  ASSERT_TRUE(db->Delete(txn, "sales", {Value::Int64(1)}).ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  // Net delta was zero: no increment, no ghost.
  const ViewMaintainerMetrics* stats = db->view_metrics("sales_by_region");
  EXPECT_EQ(stats->increments_applied->Value(), 0u);
  EXPECT_EQ(stats->ghosts_created->Value(), 0u);
  EXPECT_TRUE(db->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, XLockBaselineModeProducesSameResults) {
  DatabaseOptions options;
  options.use_escrow_locks = false;
  auto db = std::move(Database::Open(options)).value();
  ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
  ASSERT_TRUE(db->CreateIndexedView(SalesRegionView(fact)).ok());

  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(2, "eu", 5.0, 3)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  Transaction* t2 = db->Begin();
  ASSERT_TRUE(db->Delete(t2, "sales", {Value::Int64(2)}).ok());
  ASSERT_TRUE(db->Abort(t2).ok());  // physical-image undo path

  Transaction* reader = db->Begin();
  auto eu = db->GetViewRow(reader, "sales_by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 2);
  EXPECT_EQ((**eu)[2].AsDouble(), 15.0);
  EXPECT_TRUE(db->Commit(reader).ok());
  EXPECT_TRUE(db->VerifyViewConsistency("sales_by_region").ok());
}

TEST_F(DatabaseTest, MultipleViewsOverOneTable) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  ViewDefinition by_qty;
  by_qty.name = "sales_by_qty";
  by_qty.kind = ViewKind::kAggregate;
  by_qty.fact_table = sales_;
  by_qty.group_by = {3};
  by_qty.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ASSERT_TRUE(db_->CreateIndexedView(by_qty).ok());

  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 4.0, 2)).ok());
  });
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_region").ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("sales_by_qty").ok());

  Transaction* reader = db_->Begin();
  auto q2 = db_->GetViewRow(reader, "sales_by_qty", {Value::Int64(2)});
  ASSERT_TRUE(q2->has_value());
  EXPECT_EQ((**q2)[1].AsInt64(), 2);
  EXPECT_EQ((**q2)[2].AsDouble(), 14.0);
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, ViewNameCollisions) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  EXPECT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_))
                  .status()
                  .IsAlreadyExists());
  ViewDefinition table_clash = SalesRegionView(sales_);
  table_clash.name = "sales";
  EXPECT_TRUE(
      db_->CreateIndexedView(table_clash).status().IsAlreadyExists());
  EXPECT_TRUE(db_->GetView("nope").status().IsNotFound());
  EXPECT_EQ(db_->ListViews().size(), 1u);
}

TEST_F(DatabaseTest, ScanTable) {
  Commit([&](Transaction* txn) {
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(db_->Insert(txn, "sales", Sale(i, "eu", i * 1.0, 1)).ok());
    }
  });
  Transaction* reader = db_->Begin();
  auto rows = db_->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ((*rows)[i][0].AsInt64(), i);  // PK order
  }
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, SnapshotReadSeesBeginState) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
  });
  Transaction* snapshot = db_->Begin(ReadMode::kSnapshot);
  // A later committed write is invisible to the snapshot.
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "eu", 90.0, 1)).ok());
  });
  auto eu = db_->GetViewRow(snapshot, "sales_by_region",
                            {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 1);
  EXPECT_EQ((**eu)[2].AsDouble(), 10.0);
  auto base = db_->Get(snapshot, "sales", {Value::Int64(2)});
  EXPECT_FALSE(base->has_value());
  EXPECT_TRUE(db_->Commit(snapshot).ok());

  // A fresh reader sees both.
  Transaction* later = db_->Begin(ReadMode::kSnapshot);
  eu = db_->GetViewRow(later, "sales_by_region", {Value::String("eu")});
  EXPECT_EQ((**eu)[1].AsInt64(), 2);
  EXPECT_TRUE(db_->Commit(later).ok());
}

TEST_F(DatabaseTest, SnapshotScanSeesDeletedRows) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 5.0, 1)).ok());
  });
  Transaction* snapshot = db_->Begin(ReadMode::kSnapshot);
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(1)}).ok());
  });
  auto rows = db_->ScanTable(snapshot, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // deletion happened after our snapshot
  EXPECT_TRUE(db_->Commit(snapshot).ok());

  Transaction* later = db_->Begin(ReadMode::kSnapshot);
  EXPECT_EQ(db_->ScanTable(later, "sales")->size(), 1u);
  EXPECT_TRUE(db_->Commit(later).ok());
}

TEST_F(DatabaseTest, VersionGarbageCollection) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
  });
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Update(txn, "sales", Sale(1, "eu", 20.0, 1)).ok());
  });
  EXPECT_GT(db_->version_store_entries(), 0u);
  EXPECT_GT(db_->GarbageCollectVersions(), 0u);
  EXPECT_EQ(db_->version_store_entries(), 0u);
}

TEST_F(DatabaseTest, CountColumnAggregateSkipsNulls) {
  ViewDefinition def;
  def.name = "region_stats";
  def.kind = ViewKind::kAggregate;
  def.fact_table = sales_;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kCountColumn, 3, "qty_known"}};
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());

  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 1.0, 5)).ok());
    Row with_null = {Value::Int64(2), Value::String("eu"),
                     Value::Double(2.0), Value::Null(TypeId::kInt64)};
    ASSERT_TRUE(db_->Insert(txn, "sales", with_null).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(3, "eu", 3.0, 7)).ok());
  });
  Transaction* reader = db_->Begin();
  auto eu = db_->GetViewRow(reader, "region_stats", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 3);  // COUNT(*) sees all rows
  EXPECT_EQ((**eu)[2].AsInt64(), 2);  // COUNT(qty) skips the NULL
  EXPECT_TRUE(db_->Commit(reader).ok());

  // Deleting the NULL row changes COUNT(*) but not COUNT(qty).
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(2)}).ok());
  });
  reader = db_->Begin();
  eu = db_->GetViewRow(reader, "region_stats", {Value::String("eu")});
  EXPECT_EQ((**eu)[1].AsInt64(), 2);
  EXPECT_EQ((**eu)[2].AsInt64(), 2);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("region_stats").ok());
}

TEST_F(DatabaseTest, RangeScans) {
  ASSERT_TRUE(db_->CreateIndexedView(SalesRegionView(sales_)).ok());
  Commit([&](Transaction* txn) {
    for (int i = 0; i < 20; i++) {
      const char* region = i % 2 == 0 ? "apac" : "eu";
      ASSERT_TRUE(
          db_->Insert(txn, "sales", Sale(i, region, i * 1.0, 1)).ok());
    }
  });

  Transaction* reader = db_->Begin();
  // Base-table range [5, 12).
  auto rows = db_->ScanTableRange(reader, "sales", {Value::Int64(5)},
                                  {Value::Int64(12)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 7u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 5);
  EXPECT_EQ(rows->back()[0].AsInt64(), 11);

  // Unbounded high.
  rows = db_->ScanTableRange(reader, "sales", {Value::Int64(18)}, {});
  EXPECT_EQ(rows->size(), 2u);

  // View range: groups in ["b", "z") -> only "eu".
  auto groups = db_->ScanViewRange(reader, "sales_by_region",
                                   {Value::String("b")},
                                   {Value::String("z")});
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0][0].AsString(), "eu");
  EXPECT_EQ((*groups)[0][1].AsInt64(), 10);
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(DatabaseTest, SnapshotRangeScanRespectsVisibility) {
  Commit([&](Transaction* txn) {
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db_->Insert(txn, "sales", Sale(i, "eu", 1.0, 1)).ok());
    }
  });
  Transaction* snapshot = db_->Begin(ReadMode::kSnapshot);
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(4)}).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(100, "eu", 1.0, 1)).ok());
  });
  auto rows = db_->ScanTableRange(snapshot, "sales", {Value::Int64(2)},
                                  {Value::Int64(7)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);  // 2,3,4,5,6 — the delete is invisible
  EXPECT_TRUE(db_->Commit(snapshot).ok());

  Transaction* later = db_->Begin(ReadMode::kSnapshot);
  rows = db_->ScanTableRange(later, "sales", {Value::Int64(2)},
                             {Value::Int64(7)});
  EXPECT_EQ(rows->size(), 4u);
  EXPECT_TRUE(db_->Commit(later).ok());
}

TEST_F(DatabaseTest, FailedStatementIsAtomic) {
  // A projection view with a unique key that the second insert violates:
  // the statement must roll back its base-table insert too, and the
  // transaction must remain usable.
  ViewDefinition def;
  def.name = "by_amount";
  def.kind = ViewKind::kProjection;
  def.fact_table = sales_;
  def.projection = {2, 0};   // amount, id
  def.projection_key = {0};  // amount must be unique
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());

  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 1)).ok());
  Status s = db_->Insert(txn, "sales", Sale(2, "us", 10.0, 1));
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();  // duplicate view key
  // The failed statement's base row is gone; txn continues and commits.
  ASSERT_TRUE(db_->Insert(txn, "sales", Sale(3, "us", 11.0, 1)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  Transaction* reader = db_->Begin();
  EXPECT_FALSE(db_->Get(reader, "sales", {Value::Int64(2)})->has_value());
  EXPECT_TRUE(db_->Get(reader, "sales", {Value::Int64(3)})->has_value());
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("by_amount").ok());
}

TEST_F(DatabaseTest, PopulationRejectsADuplicateProjectionKeyAcrossChunks) {
  // 600 rows span three scan chunks; the unique projection key (amount)
  // repeats in rows 10 and 400, which fall in different chunks.
  Commit([&](Transaction* txn) {
    for (int i = 0; i < 600; i++) {
      const double amount = i == 400 ? 10.0 : static_cast<double>(i);
      ASSERT_TRUE(db_->Insert(txn, "sales", Sale(i, "eu", amount, 1)).ok());
    }
  });
  ViewDefinition def;
  def.name = "by_amount";
  def.kind = ViewKind::kProjection;
  def.fact_table = sales_;
  def.projection = {2, 0};   // amount, id
  def.projection_key = {0};  // amount must be unique
  auto created = db_->CreateIndexedView(def);
  EXPECT_TRUE(created.status().IsInvalidArgument())
      << created.status().ToString();
  EXPECT_TRUE(db_->GetView("by_amount").status().IsNotFound());

  // Without the duplicate the same view populates.
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Delete(txn, "sales", {Value::Int64(400)}).ok());
  });
  ASSERT_TRUE(db_->CreateIndexedView(def).ok());
  Transaction* reader = db_->Begin();
  EXPECT_EQ(db_->ScanView(reader, "by_amount")->size(), 599u);
  EXPECT_TRUE(db_->Commit(reader).ok());
  EXPECT_TRUE(db_->VerifyViewConsistency("by_amount").ok());
}

TEST_F(DatabaseTest, DirtyReadSeesUncommitted) {
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(db_->Insert(writer, "sales", Sale(1, "eu", 10.0, 1)).ok());
  Transaction* dirty = db_->Begin(ReadMode::kDirty);
  EXPECT_TRUE(db_->Get(dirty, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db_->Commit(dirty).ok());
  EXPECT_TRUE(db_->Abort(writer).ok());
}

// A DDL quiesces the engine: it closes the Begin gate and waits for every
// active transaction. One idle transaction must not wedge the DDL, nor every
// Begin queued behind the closed gate: past lock_wait_timeout the DDL
// returns kBusy, reopens the gate and creates nothing.
class DdlQuiesceTest : public SalesDbTest {
 protected:
  DdlQuiesceTest() {
    options_.lock_wait_timeout = std::chrono::milliseconds(200);
  }
};

TEST_F(DdlQuiesceTest, IdleReaderTurnsDdlIntoBusyAndLeavesNothingBehind) {
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 10.0, 2)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 5.0, 1)).ok());
  });
  struct Ddl {
    const char* name;
    std::function<Status()> run;
    std::function<bool()> exists;
  };
  const Ddl ddls[] = {
      {"CreateIndexedView",
       [&] { return db_->CreateIndexedView(RegionView(sales_)).status(); },
       [&] { return db_->GetView("by_region").ok(); }},
      {"CreateSecondaryIndex",
       [&] {
         return db_->CreateSecondaryIndex("sales_region", "sales", {"region"})
             .status();
       },
       [&] { return db_->catalog().GetSecondaryIndex("sales_region").ok(); }},
  };
  int64_t next_id = 3;
  for (const Ddl& ddl : ddls) {
    SCOPED_TRACE(ddl.name);
    const size_t views = db_->ListViews().size();
    const size_t indexes = db_->catalog().ListAllSecondaryIndexes().size();
    Transaction* holder = db_->Begin(ReadMode::kSnapshot);
    std::promise<Status> done;
    std::future<Status> result = done.get_future();
    std::thread runner([&] { done.set_value(ddl.run()); });
    const bool returned = result.wait_for(std::chrono::seconds(3)) ==
                          std::future_status::ready;
    if (returned) {
      // The gate is open again although the holder is still active.
      Transaction* probe = db_->Begin();
      EXPECT_TRUE(db_->Commit(probe).ok());
    }
    // Committed before asserting, so a DDL that hangs is released.
    ASSERT_TRUE(db_->Commit(holder).ok());
    runner.join();
    ASSERT_TRUE(returned) << "the DDL waited past 3 s for an idle reader";
    const Status first = result.get();
    EXPECT_TRUE(first.IsBusy()) << first.ToString();
    EXPECT_FALSE(ddl.exists());
    EXPECT_EQ(db_->ListViews().size(), views);
    EXPECT_EQ(db_->catalog().ListAllSecondaryIndexes().size(), indexes);

    Transaction* after = db_->Begin();
    ASSERT_TRUE(db_->Insert(after, "sales", Sale(next_id++, "eu", 1.0)).ok());
    ASSERT_TRUE(db_->Commit(after).ok());

    // With nothing left active the same DDL succeeds.
    const Status second = ddl.run();
    ASSERT_TRUE(second.ok()) << second.ToString();
    EXPECT_TRUE(ddl.exists());
  }
  EXPECT_TRUE(db_->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db_->Begin();
  auto eu = db_->GetByIndex(reader, "sales_region", {Value::String("eu")});
  ASSERT_TRUE(eu.ok()) << eu.status().ToString();
  EXPECT_EQ(eu->size(), 3u);  // ids 1, 3 and 4
  EXPECT_TRUE(db_->Commit(reader).ok());
}

}  // namespace
}  // namespace ivdb
