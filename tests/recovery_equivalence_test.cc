// Crash-equivalence: recovery must be a pure function of the bytes on disk.
//
// A randomized workload runs over a segmented WAL under SyncMode::kFsync and
// is killed by an injected crash. The frozen directory is then recovered
// twice — once with serial replay, once with the parallel redo pipeline —
// and the two recovered engines must be indistinguishable: identical decoded
// log streams, identical full scans of the base table and of every indexed
// view, and identical behaviour for new work. The sweep runs at several
// crash depths and under two segment geometries (one big segment vs many
// tiny ones), so the equivalence covers rotation, checkpoint retirement, and
// the torn newest-segment tail.
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "engine/database.h"
#include "test_util.h"
#include "wal/log_manager.h"

namespace ivdb {
namespace {

void CopyDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

// Scripted randomized workload, deterministic for a given seed; stops at the
// first injected I/O failure. Creates "sales" (WideSchema) plus an aggregate
// and a projection view, then mixes single- and multi-statement
// transactions, aborts, and mid-stream checkpoints.
Status CrashWorkload(Database* db, uint64_t seed) {
  Random rng(seed);
  auto table = db->CreateTable("sales", WideSchema(), {0});
  if (!table.ok()) return Status::OK();  // crashed inside the DDL checkpoint
  {
    ViewDefinition def;
    def.name = "by_grp";
    def.kind = ViewKind::kAggregate;
    def.fact_table = table.value()->id;
    def.group_by = {1};
    def.aggregates = {{AggregateFunction::kSum, 3, "total"},
                      {AggregateFunction::kAvg, 4, "avg_price"}};
    if (!db->CreateIndexedView(def).ok()) return Status::OK();
  }
  {
    ViewDefinition def;
    def.name = "big_sales";
    def.kind = ViewKind::kProjection;
    def.fact_table = table.value()->id;
    def.filter = {{3, CompareOp::kGe, Value::Int64(80)}};
    def.projection = {0, 2, 3};
    def.projection_key = {0};
    if (!db->CreateIndexedView(def).ok()) return Status::OK();
  }

  for (int i = 0; i < 60; i++) {
    if (i == 23 || i == 47) {
      if (!db->Checkpoint().ok()) return Status::OK();
    }
    Transaction* txn = db->Begin();
    uint32_t statements = 1 + rng.Uniform(3);
    Status s;
    for (uint32_t j = 0; s.ok() && j < statements; j++) {
      int64_t id = static_cast<int64_t>(rng.Uniform(40));
      switch (rng.Uniform(4)) {
        case 0:
        case 1:
          s = db->Insert(txn, "sales", RandomWideRow(&rng, id));
          if (s.IsAlreadyExists()) s = Status::OK();
          break;
        case 2:
          s = db->Update(txn, "sales", RandomWideRow(&rng, id));
          if (s.IsNotFound()) s = Status::OK();
          break;
        case 3:
          s = db->Delete(txn, "sales", {Value::Int64(id)});
          if (s.IsNotFound()) s = Status::OK();
          break;
      }
    }
    if (s.ok() && rng.OneIn(8)) {
      s = db->Abort(txn);
      if (!s.ok()) return Status::OK();
      continue;
    }
    if (!s.ok() || !db->Commit(txn).ok()) return Status::OK();
  }
  return Status::OK();
}

// Everything observable through the public API, as one string: full base
// table scan plus full scans of both views, in key order.
std::string CaptureState(Database* db) {
  std::ostringstream out;
  Transaction* reader = db->Begin();
  auto rows = db->ScanTable(reader, "sales");
  if (rows.ok()) {
    for (const Row& row : *rows) {
      out << "table";
      for (const Value& v : row) out << "|" << v.ToString();
      out << "\n";
    }
  } else {
    out << "table-scan:" << rows.status().ToString() << "\n";
  }
  for (const char* view : {"by_grp", "big_sales"}) {
    auto vrows = db->ScanView(reader, view);
    if (vrows.ok()) {
      for (const Row& row : *vrows) {
        out << view;
        for (const Value& v : row) out << "|" << v.ToString();
        out << "\n";
      }
    } else {
      out << view << "-scan:" << vrows.status().ToString() << "\n";
    }
  }
  EXPECT_TRUE(db->Commit(reader).ok());
  return out.str();
}

void VerifySurvivingViews(Database* db) {
  for (const char* view : {"by_grp", "big_sales"}) {
    if (!db->GetView(view).ok()) continue;
    Status s = db->VerifyViewConsistency(view);
    EXPECT_TRUE(s.ok()) << view << ": " << s.ToString();
  }
}

class RecoveryEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryEquivalenceTest, SerialAndParallelReplayAgree) {
  const uint64_t segment_bytes = GetParam();
  const uint64_t seed = 0x51D0EC0D;

  // Dry run: learn the total number of I/O boundaries for this geometry.
  int64_t total_ops = 0;
  {
    ScopedTempDir dir("recov_equiv_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = segment_bytes;
    options.env = &env;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    ASSERT_TRUE(CrashWorkload(db.get(), seed).ok());
    if (segment_bytes != 0) {
      ASSERT_GT(db->log_metrics().rotations->Value(), 0)
          << "geometry produces a single segment; sweep would be vacuous";
    }
    db.reset();
    total_ops = env.ops_issued();
  }
  ASSERT_GE(total_ops, 50);

  for (int percent : {20, 45, 70, 95}) {
    const int64_t crash_at = total_ops * percent / 100;
    SCOPED_TRACE("segment_bytes=" + std::to_string(segment_bytes) +
                 " crash_at=" + std::to_string(crash_at));

    ScopedTempDir dir("recov_equiv");
    {
      FaultInjectionEnv env(seed * 1000003 + static_cast<uint64_t>(crash_at));
      env.CrashAtOp(crash_at);
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.wal_segment_bytes = segment_bytes;
      options.env = &env;
      auto opened = Database::Open(options);
      if (opened.ok()) {
        auto db = std::move(opened).value();
        ASSERT_TRUE(CrashWorkload(db.get(), seed).ok());
      }
      ASSERT_TRUE(env.crashed());
    }

    // Two bit-identical copies of the frozen directory.
    ScopedTempDir twin("recov_equiv_twin");
    CopyDir(dir.path(), twin.path());

    // The decoded log stream must not depend on the reader's parallelism.
    std::vector<LogRecord> serial_records;
    std::vector<LogRecord> parallel_records;
    ASSERT_TRUE(LogManager::ReadLog(dir.path(), &serial_records, nullptr, 1)
                    .ok());
    ASSERT_TRUE(
        LogManager::ReadLog(twin.path(), &parallel_records, nullptr, 4).ok());
    ASSERT_EQ(serial_records.size(), parallel_records.size());
    for (size_t i = 0; i < serial_records.size(); i++) {
      std::string a, b;
      serial_records[i].EncodeTo(&a);
      parallel_records[i].EncodeTo(&b);
      ASSERT_EQ(a, b) << "record " << i << " diverges: "
                      << serial_records[i].ToString() << " vs "
                      << parallel_records[i].ToString();
    }

    // Recover each copy with a different replay pipeline.
    DatabaseOptions serial_options;
    serial_options.dir = dir.path();
    serial_options.recovery_threads = 1;
    auto serial = Database::Open(serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    DatabaseOptions parallel_options;
    parallel_options.dir = twin.path();
    parallel_options.recovery_threads = 4;
    auto parallel = Database::Open(parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    EXPECT_EQ(CaptureState(serial.value().get()),
              CaptureState(parallel.value().get()));
    VerifySurvivingViews(serial.value().get());
    VerifySurvivingViews(parallel.value().get());

    // Both recovered engines must accept identical new work identically.
    for (Database* db : {serial.value().get(), parallel.value().get()}) {
      Transaction* txn = db->Begin();
      Status s = db->Insert(txn, "sales",
                            {Value::Int64(100000), Value::Int64(1),
                             Value::String("eu"), Value::Int64(7),
                             Value::Double(1.25)});
      if (s.IsNotFound()) {  // crashed before the CREATE TABLE checkpoint
        (void)db->Abort(txn);
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    EXPECT_EQ(CaptureState(serial.value().get()),
              CaptureState(parallel.value().get()));
  }
}

// Mid-run online build: the frozen WAL now contains kViewBuildStart, the
// flip transaction's records, and kViewBuildCommit — possibly torn at any
// of them. Serial and parallel replay must still agree bit for bit on the
// recovered engine, including the build pre-pass and abandoned-build GC.
TEST(OnlineBuildEquivalence, MidRunBuildSerialAndParallelReplayAgree) {
  const uint64_t seed = 0xB01D1;
  const uint64_t segment_bytes = 1024;

  auto workload = [&](Database* db) -> Status {
    Random rng(seed);
    auto table = db->CreateTable("sales", WideSchema(), {0});
    if (!table.ok()) return Status::OK();
    for (int i = 0; i < 25; i++) {
      Transaction* txn = db->Begin();
      Status s = db->Insert(txn, "sales", RandomWideRow(&rng, i));
      if (s.IsAlreadyExists()) s = Status::OK();
      IVDB_RETURN_NOT_OK(s);
      if (!db->Commit(txn).ok()) return Status::OK();
    }
    ViewDefinition def;
    def.name = "by_grp";
    def.kind = ViewKind::kAggregate;
    def.fact_table = table.value()->id;
    def.group_by = {1};
    def.aggregates = {{AggregateFunction::kSum, 3, "total"},
                      {AggregateFunction::kAvg, 4, "avg_price"}};
    if (!db->CreateIndexedViewOnline(def).ok()) return Status::OK();
    // A checkpoint right after the flip: one crash window has the view in
    // the image, another only in the WAL markers.
    if (!db->Checkpoint().ok()) return Status::OK();
    for (int i = 25; i < 50; i++) {
      Transaction* txn = db->Begin();
      Status s = db->Insert(txn, "sales", RandomWideRow(&rng, i));
      if (s.IsAlreadyExists()) s = Status::OK();
      IVDB_RETURN_NOT_OK(s);
      if (!db->Commit(txn).ok()) return Status::OK();
    }
    return Status::OK();
  };

  auto capture = [](Database* db) {
    std::ostringstream out;
    Transaction* reader = db->Begin();
    auto rows = db->ScanTable(reader, "sales");
    if (rows.ok()) {
      for (const Row& row : *rows) {
        out << "table";
        for (const Value& v : row) out << "|" << v.ToString();
        out << "\n";
      }
    } else {
      out << "table-scan:" << rows.status().ToString() << "\n";
    }
    auto vrows = db->ScanView(reader, "by_grp");
    if (vrows.ok()) {
      for (const Row& row : *vrows) {
        out << "by_grp";
        for (const Value& v : row) out << "|" << v.ToString();
        out << "\n";
      }
    } else {
      out << "by_grp-scan:" << vrows.status().ToString() << "\n";
    }
    for (const auto& b : db->catalog().ListViewBuilds()) {
      out << "build|" << b.name << "|" << int(b.phase) << "\n";
    }
    EXPECT_TRUE(db->Commit(reader).ok());
    return out.str();
  };

  int64_t total_ops = 0;
  {
    ScopedTempDir dir("build_equiv_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = segment_bytes;
    options.env = &env;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    ASSERT_TRUE(workload(db.get()).ok());
    ASSERT_TRUE(db->GetView("by_grp").ok()) << "dry-run build never flipped";
    db.reset();
    total_ops = env.ops_issued();
  }
  ASSERT_GE(total_ops, 50);

  for (int percent : {25, 45, 60, 75, 90}) {
    const int64_t crash_at = total_ops * percent / 100;
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    ScopedTempDir dir("build_equiv");
    {
      FaultInjectionEnv env(seed * 1000003 + static_cast<uint64_t>(crash_at));
      env.CrashAtOp(crash_at);
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.wal_segment_bytes = segment_bytes;
      options.env = &env;
      auto opened = Database::Open(options);
      if (opened.ok()) {
        auto db = std::move(opened).value();
        ASSERT_TRUE(workload(db.get()).ok());
      }
      ASSERT_TRUE(env.crashed());
    }

    ScopedTempDir twin("build_equiv_twin");
    CopyDir(dir.path(), twin.path());

    DatabaseOptions serial_options;
    serial_options.dir = dir.path();
    serial_options.recovery_threads = 1;
    auto serial = Database::Open(serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    DatabaseOptions parallel_options;
    parallel_options.dir = twin.path();
    parallel_options.recovery_threads = 4;
    auto parallel = Database::Open(parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    EXPECT_EQ(capture(serial.value().get()), capture(parallel.value().get()));
    for (Database* db : {serial.value().get(), parallel.value().get()}) {
      EXPECT_TRUE(db->catalog().ListViewBuilds().empty());
      if (db->GetView("by_grp").ok()) {
        Status s = db->VerifyViewConsistency("by_grp");
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SegmentGeometries, RecoveryEquivalenceTest,
                         ::testing::Values(uint64_t{0},      // one segment
                                           uint64_t{1024}),  // many segments
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return info.param == 0 ? "SingleSegment"
                                                  : "ManySegments";
                         });

}  // namespace
}  // namespace ivdb
