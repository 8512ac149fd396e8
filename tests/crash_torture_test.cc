// Deterministic crash-torture harness over the FaultInjectionEnv seam.
//
// The main sweep runs a scripted mixed base-table/indexed-view workload under
// SyncMode::kFsync, first uninterrupted to count every file-system mutation
// (append, sync, rename, truncate, ...), then once per I/O boundary with a
// hard crash injected exactly there. After each crash the frozen directory is
// reopened with the real Env and recovery must produce a state equal to the
// shadow model of acknowledged commits — or of acknowledged commits plus the
// single unacknowledged commit in flight at the crash — with every indexed
// view equal to recomputation from base data.
//
// Reproduce a failure by exporting IVDB_TORTURE_SEED=<seed> (every failure
// message names the seed and the crash index).
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "engine/database.h"
#include "test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ivdb {
namespace {

uint64_t TortureSeed() {
  const char* s = std::getenv("IVDB_TORTURE_SEED");
  if (s == nullptr || *s == '\0') return 0xC0FFEE;
  return std::strtoull(s, nullptr, 10);
}

// Segment size for the sweeps. Kept tiny by default so the scripted
// workload crosses many rotation boundaries and the mid-stream checkpoints
// actually retire sealed segments — the crash sweep then lands on every
// segment-lifecycle edge (mid-rotation, after create-before-append, between
// checkpoint publish and retirement). Override with
// IVDB_TORTURE_SEGMENT_BYTES to sweep other geometries (0 = no rotation).
uint64_t TortureSegmentBytes() {
  const char* s = std::getenv("IVDB_TORTURE_SEGMENT_BYTES");
  if (s == nullptr || *s == '\0') return 1024;
  return std::strtoull(s, nullptr, 10);
}

using RowMap = std::map<int64_t, Row>;

// What the scripted workload managed to do before the injected crash.
struct TortureOutcome {
  RowMap acked;  // table contents implied by acknowledged commits
  // Contents if the one commit that failed *after* appending its COMMIT
  // record actually reached disk: recovery may legitimately land on either.
  std::optional<RowMap> pending;
  bool finished = false;  // ran to completion (no fault encountered)
};

// Scripted workload, fully determined by `seed`: DDL checkpoints, single- and
// multi-statement transactions, aborts, concurrent escrow increments on a
// shared group, and mid-stream checkpoints. Stops at the first injected
// failure; statement-level errors are impossible (statements do no I/O) and
// propagate as test bugs.
Status RunTortureWorkload(Database* db, uint64_t seed, TortureOutcome* out) {
  Random rng(seed);
  static const char* kRegions[] = {"eu", "us", "apac"};
  int64_t next_id = 1;
  auto make_row = [&](int64_t id, const char* region) {
    return Sale(id, region, static_cast<double>(rng.Uniform(100)),
                static_cast<int64_t>(rng.Uniform(5)) + 1);
  };

  auto table = db->CreateTable("sales", SalesSchema(), {0});
  if (!table.ok()) return Status::OK();  // crash inside the DDL checkpoint
  auto view = db->CreateIndexedView(
      RegionView(table.value()->id, "by_region", /*with_units=*/true));
  if (!view.ok()) return Status::OK();

  for (int i = 0; i < 40; i++) {
    if (i == 14 || i == 29) {
      // A transaction held open across the fuzzy checkpoint: the image
      // excludes it, so its effects must come back from the log whatever
      // side of the checkpoint the crash lands on.
      Transaction* straddler = db->Begin();
      int64_t sid = next_id++;
      Row srow = make_row(sid, kRegions[rng.Uniform(3)]);
      IVDB_RETURN_NOT_OK(db->Insert(straddler, "sales", srow));
      if (!db->Checkpoint().ok()) return Status::OK();
      if (!db->Commit(straddler).ok()) {
        out->pending = out->acked;
        (*out->pending)[sid] = srow;
        return Status::OK();
      }
      out->acked[sid] = srow;
    }
    if (i % 8 == 3) {
      // Two transactions incrementing the same aggregate group, committed
      // back to back: if the crash separates them, recovery must keep the
      // acknowledged delta exactly and strip (or keep whole) the other.
      const char* region = kRegions[rng.Uniform(3)];
      int64_t id1 = next_id++;
      int64_t id2 = next_id++;
      Row r1 = make_row(id1, region);
      Row r2 = make_row(id2, region);
      Transaction* t1 = db->Begin();
      Transaction* t2 = db->Begin();
      IVDB_RETURN_NOT_OK(db->Insert(t1, "sales", r1));
      IVDB_RETURN_NOT_OK(db->Insert(t2, "sales", r2));
      if (!db->Commit(t1).ok()) {
        out->pending = out->acked;
        (*out->pending)[id1] = r1;  // t2 never committed: not a candidate
        return Status::OK();
      }
      out->acked[id1] = r1;
      if (!db->Commit(t2).ok()) {
        out->pending = out->acked;
        (*out->pending)[id2] = r2;
        return Status::OK();
      }
      out->acked[id2] = r2;
      continue;
    }
    if (i % 7 == 5) {
      // Aborted transaction: logically a no-op whatever the crash point.
      Transaction* t = db->Begin();
      IVDB_RETURN_NOT_OK(db->Insert(
          t, "sales", make_row(next_id++, kRegions[rng.Uniform(3)])));
      IVDB_RETURN_NOT_OK(db->Abort(t));
      continue;
    }
    Transaction* t = db->Begin();
    RowMap staged = out->acked;
    uint32_t statements = 1 + rng.Uniform(3);
    for (uint32_t s = 0; s < statements; s++) {
      switch (rng.Uniform(3)) {
        case 0: {
          int64_t id = next_id++;
          Row r = make_row(id, kRegions[rng.Uniform(3)]);
          IVDB_RETURN_NOT_OK(db->Insert(t, "sales", r));
          staged[id] = r;
          break;
        }
        case 1: {
          if (staged.empty()) break;
          auto it = staged.begin();
          std::advance(it, rng.Uniform(staged.size()));
          Row r = make_row(it->first, kRegions[rng.Uniform(3)]);
          IVDB_RETURN_NOT_OK(db->Update(t, "sales", r));
          it->second = r;
          break;
        }
        case 2: {
          if (staged.empty()) break;
          auto it = staged.begin();
          std::advance(it, rng.Uniform(staged.size()));
          IVDB_RETURN_NOT_OK(db->Delete(t, "sales", {Value::Int64(it->first)}));
          staged.erase(it);
          break;
        }
      }
    }
    if (!db->Commit(t).ok()) {
      out->pending = std::move(staged);
      return Status::OK();
    }
    out->acked = std::move(staged);
  }
  out->finished = true;
  return Status::OK();
}

bool RowMapsEqual(const RowMap& a, const RowMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, row] : a) {
    auto it = b.find(id);
    if (it == b.end() || it->second.size() != row.size()) return false;
    for (size_t i = 0; i < row.size(); i++) {
      if (!(row[i] == it->second[i])) return false;
    }
  }
  return true;
}

std::string DescribeKeys(const RowMap& m) {
  std::ostringstream out;
  out << "{";
  for (const auto& [id, row] : m) out << id << " ";
  out << "}";
  return out.str();
}

// Recovery oracle: base table equals the shadow model (acked, or acked plus
// the one in-flight commit), and every surviving view equals recomputation.
void VerifyRecovered(Database* db, const TortureOutcome& out, uint64_t seed,
                     int64_t crash_at) {
  SCOPED_TRACE("reproduce with IVDB_TORTURE_SEED=" + std::to_string(seed) +
               ", crash index " + std::to_string(crash_at));
  RowMap recovered;
  Transaction* reader = db->Begin();
  auto scan = db->ScanTable(reader, "sales");
  if (scan.ok()) {
    for (Row& row : *scan) recovered[row[0].AsInt64()] = row;
  } else {
    // The CREATE TABLE checkpoint never made it: nothing can be committed.
    ASSERT_TRUE(scan.status().IsNotFound()) << scan.status().ToString();
    ASSERT_TRUE(out.acked.empty());
  }
  EXPECT_TRUE(db->Commit(reader).ok());

  bool matches_acked = RowMapsEqual(recovered, out.acked);
  bool matches_pending =
      out.pending.has_value() && RowMapsEqual(recovered, *out.pending);
  EXPECT_TRUE(matches_acked || matches_pending)
      << "recovered ids " << DescribeKeys(recovered) << " vs acked "
      << DescribeKeys(out.acked)
      << (out.pending ? " / pending " + DescribeKeys(*out.pending) : "");

  if (db->GetView("by_region").ok()) {
    Status s = db->VerifyViewConsistency("by_region");
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(CrashTorture, EveryIoBoundarySweep) {
  const uint64_t seed = TortureSeed();

  // Dry run: same workload, fault env with no crash scheduled, to learn the
  // exact number of I/O boundaries.
  int64_t total_ops = 0;
  {
    ScopedTempDir dir("crash_torture_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = TortureSegmentBytes();
    options.env = &env;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    TortureOutcome out;
    ASSERT_TRUE(RunTortureWorkload(db.get(), seed, &out).ok());
    ASSERT_TRUE(out.finished);
    // The sweep is only as good as the boundaries the workload crosses:
    // at the default tiny geometry, prove the dry run rotated segments and
    // retired some at checkpoints, or the per-op crashes below never
    // exercise those edges. (Coarser IVDB_TORTURE_SEGMENT_BYTES overrides
    // legitimately rotate less or not at all.)
    if (uint64_t bytes = TortureSegmentBytes(); bytes > 0 && bytes <= 2048) {
      EXPECT_GT(db->log_metrics().rotations->Value(), 0)
          << "segment_bytes=" << bytes << ": workload never rotates";
      EXPECT_GT(db->log_metrics().segments_retired->Value(), 0)
          << "segment_bytes=" << bytes
          << ": checkpoints never retire a segment";
    }
    db.reset();
    total_ops = env.ops_issued();
  }
  ASSERT_GE(total_ops, 100) << "seed=" << seed
                            << ": workload exposes too few crash points";

  for (int64_t k = 0; k < total_ops; k++) {
    ScopedTempDir dir("crash_torture");
    // The op sequence is workload-determined; the env seed only picks the
    // torn-tail prefix, so vary it per crash point for coverage.
    FaultInjectionEnv env(seed * 1000003 + k);
    env.CrashAtOp(k);
    TortureOutcome out;
    {
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.wal_segment_bytes = TortureSegmentBytes();
      options.env = &env;
      auto opened = Database::Open(options);
      if (opened.ok()) {
        auto db = std::move(opened).value();
        ASSERT_TRUE(RunTortureWorkload(db.get(), seed, &out).ok())
            << "seed=" << seed << " crash_at=" << k;
        EXPECT_FALSE(out.finished)
            << "seed=" << seed << " crash_at=" << k
            << ": crash point inside the op range was never hit";
      }
      // else: crashed while creating the directory or the WAL itself —
      // nothing was acknowledged, recovery below must still succeed.
    }
    ASSERT_TRUE(env.crashed()) << "seed=" << seed << " crash_at=" << k;

    DatabaseOptions recovered;
    recovered.dir = dir.path();
    auto reopened = Database::Open(recovered);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: IVDB_TORTURE_SEED=" << seed << " crash index "
        << k << ": " << reopened.status().ToString();
    VerifyRecovered(reopened.value().get(), out, seed, k);
  }
}

TEST(CrashTorture, SweepIsSeedReproducible) {
  // Two dry runs at the same seed must issue identical op sequences —
  // the property the whole sweep (and IVDB_TORTURE_SEED reproduction)
  // rests on.
  const uint64_t seed = TortureSeed();
  int64_t counts[2];
  for (int round = 0; round < 2; round++) {
    ScopedTempDir dir("crash_torture_repro");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = TortureSegmentBytes();
    options.env = &env;
    auto db = std::move(Database::Open(options)).value();
    TortureOutcome out;
    ASSERT_TRUE(RunTortureWorkload(db.get(), seed, &out).ok());
    db.reset();
    counts[round] = env.ops_issued();
  }
  EXPECT_EQ(counts[0], counts[1]) << "seed=" << seed;
}

// Degraded-mode torture: instead of a hard crash, place a single fsync
// failure at every sync boundary in turn. The engine must flip read-only at
// the failure (no write acknowledged afterwards), keep the process alive,
// and a plain restart must recover exactly the acknowledged state (or the
// acknowledged state plus the one in-flight commit) with consistent views —
// i.e. a live I/O failure is never worse than a power loss at the same
// boundary.
TEST(CrashTorture, DegradedModeEverySyncBoundarySweep) {
  const uint64_t seed = TortureSeed();

  // Dry run: count the sync boundaries of the uninterrupted workload.
  int64_t total_syncs = 0;
  {
    ScopedTempDir dir("degraded_torture_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = TortureSegmentBytes();
    options.env = &env;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    TortureOutcome out;
    ASSERT_TRUE(RunTortureWorkload(db.get(), seed, &out).ok());
    ASSERT_TRUE(out.finished);
    db.reset();
    total_syncs = env.syncs_seen();
  }
  ASSERT_GE(total_syncs, 20) << "seed=" << seed
                             << ": workload exposes too few sync boundaries";

  for (int64_t k = 0; k < total_syncs; k++) {
    SCOPED_TRACE("IVDB_TORTURE_SEED=" + std::to_string(seed) +
                 ", failing sync index " + std::to_string(k));
    ScopedTempDir dir("degraded_torture");
    FaultInjectionEnv env(seed * 1000003 + k);
    env.FailSyncAt(k);
    TortureOutcome out;
    {
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.wal_segment_bytes = TortureSegmentBytes();
      options.env = &env;
      auto opened = Database::Open(options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      auto db = std::move(opened).value();
      ASSERT_TRUE(RunTortureWorkload(db.get(), seed, &out).ok());
      ASSERT_FALSE(out.finished)
          << "sync index inside the dry-run range was never hit";

      // The injected failure must have degraded the engine, and nothing is
      // acknowledged after the degrade: write statements and new
      // locking-mode transactions are rejected without touching the WAL.
      EXPECT_TRUE(db->degraded());
      Transaction* writer = db->Begin();
      Status s = db->Insert(writer, "sales", Sale(999999, "eu", 1.0));
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
      auto checked = db->BeginChecked(ReadMode::kLocking);
      EXPECT_TRUE(checked.status().IsUnavailable())
          << checked.status().ToString();
      // No crash was simulated: the process survived the failure.
      EXPECT_FALSE(env.crashed());

      // Every degraded entry leaves the flight-recorder black box beside
      // the WAL, whichever sync boundary poisoned the batch.
      const std::string blackbox = dir.path() + "/blackbox-1.json";
      EXPECT_TRUE(Env::Default()->FileExists(blackbox));
      std::string dump;
      EXPECT_TRUE(Env::Default()->ReadFileToString(blackbox, &dump).ok());
      EXPECT_FALSE(dump.empty());
      EXPECT_EQ(dump.front(), '{');
      EXPECT_EQ(dump.back(), '}');
      EXPECT_NE(dump.find("\"flight_recorder\":1"), std::string::npos);
      EXPECT_NE(dump.find("\"reason\":\"degraded\""), std::string::npos);
    }

    DatabaseOptions recovered;
    recovered.dir = dir.path();
    auto reopened = Database::Open(recovered);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_FALSE(reopened.value()->degraded());
    VerifyRecovered(reopened.value().get(), out, seed, k);
  }
}

// --- Batched-commit crash sweep (parallel group-commit pipeline) ----------
//
// The WAL writer coalesces several transactions' records into ONE segment
// append with ONE fsync, so a crash can land between staging and the batch
// append, inside the batch append, between the append and its fsync, or
// inside a rotation that a batched pass performed. The sweep below scripts
// a deterministic multi-transaction batch workload directly against a
// LogManager (single driver thread, so the env-op stream is exactly
// reproducible), crashes at every boundary, and checks the group-commit
// durability contract after recovery: the surviving record stream is a
// dense LSN prefix (a batch can tear only at its tail, never leave a
// hole), and it covers every LSN whose Flush() was acknowledged before the
// crash.

struct BatchScriptResult {
  Lsn acked = 0;      // highest LSN whose Flush() returned OK
  Lsn appended = 0;   // highest LSN ever staged
  int64_t batch_fsyncs = 0;  // WAL flush batches performed
  bool finished = false;
};

// Eight rounds of four transactions (BEGIN + INSERT + COMMIT records each),
// all staged before one Flush() covers the round — so each round is one
// multi-transaction batch append. Tiny segments force rotations inside
// batched passes. Stops at the first injected failure.
void RunBatchScript(const std::string& dir, Env* env,
                    BatchScriptResult* out) {
  LogManagerOptions options;
  options.dir = dir;
  options.env = env;
  options.sync = SyncMode::kFsync;
  options.segment_bytes = 1024;
  options.staging_shards = 2;
  LogManager log(options);
  if (!log.Open().ok()) return;
  TxnId txn = 0;
  for (int round = 0; round < 8; round++) {
    Lsn last = 0;
    for (int t = 0; t < 4; t++) {
      ++txn;
      for (LogRecordType type :
           {LogRecordType::kBegin, LogRecordType::kInsert,
            LogRecordType::kCommit}) {
        LogRecord rec;
        rec.type = type;
        rec.txn_id = txn;
        if (type == LogRecordType::kInsert) {
          rec.object_id = 5;
          rec.key = "txn-" + std::to_string(txn);
          rec.after = std::string(40, 'v');
        }
        if (!log.Append(&rec).ok()) return;
        out->appended = rec.lsn;
        last = rec.lsn;
      }
    }
    // One flush for the whole round: four transactions' records ride one
    // batch append + one fsync.
    if (!log.Flush(last).ok()) return;
    out->acked = last;
    out->batch_fsyncs = log.metrics().flushes->Value();
  }
  out->finished = true;
}

TEST(CrashTorture, BatchedCommitEveryOpBoundarySweep) {
  const uint64_t seed = TortureSeed();

  // Dry run: prove the workload actually batches (one flush per
  // four-transaction round) and learn the total env-op count.
  int64_t total_ops = 0;
  Lsn full_appended = 0;
  {
    ScopedTempDir dir("batched_commit_dry");
    FaultInjectionEnv env(seed);
    BatchScriptResult out;
    RunBatchScript(dir.path(), &env, &out);
    ASSERT_TRUE(out.finished);
    ASSERT_EQ(out.batch_fsyncs, 8) << "rounds did not coalesce 1:1";
    ASSERT_EQ(out.acked, out.appended);
    full_appended = out.appended;
    total_ops = env.ops_issued();
  }
  ASSERT_GE(total_ops, 20) << "seed=" << seed
                           << ": script exposes too few crash points";

  for (int64_t k = 0; k < total_ops; k++) {
    SCOPED_TRACE("IVDB_TORTURE_SEED=" + std::to_string(seed) +
                 ", crash index " + std::to_string(k));
    ScopedTempDir dir("batched_commit");
    FaultInjectionEnv env(seed * 1000003 + k);
    env.CrashAtOp(k);
    BatchScriptResult out;
    RunBatchScript(dir.path(), &env, &out);
    ASSERT_TRUE(env.crashed());
    EXPECT_FALSE(out.finished);

    std::vector<LogRecord> records;
    ASSERT_TRUE(LogManager::ReadLog(dir.path(), &records).ok());
    // A batch may tear only at its tail: the surviving stream is a dense
    // LSN prefix, never a stream with a hole inside a batch.
    for (size_t i = 0; i < records.size(); i++) {
      ASSERT_EQ(records[i].lsn, static_cast<Lsn>(i + 1))
          << "hole in the recovered batch stream";
    }
    // Ack-iff-durable across every batching boundary: everything
    // acknowledged before the crash is on disk, and nothing appears that
    // was never staged.
    ASSERT_GE(static_cast<Lsn>(records.size()), out.acked)
        << "acknowledged batch prefix lost";
    ASSERT_LE(static_cast<Lsn>(records.size()), full_appended);
  }
}

// --- Online-build crash sweep ---------------------------------------------
//
// A scripted workload runs an online view build to completion between two
// batches of committed writes, then the sweep crashes at every env-op
// boundary — which lands inside every phase of the build state machine:
// the capture's retention pin, the kViewBuildStart append/flush, the
// catch-up tail reads, the flip transaction's appends, the kViewBuildCommit
// flush, and the pre-build checkpoint's interleavings. After recovery the
// view must be fully live and equal to recomputation, or fully absent with
// the abandoned build record garbage-collected — never anything in between.

Status RunBuildTortureWorkload(Database* db, uint64_t seed,
                               TortureOutcome* out, bool* build_ok) {
  Random rng(seed);
  static const char* kRegions[] = {"eu", "us", "apac"};
  auto table = db->CreateTable("sales", SalesSchema(), {0});
  if (!table.ok()) return Status::OK();  // crash inside the DDL checkpoint

  int64_t next_id = 1;
  Status stmt_error;  // statement failures propagate as test bugs
  auto insert_one = [&]() -> bool {
    int64_t id = next_id++;
    Row row = Sale(id, kRegions[rng.Uniform(3)],
                   static_cast<double>(rng.Uniform(100)),
                   static_cast<int64_t>(rng.Uniform(5)) + 1);
    Transaction* txn = db->Begin();
    stmt_error = db->Insert(txn, "sales", row);
    if (!stmt_error.ok()) return false;
    if (!db->Commit(txn).ok()) {
      out->pending = out->acked;
      (*out->pending)[id] = row;
      return false;
    }
    out->acked[id] = row;
    return true;
  };

  for (int i = 0; i < 12; i++) {
    if (i == 6 && !db->Checkpoint().ok()) return Status::OK();
    if (!insert_one()) return stmt_error;
  }

  auto view = db->CreateIndexedViewOnline(
      RegionView(table.value()->id, "by_region", /*with_units=*/true));
  if (!view.ok()) return Status::OK();  // crash mid-build
  *build_ok = true;

  // Post-flip traffic: the freshly flipped view is maintained like any
  // other, so redo after a crash must replay maintenance on top of the
  // flip transaction's contents.
  for (int i = 0; i < 6; i++) {
    if (i == 3 && !out->acked.empty()) {
      auto it = out->acked.begin();
      Transaction* txn = db->Begin();
      IVDB_RETURN_NOT_OK(db->Delete(txn, "sales", {Value::Int64(it->first)}));
      if (!db->Commit(txn).ok()) {
        out->pending = out->acked;
        out->pending->erase(it->first);
        return Status::OK();
      }
      out->acked.erase(it);
      continue;
    }
    if (!insert_one()) return stmt_error;
  }
  out->finished = true;
  return Status::OK();
}

TEST(CrashTorture, OnlineBuildEveryOpBoundarySweep) {
  const uint64_t seed = TortureSeed();

  int64_t total_ops = 0;
  {
    ScopedTempDir dir("build_torture_dry");
    FaultInjectionEnv env(seed);
    DatabaseOptions options;
    options.dir = dir.path();
    options.sync = SyncMode::kFsync;
    options.wal_segment_bytes = TortureSegmentBytes();
    options.env = &env;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto db = std::move(opened).value();
    TortureOutcome out;
    bool build_ok = false;
    ASSERT_TRUE(RunBuildTortureWorkload(db.get(), seed, &out, &build_ok).ok());
    ASSERT_TRUE(out.finished);
    ASSERT_TRUE(build_ok);
    db.reset();
    total_ops = env.ops_issued();
  }
  ASSERT_GE(total_ops, 50) << "seed=" << seed
                           << ": workload exposes too few crash points";

  for (int64_t k = 0; k < total_ops; k++) {
    SCOPED_TRACE("IVDB_TORTURE_SEED=" + std::to_string(seed) +
                 ", crash index " + std::to_string(k));
    ScopedTempDir dir("build_torture");
    FaultInjectionEnv env(seed * 1000003 + static_cast<uint64_t>(k));
    env.CrashAtOp(k);
    TortureOutcome out;
    bool build_ok = false;
    {
      DatabaseOptions options;
      options.dir = dir.path();
      options.sync = SyncMode::kFsync;
      options.wal_segment_bytes = TortureSegmentBytes();
      options.env = &env;
      auto opened = Database::Open(options);
      if (opened.ok()) {
        auto db = std::move(opened).value();
        ASSERT_TRUE(
            RunBuildTortureWorkload(db.get(), seed, &out, &build_ok).ok());
        EXPECT_FALSE(out.finished);
      }
    }
    ASSERT_TRUE(env.crashed());

    // Classify the frozen directory by its durable markers before recovery
    // mutates anything: a surviving kViewBuildCommit means the flip sealed.
    bool has_start = false;
    bool has_commit = false;
    {
      std::vector<LogRecord> records;
      ASSERT_TRUE(LogManager::ReadLog(dir.path(), &records).ok());
      for (const LogRecord& rec : records) {
        if (rec.type == LogRecordType::kViewBuildStart) has_start = true;
        if (rec.type == LogRecordType::kViewBuildCommit) has_commit = true;
      }
    }

    DatabaseOptions recovered_options;
    recovered_options.dir = dir.path();
    auto reopened = Database::Open(recovered_options);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: IVDB_TORTURE_SEED=" << seed << " crash index "
        << k << ": " << reopened.status().ToString();
    Database* db = reopened.value().get();

    VerifyRecovered(db, out, seed, k);
    // All-or-nothing: the build either flipped (view live, consistent —
    // VerifyRecovered checked it) or left nothing behind.
    EXPECT_EQ(db->GetView("by_region").ok(), has_commit);
    EXPECT_TRUE(db->catalog().ListViewBuilds().empty());
    if (has_start && !has_commit) {
      EXPECT_NE(db->DumpMetrics().find("ivdb_view_build_gc_total 1"),
                std::string::npos);
    }
  }
}

using FaultRecoveryTest = DurableDbTest;

TEST_F(FaultRecoveryTest, FsyncFailureAtCommitRollsBackEscrowDeltas) {
  // T1 and T2 hold concurrent escrow increments on the same group. T2's
  // commit hits an fsync failure: it must report an error, and after the
  // crash its delta must be gone while T1's committed delta survives.
  FaultInjectionEnv env(TortureSeed());
  {
    auto db = OpenDb(&env, SyncMode::kFsync);
    ObjectId fact = db->CreateTable("sales", SalesSchema(), {0}).value()->id;
    ASSERT_TRUE(db->CreateIndexedView(RegionView(fact)).ok());

    Transaction* t1 = db->Begin();
    Transaction* t2 = db->Begin();
    ASSERT_TRUE(db->Insert(t1, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Insert(t2, "sales", Sale(2, "eu", 100.0)).ok());
    ASSERT_TRUE(db->Commit(t1).ok());

    env.FailNextSyncs(1);
    Status s = db->Commit(t2);
    ASSERT_TRUE(s.IsIOError()) << s.ToString();
    // Crash without cleaning up t2.
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->VerifyViewConsistency("by_region").ok());
  Transaction* reader = db->Begin();
  auto eu = db->GetViewRow(reader, "by_region", {Value::String("eu")});
  ASSERT_TRUE(eu->has_value());
  EXPECT_EQ((**eu)[1].AsInt64(), 1);       // T1's row only
  EXPECT_EQ((**eu)[2].AsDouble(), 10.0);   // T2's +100 stripped
  EXPECT_FALSE(db->Get(reader, "sales", {Value::Int64(2)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(FaultRecoveryTest, LeftoverTmpFilesSweptAtRecovery) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Plant the debris a crash mid-atomic-replace leaves behind.
  Env* env = Env::Default();
  for (const char* name : {"/checkpoint.db.tmp", "/junk.tmp"}) {
    auto file = env->NewWritableFile(dir_ + name, /*truncate_existing=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("half-written garbage").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }

  auto db = OpenDb();
  EXPECT_FALSE(env->FileExists(dir_ + "/checkpoint.db.tmp"));
  EXPECT_FALSE(env->FileExists(dir_ + "/junk.tmp"));
  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

TEST_F(FaultRecoveryTest, TransientReadFailureSurfacesAsIoError) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, "eu", 10.0)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  FaultInjectionEnv env(TortureSeed());
  env.FailNextReads(1);
  DatabaseOptions options;
  options.dir = dir_;
  options.env = &env;
  auto failed = Database::Open(options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  // The failure was transient: the retry recovers everything.
  auto db = OpenDb(&env);
  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db->Commit(reader).ok());
}

}  // namespace
}  // namespace ivdb
