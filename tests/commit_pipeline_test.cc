// Parallel group-commit pipeline (docs/INTERNALS.md, "Commit pipeline").
//
// Covers every batching boundary of the dedicated WAL writer:
//   * adaptive batch-size convergence (pure policy state machine);
//   * segment bytes independent of the staging-shard count for one append
//     sequence;
//   * flush joining — a returned Flush() implies the durable watermark
//     covers the caller, and concurrent committers coalesce into fewer
//     fsyncs than commits;
//   * deterministic pipeline operation under ManualClock (the batching
//     window sleeps in virtual time, so nothing stalls or races the clock);
//   * the convoy wait — committers slower than the window still share one
//     batch, and a committer that leaves costs at most one capped wait;
//   * commit-visibility flips strictly in COMMIT-LSN order (observable as
//     the logged commit timestamps being monotone in LSN order — both are
//     drawn in one visibility_mu_ critical section);
//   * a failed batch fsync poisons the WAL and rolls back EVERY transaction
//     in the batch: exactly one committer surfaces the root-cause IOError,
//     the rest learn kUnavailable, and none of their effects are visible.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "engine/database.h"
#include "test_util.h"
#include "wal/batch_policy.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ivdb {
namespace {

// --- Adaptive batch-size convergence -------------------------------------

TEST(AdaptiveBatchPolicy, GrowsUnderSustainedLoadAndConvergesAtMax) {
  AdaptiveBatchPolicy policy(16, 1024);
  ASSERT_EQ(policy.window_micros(), 16u);
  // 16 -> 32 -> ... -> 1024 in six doublings; further load holds there.
  for (int i = 0; i < 6; i++) {
    policy.OnBatch(AdaptiveBatchPolicy::kGrowThreshold);
  }
  EXPECT_EQ(policy.window_micros(), 1024u);
  for (int i = 0; i < 10; i++) policy.OnBatch(32);
  EXPECT_EQ(policy.window_micros(), 1024u);
}

TEST(AdaptiveBatchPolicy, DecaysToMinWhenCommittersArriveAlone) {
  AdaptiveBatchPolicy policy(16, 1024);
  for (int i = 0; i < 6; i++) policy.OnBatch(8);
  ASSERT_EQ(policy.window_micros(), 1024u);
  for (int i = 0; i < 10; i++) policy.OnBatch(1);
  EXPECT_EQ(policy.window_micros(), 16u);
  policy.OnBatch(0);
  EXPECT_EQ(policy.window_micros(), 16u);  // clamped, never below min
}

TEST(AdaptiveBatchPolicy, UnloadedEnginePaysNothingAndRegrowsFromFloor) {
  AdaptiveBatchPolicy policy(0, 512);
  EXPECT_EQ(policy.window_micros(), 0u);
  policy.OnBatch(1);
  EXPECT_EQ(policy.window_micros(), 0u);  // lone committers stay free
  policy.OnBatch(AdaptiveBatchPolicy::kGrowThreshold);
  EXPECT_EQ(policy.window_micros(), AdaptiveBatchPolicy::kFloorMicros);
  for (int i = 0; i < 10; i++) {
    policy.OnBatch(AdaptiveBatchPolicy::kGrowThreshold);
  }
  EXPECT_EQ(policy.window_micros(), 512u);
}

TEST(AdaptiveBatchPolicy, HoldsInTheMidBand) {
  AdaptiveBatchPolicy policy(16, 1024);
  policy.OnBatch(AdaptiveBatchPolicy::kGrowThreshold);
  ASSERT_EQ(policy.window_micros(), 32u);
  // 2..3 commits per batch: neither grow nor shrink.
  policy.OnBatch(2);
  policy.OnBatch(3);
  EXPECT_EQ(policy.window_micros(), 32u);
}

// --- LogManager-level pipeline behaviour ----------------------------------

class CommitPipelineWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "commit_pipeline_wal_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

LogRecord InsertRecord(TxnId txn, const std::string& key) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.txn_id = txn;
  rec.object_id = 5;
  rec.key = key;
  rec.after = "value-" + key;
  return rec;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Segment bytes do not depend on how appends were staged and batched: one
// append/flush/rotate script produces the same segment files whether the
// writer drains one staging shard or four. (This is what lets
// crash-recovery coverage at one shard count speak for the others.)
TEST_F(CommitPipelineWalTest, SegmentBytesDoNotDependOnStagingShards) {
  const std::string one_dir = dir_ + "/one-shard";
  const std::string four_dir = dir_ + "/four-shards";
  for (uint32_t shards : {1u, 4u}) {
    const std::string& d = shards == 1 ? one_dir : four_dir;
    std::filesystem::create_directories(d);
    LogManagerOptions options;
    options.dir = d;
    options.segment_bytes = 512;  // several rotations over the run
    options.staging_shards = shards;
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 40; i++) {
      LogRecord rec = InsertRecord(1 + i % 3, "key-" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
      ASSERT_EQ(rec.lsn, static_cast<Lsn>(i + 1));
      if (i % 4 == 3) {
        ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
      if (i == 19) {
        ASSERT_TRUE(log.RotateNow().ok());
      }
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  }

  auto one_files = LogManager::ListSegmentFiles(one_dir);
  auto four_files = LogManager::ListSegmentFiles(four_dir);
  ASSERT_TRUE(one_files.ok());
  ASSERT_TRUE(four_files.ok());
  ASSERT_EQ(one_files.value(), four_files.value());
  ASSERT_GT(one_files.value().size(), 1u) << "rotation never triggered";
  for (const std::string& name : one_files.value()) {
    EXPECT_EQ(ReadFileBytes(one_dir + "/" + name),
              ReadFileBytes(four_dir + "/" + name))
        << name << " diverges between 1 and 4 staging shards";
  }
}

// Flush joining: every returned Flush() implies the durable
// watermark covers the caller's LSN, the final log is the dense
// concatenation of every thread's records, and concurrent committers share
// fsyncs (flush batches served more than one record each on average).
TEST_F(CommitPipelineWalTest, ConcurrentCommittersJoinBatchesCorrectly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  LogManagerOptions options;
  options.dir = dir_;
  options.sync = SyncMode::kFsync;
  options.staging_shards = 4;
  options.group_commit_window_micros = 32;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        LogRecord rec = InsertRecord(
            static_cast<TxnId>(t + 1),
            "t" + std::to_string(t) + "-" + std::to_string(i));
        if (!log.Append(&rec).ok() || !log.Flush(rec.lsn).ok()) {
          failures.fetch_add(1);
          return;
        }
        // The flush-join contract: a returned Flush(lsn) means the durable
        // watermark has passed lsn, whoever performed the actual fsync.
        if (log.flushed_lsn() < rec.lsn) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const Lsn total = kThreads * kPerThread;
  EXPECT_EQ(log.last_lsn(), total);
  EXPECT_EQ(log.flushed_lsn(), total);
  const int64_t fsyncs = log.metrics().flushes->Value();
  ASSERT_GT(fsyncs, 0);
  EXPECT_LE(fsyncs, static_cast<int64_t>(total));
  const auto batches = log.metrics().batch_records->Snap();
  EXPECT_EQ(batches.count, static_cast<uint64_t>(fsyncs));
  EXPECT_EQ(batches.sum, static_cast<uint64_t>(total))
      << "every staged record must be written exactly once";

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(total));
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1)) << "LSN gap at " << i;
  }
}

// The batching window sleeps through the Clock seam, so a ManualClock
// harness drives the whole pipeline in virtual time: a wide window adds no
// wall-clock latency and cannot deadlock the lone committer. The simulated
// device puts every pass through the convoy check, which a convoy of one
// passes without waiting.
TEST_F(CommitPipelineWalTest, ManualClockRunsTheWindowInVirtualTime) {
  ManualClock clock(1000);
  LogManagerOptions options;
  options.dir = dir_;
  options.staging_shards = 2;
  options.group_commit_window_micros = 50000;  // intolerable if slept for real
  options.flush_delay_micros = 20000;          // likewise
  options.clock = &clock;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  const uint64_t start = NowMicros();
  for (int i = 0; i < 10; i++) {
    LogRecord rec = InsertRecord(1, "k" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  const uint64_t wall_micros = NowMicros() - start;
  // 10 batches x 50ms of virtual window each; generous wall bound proves
  // the sleeps advanced the ManualClock instead of the calendar.
  EXPECT_LT(wall_micros, 100000u) << "window slept in wall time";
  EXPECT_GE(clock.NowMicros(), 1000u + 10u * (50000u / 2 + 20000u));
  EXPECT_EQ(log.flushed_lsn(), 10u);
  EXPECT_EQ(log.metrics().convoy_timeouts->Value(), 0);
}

// Two closed-loop committers whose pauses straddle the batching window:
// one commits again 50 us after its flush returns, the other 300 us.
// Sealing when the window expires splits them into two alternating
// half-batches, nearly one flush per commit. The convoy wait holds each
// batch until both are back, so they share a device write. Window 0 is the
// DatabaseOptions default: nothing but the convoy wait then stands between
// a pass's release and the next seal, so the wait must count committers
// that came back, not those still on their way out of Flush().
TEST_F(CommitPipelineWalTest, SkewedCommittersShareOneBatch) {
  constexpr int kPerThread = 200;
  for (uint64_t window_micros : {50u, 0u}) {
    SCOPED_TRACE("window " + std::to_string(window_micros) + " us");
    LogManagerOptions options;
    options.dir = dir_ + "/window-" + std::to_string(window_micros);
    options.flush_delay_micros = 1000;
    options.group_commit_window_micros = window_micros;
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int pause_micros : {50, 300}) {
      threads.emplace_back([&, pause_micros] {
        for (int i = 0; i < kPerThread; i++) {
          const std::string key =
              std::to_string(pause_micros) + "-" + std::to_string(i);
          LogRecord rec = InsertRecord(static_cast<TxnId>(pause_micros), key);
          if (!log.Append(&rec).ok() || !log.Flush(rec.lsn).ok()) {
            failures.fetch_add(1);
            return;
          }
          std::this_thread::sleep_for(
              std::chrono::microseconds(pause_micros));
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);

    const int64_t commits = 2 * kPerThread;
    const int64_t flushes = log.metrics().flushes->Value();
    EXPECT_LE(flushes * 100, commits * 65)
        << flushes << " flushes for " << commits << " commits";
  }
}

// The convoy wait's cap is measured and waited on the steady clock, so a
// ManualClock harness whose committers outpace each other never sits out
// virtual device time for real: here each capped wait would otherwise
// block for 5 s.
TEST_F(CommitPipelineWalTest, ManualClockConvoyCapIgnoresVirtualDeviceTime) {
  constexpr int kShort = 5;
  constexpr int kLong = 20;
  ManualClock clock(1000);
  LogManagerOptions options;
  options.dir = dir_;
  options.flush_delay_micros = 10000000;  // 10 s, virtual
  options.clock = &clock;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int commits : {kShort, kLong}) {
    threads.emplace_back([&, commits] {
      for (int i = 0; i < commits; i++) {
        LogRecord rec = InsertRecord(static_cast<TxnId>(commits),
                                     std::to_string(commits) + "-" +
                                         std::to_string(i));
        if (!log.Append(&rec).ok() || !log.Flush(rec.lsn).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto wall = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(log.flushed_lsn(), static_cast<Lsn>(kShort + kLong));
  EXPECT_LT(wall, std::chrono::seconds(4))
      << log.metrics().convoy_timeouts->Value() << " capped waits";
}

// When one of two committers leaves, the survivor's next batch waits out
// the cap once. That pass records a convoy of one, so the survivor's later
// commits seal right after the window.
TEST_F(CommitPipelineWalTest, DepartedCommitterCostsOneCappedWait) {
  constexpr int kTogether = 50;
  constexpr int kAlone = 50;
  LogManagerOptions options;
  options.dir = dir_;
  options.flush_delay_micros = 1000;
  options.group_commit_window_micros = 50;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  obs::Counter* timeouts = log.metrics().convoy_timeouts;

  std::atomic<int> failures{0};
  auto commit = [&](TxnId txn, int i) {
    LogRecord rec =
        InsertRecord(txn, std::to_string(txn) + "-" + std::to_string(i));
    if (!log.Append(&rec).ok() || !log.Flush(rec.lsn).ok()) {
      failures.fetch_add(1);
    }
  };
  std::atomic<bool> survivor_idle{false};
  std::atomic<bool> go_alone{false};
  std::thread leaver([&] {
    for (int i = 0; i < kTogether; i++) commit(1, i);
  });
  std::thread survivor([&] {
    for (int i = 0; i < kTogether; i++) commit(2, i);
    survivor_idle.store(true);
    while (!go_alone.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (int i = kTogether; i < kTogether + kAlone; i++) commit(2, i);
  });
  leaver.join();
  while (!survivor_idle.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // No committer is in flight here: the count is stable.
  const int64_t before = timeouts->Value();
  go_alone.store(true);
  survivor.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_LE(timeouts->Value() - before, 1)
      << "each lone commit waited for the departed committer";
  EXPECT_EQ(log.flushed_lsn(), static_cast<Lsn>(2 * kTogether + kAlone));
}

// --- Engine-level pipeline behaviour --------------------------------------

class CommitPipelineDbTest : public DurableDbTest {
 protected:
  std::unique_ptr<Database> OpenPipelineDb(Env* env, SyncMode sync) {
    DatabaseOptions options;
    options.dir = dir_;
    options.sync = sync;
    options.env = env;
    auto result = Database::Open(options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

// Commit visibility flips strictly in COMMIT-LSN order. The logged commit
// timestamp and the COMMIT record's LSN are drawn inside one visibility_mu_
// critical section, so the record stream is the order witness: timestamps
// must be strictly increasing in LSN order however the writer batched the
// appends. (The flip sequencer itself asserts coverage via an invariant
// that would abort this very workload if a flip ever ran early or late.)
TEST_F(CommitPipelineDbTest, FlipOrderMatchesCommitLsnOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  {
    auto db = OpenPipelineDb(nullptr, SyncMode::kNone);
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          const int64_t id = t * kPerThread + i;
          Transaction* txn = db->Begin();
          if (!db->Insert(txn, "sales", Sale(id, "eu", 1.0)).ok() ||
              !db->Commit(txn).ok()) {
            failures.fetch_add(1);
          }
          db->Forget(txn);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  uint64_t last_commit_ts = 0;
  Lsn last_commit_lsn = 0;
  int user_commits = 0;
  for (const LogRecord& rec : records) {
    if (rec.type != LogRecordType::kCommit || rec.system_txn) continue;
    EXPECT_GT(rec.lsn, last_commit_lsn);
    EXPECT_GT(rec.timestamp, last_commit_ts)
        << "commit at LSN " << rec.lsn
        << " stamped out of LSN order (prev LSN " << last_commit_lsn << ")";
    last_commit_lsn = rec.lsn;
    last_commit_ts = rec.timestamp;
    user_commits++;
  }
  EXPECT_EQ(user_commits, kThreads * kPerThread);

  // Every acknowledged commit is durable and visible after recovery.
  auto db = OpenPipelineDb(nullptr, SyncMode::kNone);
  Transaction* reader = db->Begin();
  auto rows = db->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kThreads * kPerThread));
  ASSERT_TRUE(db->Commit(reader).ok());
}

// A failed batch fsync rolls back every transaction in the batch: exactly
// one committer surfaces the root-cause IOError (and carries the degraded
// marker in its trace — see degraded_mode_test), the others learn
// kUnavailable, all end aborted, and none of their effects are visible.
TEST_F(CommitPipelineDbTest, FailedBatchFsyncRollsBackEveryTxnInBatch) {
  constexpr int kCommitters = 4;
  FaultInjectionEnv env(42);
  auto db = OpenPipelineDb(&env, SyncMode::kFsync);
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  Transaction* acked = db->Begin();
  ASSERT_TRUE(db->Insert(acked, "sales", Sale(0, "eu", 1.0)).ok());
  ASSERT_TRUE(db->Commit(acked).ok());
  db->Forget(acked);

  // Stage all writes while healthy; only the commit fsync fails.
  std::vector<Transaction*> txns(kCommitters);
  for (int i = 0; i < kCommitters; i++) {
    txns[i] = db->Begin();
    ASSERT_TRUE(db->Insert(txns[i], "sales", Sale(1 + i, "us", 2.0)).ok());
  }
  env.FailNextSyncs(1);

  std::vector<Status> statuses(kCommitters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCommitters; i++) {
    threads.emplace_back([&, i] { statuses[i] = db->Commit(txns[i]); });
  }
  for (auto& th : threads) th.join();

  int io_errors = 0;
  for (int i = 0; i < kCommitters; i++) {
    ASSERT_FALSE(statuses[i].ok()) << "committer " << i << " was acked";
    if (statuses[i].IsIOError()) {
      io_errors++;
    } else {
      EXPECT_TRUE(statuses[i].IsUnavailable()) << statuses[i].ToString();
    }
    EXPECT_EQ(txns[i]->state(), TxnState::kAborted) << "committer " << i;
    db->Forget(txns[i]);
  }
  // The first waiter to observe the poison claims the real failure;
  // everyone else in (or after) the batch gets the generic degraded status.
  EXPECT_EQ(io_errors, 1);
  EXPECT_TRUE(db->degraded());

  // Snapshot readers keep serving exactly the acknowledged prefix.
  auto reader = db->BeginChecked(ReadMode::kSnapshot);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(db->Get(reader.value(), "sales", {Value::Int64(0)})
                  ->has_value());
  for (int i = 0; i < kCommitters; i++) {
    EXPECT_FALSE(db->Get(reader.value(), "sales", {Value::Int64(1 + i)})
                     ->has_value())
        << "rolled-back row " << 1 + i << " leaked into a snapshot";
  }
  ASSERT_TRUE(db->Commit(reader.value()).ok());
}

}  // namespace
}  // namespace ivdb
