// The resilient execution layer (docs/ROBUSTNESS.md): RunTransaction's
// retry-with-backoff loop, the admission-control gate, and the
// stuck-transaction watchdog.
//
// The backoff schedule is pinned two ways: RetryBackoffMicros directly
// (growth, cap, jitter bounds, determinism), and end to end through a
// ManualClock-driven database, where the microseconds RunTransaction slept
// must replay the schedule exactly.
#include "txn/retry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "test_util.h"

namespace ivdb {
namespace {

// --- RetryBackoffMicros: the pure policy function ---

TEST(RetryBackoff, GrowsGeometricallyThenCaps) {
  RunTransactionOptions options;
  options.backoff_base_micros = 100;
  options.backoff_cap_micros = 100 * 1000;
  options.jitter = 0;  // isolate the deterministic envelope
  Random rng(1);
  EXPECT_EQ(RetryBackoffMicros(options, 1, &rng), 100u);
  EXPECT_EQ(RetryBackoffMicros(options, 2, &rng), 200u);
  EXPECT_EQ(RetryBackoffMicros(options, 3, &rng), 400u);
  EXPECT_EQ(RetryBackoffMicros(options, 10, &rng), 51200u);
  EXPECT_EQ(RetryBackoffMicros(options, 11, &rng), 100000u);  // capped
  EXPECT_EQ(RetryBackoffMicros(options, 40, &rng), 100000u);  // stays capped
}

TEST(RetryBackoff, DefaultJitterSeedIsUniquePerCall) {
  // The default leaves the seed disengaged: RunTransaction then derives a
  // process-unique seed per call, so two concurrent retriers draw
  // different jitter streams instead of backing off in lockstep.
  RunTransactionOptions options;
  EXPECT_FALSE(options.jitter_seed.has_value());
  EXPECT_NE(UniqueJitterSeed(), UniqueJitterSeed());
  Random a(UniqueJitterSeed());
  Random b(UniqueJitterSeed());
  bool diverged = false;
  for (int i = 0; i < 8 && !diverged; i++) diverged = a.Next() != b.Next();
  EXPECT_TRUE(diverged);
}

TEST(RetryBackoff, ZeroBaseMeansImmediateRetry) {
  RunTransactionOptions options;
  options.backoff_base_micros = 0;
  Random rng(1);
  for (int attempt = 1; attempt < 10; attempt++) {
    EXPECT_EQ(RetryBackoffMicros(options, attempt, &rng), 0u);
  }
}

TEST(RetryBackoff, JitterStaysWithinBounds) {
  RunTransactionOptions options;  // defaults: base 100, cap 100ms, jitter .25
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Random rng(seed);
    for (int attempt = 1; attempt <= 14; attempt++) {
      uint64_t nominal = options.backoff_base_micros
                         << std::min(attempt - 1, 62);
      if (nominal > options.backoff_cap_micros) {
        nominal = options.backoff_cap_micros;
      }
      uint64_t span = static_cast<uint64_t>(static_cast<double>(nominal) *
                                            options.jitter);
      uint64_t backoff = RetryBackoffMicros(options, attempt, &rng);
      EXPECT_LE(backoff, nominal) << "seed=" << seed << " attempt=" << attempt;
      EXPECT_GE(backoff, nominal - span)
          << "seed=" << seed << " attempt=" << attempt;
    }
  }
}

TEST(RetryBackoff, ScheduleIsDeterministicPerSeed) {
  RunTransactionOptions options;
  Random a(7), b(7), c(8);
  bool any_difference = false;
  for (int attempt = 1; attempt <= 10; attempt++) {
    uint64_t from_a = RetryBackoffMicros(options, attempt, &a);
    EXPECT_EQ(from_a, RetryBackoffMicros(options, attempt, &b));
    if (from_a != RetryBackoffMicros(options, attempt, &c)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds produced identical jitter";
}

// --- RunTransaction end to end ---

using RunTransactionTest = SalesDbTest;

TEST_F(RunTransactionTest, CommitsOnFirstAttempt) {
  RunTransactionResult result;
  Status s = db_->RunTransaction(
      RunTransactionOptions(),
      [&](Transaction* txn) { return db_->Insert(txn, "sales", Sale(1, "eu", 10.0)); },
      &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.backoff_micros_total, 0u);

  Transaction* reader = db_->Begin();
  EXPECT_TRUE(db_->Get(reader, "sales", {Value::Int64(1)})->has_value());
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(RunTransactionTest, RetriesUntilBodySucceedsAndRollsBackFailures) {
  RunTransactionOptions options;
  options.backoff_base_micros = 0;  // immediate retries
  int calls = 0;
  RunTransactionResult result;
  Status s = db_->RunTransaction(
      options,
      [&](Transaction* txn) -> Status {
        calls++;
        // The insert must be rolled back between attempts: a second insert
        // of the same key would otherwise fail with AlreadyExists.
        IVDB_RETURN_NOT_OK(db_->Insert(txn, "sales", Sale(1, "eu", 10.0)));
        if (calls < 3) return Status::Deadlock("synthetic");
        return Status::OK();
      },
      &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.attempts, 3);

  std::string metrics = db_->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_txn_retries_total 2"), std::string::npos)
      << metrics;

  Transaction* reader = db_->Begin();
  auto rows = db_->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // exactly the final attempt's insert
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST_F(RunTransactionTest, NonRetryableStatusReturnsImmediately) {
  RunTransactionResult result;
  Status s = db_->RunTransaction(
      RunTransactionOptions(),
      [&](Transaction* txn) -> Status {
        IVDB_RETURN_NOT_OK(db_->Insert(txn, "sales", Sale(7, "eu", 10.0)));
        return Status::InvalidArgument("bad business input");
      },
      &result);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(result.attempts, 1);

  // The failed attempt's database effects are gone.
  Transaction* reader = db_->Begin();
  EXPECT_FALSE(db_->Get(reader, "sales", {Value::Int64(7)})->has_value());
  EXPECT_TRUE(db_->Commit(reader).ok());
}

TEST(RunTransactionClock, FailedAttemptDumpShowsRetryAndBackoff) {
  ManualClock clock(1000);
  DatabaseOptions db_options;
  db_options.clock = &clock;
  auto db = std::move(Database::Open(db_options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  RunTransactionOptions options;
  options.max_attempts = 2;
  options.backoff_base_micros = 250;
  options.jitter = 0;
  std::vector<TxnId> attempts;
  RunTransactionResult result;
  Status s = db->RunTransaction(
      options,
      [&](Transaction* txn) -> Status {
        attempts.push_back(txn->id());
        IVDB_RETURN_NOT_OK(db->Insert(txn, "sales", Sale(1, "eu", 10.0)));
        if (attempts.size() == 1) return Status::Deadlock("synthetic");
        return Status::OK();
      },
      &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(result.backoff_micros_total, 250u);

  // The failed attempt rolled back, then backed off: its span log ends
  // with the retry, whose span is the backoff before attempt 2.
  std::string dump = db->DumpTrace(attempts[0]);
  size_t p_abort = dump.find("txn_abort");
  size_t p_retry = dump.find("txn_retry");
  ASSERT_NE(p_abort, std::string::npos) << dump;
  ASSERT_NE(p_retry, std::string::npos) << dump;
  EXPECT_LT(p_abort, p_retry);
  EXPECT_NE(dump.find("attempt=1 dur=250us", p_retry), std::string::npos)
      << dump;
  EXPECT_EQ(db->DumpTrace(attempts[1]).find("txn_retry"), std::string::npos);
}

TEST(RunTransactionClock, ManualClockPinsBackoffSchedule) {
  ManualClock clock(1000);
  DatabaseOptions db_options;
  db_options.clock = &clock;
  auto db = std::move(Database::Open(db_options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  RunTransactionOptions options;
  options.max_attempts = 5;
  options.backoff_base_micros = 1000;
  options.backoff_cap_micros = 4000;
  options.jitter = 0.25;
  options.jitter_seed = 42;

  uint64_t before = clock.NowMicros();
  RunTransactionResult result;
  Status s = db->RunTransaction(
      options, [](Transaction*) { return Status::Busy("synthetic overload"); },
      &result);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(result.attempts, 5);

  // Replay the schedule: same seed, same consumption order, same sleeps.
  Random rng(*options.jitter_seed);
  uint64_t expected = 0;
  for (int attempt = 1; attempt <= 4; attempt++) {
    uint64_t backoff = RetryBackoffMicros(options, attempt, &rng);
    EXPECT_LE(backoff, 4000u);
    expected += backoff;
  }
  EXPECT_EQ(result.backoff_micros_total, expected);
  EXPECT_EQ(clock.NowMicros() - before, expected);

  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_txn_retries_total 4"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("ivdb_txn_retry_exhausted_total 1"),
            std::string::npos)
      << metrics;
}

TEST_F(RunTransactionTest, DeadlockStormEveryTransactionSucceeds) {
  // Two hot rows updated in opposite orders by half the threads each: the
  // classic deadlock recipe. With RunTransaction absorbing the rollbacks,
  // every logical transaction must eventually commit.
  Commit([&](Transaction* txn) {
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(1, "eu", 0.0)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(2, "us", 0.0)).ok());
  });

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      RunTransactionOptions options;
      options.max_attempts = 64;
      options.backoff_base_micros = 50;
      options.backoff_cap_micros = 2000;
      options.jitter_seed = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kTxnsPerThread; i++) {
        int64_t first = (t % 2 == 0) ? 1 : 2;
        int64_t second = (t % 2 == 0) ? 2 : 1;
        Status s = db_->RunTransaction(options, [&](Transaction* txn) {
          IVDB_RETURN_NOT_OK(db_->Update(
              txn, "sales", Sale(first, "eu", static_cast<double>(i))));
          return db_->Update(txn, "sales",
                             Sale(second, "us", static_cast<double>(i)));
        });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  Transaction* reader = db_->Begin();
  auto rows = db_->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_TRUE(db_->Commit(reader).ok());
}

// --- Admission control ---

TEST(AdmissionControl, RejectsWithBusyWhenFull) {
  DatabaseOptions options;
  options.max_active_txns = 1;
  options.admission_timeout_micros = 10 * 1000;  // fail fast (real time)
  auto db = std::move(Database::Open(options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  auto first = db->BeginChecked();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto second = db->BeginChecked();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsBusy()) << second.status().ToString();
  EXPECT_TRUE(second.status().IsTransient());
  EXPECT_FALSE(second.status().RequiresRollback());

  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_txn_admission_rejected_total 1"),
            std::string::npos)
      << metrics;

  // Finishing the admitted transaction frees the slot.
  ASSERT_TRUE(db->Commit(first.value()).ok());
  auto third = db->BeginChecked();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(db->Commit(third.value()).ok());
}

TEST(AdmissionControl, WaiterIsAdmittedWhenSlotFrees) {
  DatabaseOptions options;
  options.max_active_txns = 1;
  options.admission_timeout_micros = 5 * 1000 * 1000;
  auto db = std::move(Database::Open(options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  Transaction* holder = db->Begin();
  ASSERT_NE(holder, nullptr);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto txn = db->BeginChecked();
    if (txn.ok()) {
      admitted = true;
      (void)db->Commit(txn.value());
    }
  });
  // Let the waiter queue up, then free the slot well inside its timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(db->Commit(holder).ok());
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

// --- Stuck-transaction watchdog ---

// The age limit the watchdog tests pass to AbortStuckTransactions. They
// leave DatabaseOptions::max_txn_lifetime_micros at 0, so no housekeeper
// sweep (paced on real time, aging by the ManualClock) can reap a
// transaction before the test's own call does.
constexpr uint64_t kLifetime = 1000;

TEST(Watchdog, AbortsIdleOldTransactionsOnly) {
  ManualClock clock(0);
  DatabaseOptions options;
  options.clock = &clock;
  auto db = std::move(Database::Open(options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  Transaction* stuck = db->Begin();
  ASSERT_TRUE(db->Insert(stuck, "sales", Sale(1, "eu", 10.0)).ok());
  clock.Advance(2000);
  Transaction* young = db->Begin();  // born after the advance: not stuck

  EXPECT_EQ(db->AbortStuckTransactions(kLifetime), 1u);
  EXPECT_EQ(stuck->state(), TxnState::kAborted);
  EXPECT_EQ(young->state(), TxnState::kActive);

  // The reaped transaction is unusable and its effects are rolled back;
  // aborting it again is an idempotent no-op for the owner.
  Status s = db->Insert(stuck, "sales", Sale(2, "eu", 1.0));
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_TRUE(s.RequiresRollback());
  EXPECT_TRUE(db->Abort(stuck).ok());

  // Its locks are released: the young transaction can take over the key.
  EXPECT_FALSE(db->Get(young, "sales", {Value::Int64(1)})->has_value());
  ASSERT_TRUE(db->Insert(young, "sales", Sale(1, "us", 5.0)).ok());
  ASSERT_TRUE(db->Commit(young).ok());

  std::string metrics = db->DumpMetrics();
  EXPECT_NE(metrics.find("ivdb_txn_watchdog_aborted_total 1"),
            std::string::npos)
      << metrics;
  db->Forget(stuck);
}

TEST(Watchdog, SkipsTransactionWhoseOwnerIsMidOperation) {
  ManualClock clock(0);
  DatabaseOptions options;
  options.clock = &clock;
  auto db = std::move(Database::Open(options)).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  Transaction* txn = db->Begin();
  clock.Advance(5000);
  {
    // Simulate the owner thread being inside an engine call: the watchdog
    // must not abort a transaction it cannot latch.
    MutexLock busy(&txn->owner_mu());
    EXPECT_EQ(db->AbortStuckTransactions(kLifetime), 0u);
    EXPECT_EQ(txn->state(), TxnState::kActive);
  }
  // Once the owner goes idle, the next sweep reaps it.
  EXPECT_EQ(db->AbortStuckTransactions(kLifetime), 1u);
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  db->Forget(txn);
}

}  // namespace
}  // namespace ivdb
