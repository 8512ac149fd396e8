// Engine flight recorder (src/obs/flight_recorder.h): per-thread lock-free
// rings, torn-cell-safe snapshots while recording, bounded memory, and the
// snapshot JSON contract tools/ivdb_trace parses. Run under TSan, the
// drain-while-recording cases are the data-race proof for the
// relaxed/release cell protocol.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace ivdb {
namespace obs {
namespace {

FlightRecorder::Options SmallOptions(ManualClock* clock, size_t events = 8) {
  FlightRecorder::Options options;
  options.events_per_thread = events;
  options.clock = clock;
  return options;
}

TEST(FlightRecorder, RecordsEventsWithManualClockTimestamps) {
  ManualClock clock(1000);
  FlightRecorder rec(SmallOptions(&clock));
  rec.SetThreadName("committer-0");
  rec.Emit(FlightEventType::kCommit, clock.NowMicros(), 25, /*a=*/7,
           /*b=*/42);
  clock.Advance(100);
  rec.EmitInstant(FlightEventType::kDegraded, clock.NowMicros(), 1);

  FlightRecorder::Snapshot snap = rec.Snap();
  EXPECT_EQ(snap.now_micros, 1100u);
  EXPECT_EQ(snap.dropped_events, 0u);
  EXPECT_EQ(snap.dropped_threads, 0u);
  ASSERT_EQ(snap.threads.size(), 1u);
  const FlightRecorder::ThreadTrace& lane = snap.threads[0];
  EXPECT_EQ(lane.name, "committer-0");
  ASSERT_EQ(lane.events.size(), 2u);
  EXPECT_EQ(lane.events[0].type, FlightEventType::kCommit);
  EXPECT_EQ(lane.events[0].start_micros, 1000u);
  EXPECT_EQ(lane.events[0].dur_micros, 25u);
  EXPECT_EQ(lane.events[0].a, 7u);
  EXPECT_EQ(lane.events[0].b, 42u);
  EXPECT_EQ(lane.events[1].type, FlightEventType::kDegraded);
  EXPECT_EQ(lane.events[1].start_micros, 1100u);
  EXPECT_EQ(lane.events[1].dur_micros, 0u);
  // Global sequence numbers order the two emissions.
  EXPECT_LT(lane.events[0].seq, lane.events[1].seq);
}

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  ManualClock clock;
  FlightRecorder rec(SmallOptions(&clock, /*events=*/8));
  ASSERT_EQ(rec.ring_capacity(), 8u);
  rec.SetThreadName("wrap");
  // 3x capacity: the ring must hold exactly the newest `capacity` events.
  for (uint64_t i = 0; i < 24; i++) {
    rec.Emit(FlightEventType::kWalBatch, i, 1, /*a=*/i, /*b=*/i + 1);
  }
  FlightRecorder::Snapshot snap = rec.Snap();
  ASSERT_EQ(snap.threads.size(), 1u);
  const std::vector<FlightRecorder::Event>& events = snap.threads[0].events;
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].a, 16 + i) << "oldest-to-newest after wraparound";
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  ManualClock clock;
  FlightRecorder rec(SmallOptions(&clock, /*events=*/11));
  EXPECT_EQ(rec.ring_capacity(), 16u);
}

TEST(FlightRecorder, DisabledRecorderDropsSilently) {
  ManualClock clock;
  FlightRecorder rec(SmallOptions(&clock));
  rec.SetThreadName("gated");
  rec.SetEnabled(false);
  rec.Emit(FlightEventType::kCommit, 1, 1);
  rec.SetEnabled(true);
  rec.Emit(FlightEventType::kCommit, 2, 1);
  FlightRecorder::Snapshot snap = rec.Snap();
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].events.size(), 1u);
  EXPECT_EQ(snap.threads[0].events[0].start_micros, 2u);
  // Gate drops are intentional, not losses.
  EXPECT_EQ(snap.dropped_events, 0u);
}

TEST(FlightRecorder, LaneBudgetExhaustionCountsDrops) {
  ManualClock clock;
  FlightRecorder::Options options = SmallOptions(&clock);
  options.max_threads = 1;
  FlightRecorder rec(options);
  rec.Emit(FlightEventType::kCommit, 1, 1);  // claims the only lane
  std::thread extra([&rec] {
    rec.Emit(FlightEventType::kCommit, 2, 1);
    rec.Emit(FlightEventType::kCommit, 3, 1);
  });
  extra.join();
  FlightRecorder::Snapshot snap = rec.Snap();
  EXPECT_EQ(snap.threads.size(), 1u);
  EXPECT_EQ(snap.dropped_threads, 1u);
  EXPECT_EQ(snap.dropped_events, 2u);
}

// Each thread past the budget is refused once: its later emits drop (and
// count) without registering again.
TEST(FlightRecorder, LaneBudgetCountsEachRefusedThreadOnce) {
  ManualClock clock;
  FlightRecorder::Options options = SmallOptions(&clock, /*events=*/16);
  options.max_threads = 2;
  FlightRecorder rec(options);
  constexpr int kThreads = 4;
  constexpr int kEvents = 10;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kEvents; i++) {
        rec.Emit(FlightEventType::kCommit, 1, 1);
      }
      // Stay live until every thread has emitted, so no thread id is
      // recycled into a refused thread's place.
      finished.fetch_add(1);
      while (finished.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& thread : threads) thread.join();
  FlightRecorder::Snapshot snap = rec.Snap();
  ASSERT_EQ(snap.threads.size(), 2u);
  EXPECT_EQ(snap.threads[0].events.size(), size_t{kEvents});
  EXPECT_EQ(snap.threads[1].events.size(), size_t{kEvents});
  EXPECT_EQ(snap.dropped_threads, 2u);
  EXPECT_EQ(snap.dropped_events, 2u * kEvents);
}

// Snapshots racing live emitters: every drained cell must be internally
// consistent (the type/a/b triple written together), never torn across two
// emissions. Under TSan this is also the no-data-race proof.
TEST(FlightRecorder, DrainWhileRecordingSeesNoTornCells) {
  ManualClock clock;
  FlightRecorder rec(SmallOptions(&clock, /*events=*/16));
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&rec, &stop, w] {
      rec.SetThreadName("writer-" + std::to_string(w));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // A cell is torn iff its fields mix two emissions; make every
        // field derivable from `a` so the reader can verify.
        uint64_t tag = static_cast<uint64_t>(w) * 1000000 + i;
        rec.Emit(FlightEventType::kWalFsync, tag + 1, tag + 2, tag, tag + 3);
        i++;
      }
    });
  }
  // Keep draining until enough live events have been verified (with a round
  // cap so a broken recorder fails instead of spinning forever).
  uint64_t drained = 0;
  for (int round = 0; round < 200000 && drained < 20000; round++) {
    FlightRecorder::Snapshot snap = rec.Snap();
    for (const FlightRecorder::ThreadTrace& lane : snap.threads) {
      uint64_t prev_seq = 0;
      for (const FlightRecorder::Event& e : lane.events) {
        EXPECT_EQ(e.type, FlightEventType::kWalFsync);
        EXPECT_EQ(e.start_micros, e.a + 1);
        EXPECT_EQ(e.dur_micros, e.a + 2);
        EXPECT_EQ(e.b, e.a + 3);
        EXPECT_GT(e.seq, prev_seq) << "events must stay ordered per lane";
        prev_seq = e.seq;
        drained++;
      }
    }
  }
  stop = true;
  for (auto& w : writers) w.join();
  EXPECT_GT(drained, 0u);
}

TEST(FlightRecorder, TwoRecordersKeepLanesSeparate) {
  // The thread-local slot cache is keyed by recorder id: one thread
  // emitting into two recorders must not cross their rings.
  ManualClock clock;
  FlightRecorder first(SmallOptions(&clock));
  FlightRecorder second(SmallOptions(&clock));
  first.SetThreadName("first");
  second.SetThreadName("second");
  first.Emit(FlightEventType::kCommit, 1, 1, /*a=*/111);
  second.Emit(FlightEventType::kGhostPass, 2, 1, /*a=*/222);
  FlightRecorder::Snapshot a = first.Snap();
  FlightRecorder::Snapshot b = second.Snap();
  ASSERT_EQ(a.threads.size(), 1u);
  ASSERT_EQ(a.threads[0].events.size(), 1u);
  EXPECT_EQ(a.threads[0].events[0].a, 111u);
  ASSERT_EQ(b.threads.size(), 1u);
  ASSERT_EQ(b.threads[0].events.size(), 1u);
  EXPECT_EQ(b.threads[0].events[0].type, FlightEventType::kGhostPass);
  EXPECT_EQ(b.threads[0].events[0].a, 222u);
}

TEST(FlightRecorder, SnapshotJsonCarriesFormatVersionAndEvents) {
  ManualClock clock(500);
  FlightRecorder rec(SmallOptions(&clock));
  rec.SetThreadName("wal-writer");
  rec.Emit(FlightEventType::kWalBatch, 500, 40, /*a=*/1, /*b=*/9);
  std::string json = rec.Snap().ToJson();
  // The versioned envelope ivdb_trace keys on.
  EXPECT_NE(json.find("\"flight_recorder\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"now_micros\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"wal-writer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"type\":\"wal_batch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"start_micros\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur_micros\":40"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b\":9"), std::string::npos) << json;
}

// One transaction's span log: its events from every lane, merged by
// sequence number, plus the engine-wide markers each of its lanes recorded
// between its first and last event there.
TEST(FlightRecorderTxnTrace, MergesLanesAndKeepsMarkersWhileItRan) {
  ManualClock clock;
  FlightRecorder rec(SmallOptions(&clock, /*events=*/16));
  rec.SetThreadName("owner");
  rec.EmitInstant(FlightEventType::kDegraded, 100, 1);  // before: dropped
  rec.EmitInstant(FlightEventType::kTxnBegin, 110, /*txn=*/7, 55);
  rec.EmitInstant(FlightEventType::kTxnBegin, 111, /*txn=*/8, 56);
  rec.EmitInstant(FlightEventType::kDegraded, 120, 1);  // while 7 ran
  rec.Emit(FlightEventType::kViewMaintain, 130, 4, /*txn=*/7, 1);
  std::thread other([&rec] {
    rec.SetThreadName("other");
    rec.EmitInstant(FlightEventType::kDegraded, 135, 1);  // not 7's lane yet
    rec.Emit(FlightEventType::kTxnAbort, 140, 5, /*txn=*/7, 2);
  });
  other.join();
  rec.EmitInstant(FlightEventType::kDegraded, 150, 1);  // after: dropped

  EXPECT_EQ(rec.Snap().TxnTrace(7),
            "txn 7: 4 event(s)\n"
            "  +       0us txn_begin            [owner] snapshot_ts=55\n"
            "  +      10us degraded             [owner] entered=1\n"
            "  +      20us view_maintain        [owner] deltas=1 dur=4us\n"
            "  +      30us txn_abort            [other] undone=2 dur=5us\n");
  EXPECT_EQ(rec.Snap().TxnTrace(9), "txn 9: 0 event(s)\n");
}

TEST(FlightEventNames, StableWireNames) {
  EXPECT_STREQ(FlightEventName(FlightEventType::kCommit), "commit");
  EXPECT_STREQ(FlightEventName(FlightEventType::kStageFsync), "stage_fsync");
  EXPECT_STREQ(FlightEventName(FlightEventType::kWalBatch), "wal_batch");
  EXPECT_STREQ(FlightEventName(FlightEventType::kCkptRetire), "ckpt_retire");
  EXPECT_STREQ(FlightEventName(FlightEventType::kRecoverySegment),
               "recovery_segment");
  EXPECT_STREQ(FlightEventName(FlightEventType::kDegraded), "degraded");
  EXPECT_STREQ(FlightEventName(FlightEventType::kLockWait), "lock_wait");
  EXPECT_STREQ(FlightEventName(FlightEventType::kGhostCreate),
               "ghost_create");
  EXPECT_TRUE(IsTxnEvent(FlightEventType::kCommit));
  EXPECT_TRUE(IsTxnEvent(FlightEventType::kTxnRetry));
  EXPECT_FALSE(IsTxnEvent(FlightEventType::kDegraded));
  EXPECT_FALSE(IsTxnEvent(FlightEventType::kGhostPass));
}

}  // namespace
}  // namespace obs
}  // namespace ivdb
