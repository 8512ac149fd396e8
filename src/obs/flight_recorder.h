#ifndef IVDB_OBS_FLIGHT_RECORDER_H_
#define IVDB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ivdb {
namespace obs {

// Engine-wide flight recorder (see docs/OBSERVABILITY.md §2).
//
// Always-on, bounded-memory record of what every engine thread — committers,
// the dedicated WAL writer, the background checkpointer, the ghost cleaner,
// the watchdog — was doing over the last N events, kept cheap enough to
// leave running in production. It is the engine's one event stream: the
// per-thread timeline feeds the post-mortem (the black-box dump on
// degraded-mode entry) and the Chrome-trace export (tools/ivdb_trace), and
// events whose `a` is a transaction id also answer "what did this
// transaction do": Snapshot::TxnTrace merges one transaction's events
// across lanes (Database::DumpTrace).
//
// Design:
//   * One fixed ring of event cells per registered thread. Emit() touches
//     only that thread's ring with relaxed/release atomics — no locks, no
//     shared cache lines with other recording threads.
//   * Every cell field is a std::atomic so a snapshot may drain while
//     recorders are mid-write without a data race (TSan-clean). Each cell
//     carries a publication stamp (the event's global sequence number);
//     writers invalidate the stamp, fill the fields, then re-stamp with
//     release order. A reader that sees the stamp change across its field
//     reads discards the (torn) cell.
//   * Timestamps are the caller's, drawn through the Clock seam at the
//     instrumentation site — ManualClock tests therefore see deterministic
//     virtual-time traces, and recorder events line up exactly with the
//     latency histograms recorded from the same timestamps.
//   * flight_mu_ (rank kFlightRing) guards only thread registration, lane
//     renames, and snapshots — never the Emit fast path.

// Span catalog. Events carry two generic uint64 arguments whose meaning
// depends on the type. Types whose `a` is "txn id" are per-transaction
// events; the rest are engine-wide.
enum class FlightEventType : uint32_t {
  kNone = 0,
  kCommit = 1,          // a = txn id, b = commit lsn (whole commit span)
  kStageStagingWait,    // a = txn id, b = commit lsn
  kStageBatchAssembly,  // a = txn id, b = commit lsn
  kStageFsync,          // a = txn id, b = commit lsn
  kStageFlipWait,       // a = txn id, b = commit lsn
  kWalBatch,            // a = first lsn, b = last lsn (one writer batch)
  kWalFsync,            // a = last lsn, b = batch bytes
  kCkptRotate,          // a = checkpoint lsn
  kCkptCapture,         // a = checkpoint lsn, b = capture timestamp
  kCkptBuild,           // a = checkpoint lsn, b = views imaged
  kCkptWrite,           // a = checkpoint lsn, b = image bytes
  kCkptRetire,          // a = checkpoint lsn, b = segments retired
  kRecoverySegment,     // a = segment seqno, b = records replayed
  kGhostPass,           // a = view object id, b = rows reclaimed
  kWatchdogPass,        // a = txns aborted
  kDegraded,            // a = 1 (instant: degraded-mode entry)
  kViewBuildPhase,      // a = view object id, b = ViewBuildState::Phase
  kGcPass,              // a = versions unlinked, b = entries freed
  kTxnBegin,            // a = txn id, b = snapshot timestamp (instant)
  kTxnAbort,            // a = txn id, b = undo records rolled back
  kTxnRetry,            // a = failed attempt's txn id, b = attempt (1-based);
                        //   the span is the backoff before the next attempt
  kLockWait,            // a = txn id, b = object id (queued -> resolved)
  kLockDeadlock,        // a = txn id, b = object id (instant: victim)
  kLockTimeout,         // a = txn id, b = object id (instant)
  kLockEscalation,      // a = txn id, b = object id (instant)
  kViewMaintain,        // a = txn id, b = aggregate deltas (or projection
                        //   changes) applied
  kGhostCreate,         // a = txn id that needed the row, b = id of the
                        //   system transaction that created it
};

// Stable wire name for a type ("wal_fsync", "stage_flip_wait", ...), shared
// by the snapshot JSON and the tools/ivdb_trace exporter.
const char* FlightEventName(FlightEventType type);

// True for the per-transaction types (those whose `a` is a txn id).
bool IsTxnEvent(FlightEventType type);

class FlightRecorder {
 public:
  struct Options {
    // Ring capacity per thread, rounded up to a power of two. 2048 events
    // of 48 bytes keep a 16-thread engine under 2 MiB total.
    size_t events_per_thread = 2048;
    // Lane budget; threads past this are counted, not recorded.
    size_t max_threads = 64;
    // Timestamp source for NowMicros(); defaults to Clock::Default().
    Clock* clock = nullptr;
  };

  struct Event {
    uint64_t seq = 0;  // global emission order (1-based)
    uint64_t start_micros = 0;
    uint64_t dur_micros = 0;
    FlightEventType type = FlightEventType::kNone;
    uint64_t a = 0;
    uint64_t b = 0;
  };

  struct ThreadTrace {
    uint64_t tid = 0;  // stable lane id (slot index)
    std::string name;
    std::vector<Event> events;  // oldest to newest
  };

  struct Snapshot {
    uint64_t now_micros = 0;
    uint64_t dropped_events = 0;
    uint64_t dropped_threads = 0;
    std::vector<ThreadTrace> threads;

    // Versioned snapshot JSON — the black-box dump format, and the input
    // format of tools/ivdb_trace.
    std::string ToJson() const;

    // One transaction's timeline, oldest first: its events from every lane
    // merged by sequence number, plus the engine-wide events recorded on
    // each of those lanes between the transaction's first and last event
    // there (e.g. the degraded-mode entry its failing commit caused).
    // Timestamps print relative to the earliest kept event.
    std::string TxnTrace(uint64_t txn_id) const;
  };

  explicit FlightRecorder(Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Recording gate (for overhead A/B runs; the engine leaves it on). A
  // disabled recorder drops events without counting them as losses.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Registers the calling thread (idempotent) and names its lane.
  void SetThreadName(const std::string& name);

  // Records one span on the calling thread's lane. `start_micros` and
  // `dur_micros` are the caller's Clock-seam measurements. Lock-free after
  // the thread's first event. A thread refused a lane (budget exhausted) is
  // counted once in dropped_threads; its emits then drop, counted in
  // dropped_events, without taking flight_mu_.
  void Emit(FlightEventType type, uint64_t start_micros, uint64_t dur_micros,
            uint64_t a = 0, uint64_t b = 0);

  // Zero-duration marker (degraded-mode entry and similar transitions).
  void EmitInstant(FlightEventType type, uint64_t at_micros, uint64_t a = 0,
                   uint64_t b = 0) {
    Emit(type, at_micros, 0, a, b);
  }

  // The recorder's time source (instrumentation sites without their own
  // Clock pointer go through this).
  uint64_t NowMicros() const { return clock_->NowMicros(); }

  // Consistent-enough copy of every lane, oldest event first. Safe to call
  // while every thread keeps recording; in-flight cells are skipped.
  Snapshot Snap() const;

  size_t ring_capacity() const { return ring_len_; }

 private:
  // One event cell. Writers invalidate `stamp`, fill fields, then publish
  // the event's global sequence number into `stamp` with release order.
  struct Cell {
    std::atomic<uint64_t> stamp{0};  // 0 = empty/in-flight
    std::atomic<uint64_t> start{0};
    std::atomic<uint64_t> dur{0};
    std::atomic<uint64_t> type{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  struct Slot {
    std::thread::id owner;           // set once at registration
    std::atomic<uint64_t> next{0};   // events ever written on this lane
    std::unique_ptr<Cell[]> ring;    // ring_len_ cells
    std::string name;                // lane name; flight_mu_ guards writes
  };

  Slot* SlotForThisThread();
  Slot* RegisterThisThread();

  const uint64_t id_;  // process-unique, keys the thread-local slot cache
  const size_t ring_len_;
  const size_t max_threads_;
  Clock* const clock_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> dropped_events_{0};
  std::atomic<uint64_t> dropped_threads_{0};

  mutable RankedMutex flight_mu_{LockRank::kFlightRing, "flight_mu_"};
  // Fixed-capacity lane table: sized once in the constructor, entries filled
  // under flight_mu_ and published through slot_count_; Emit only ever
  // dereferences a slot pointer it obtained from registration.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<size_t> slot_count_{0};
};

}  // namespace obs
}  // namespace ivdb

#endif  // IVDB_OBS_FLIGHT_RECORDER_H_
