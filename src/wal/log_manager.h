#ifndef IVDB_WAL_LOG_MANAGER_H_
#define IVDB_WAL_LOG_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "wal/log_record.h"

namespace ivdb {

// Durability behaviour of Flush().
enum class SyncMode : uint8_t {
  kNone = 0,    // buffered write() only (tests)
  kFsync = 1,   // fdatasync after each flush batch
};

struct LogManagerOptions {
  // Directory holding the WAL segments (`wal-<seqno>.log`). Empty =>
  // in-memory log (unit tests, lock-only benchmarks); with
  // flush_delay_micros also 0 it has no device at all (see LogManager).
  std::string dir;
  // Rotation threshold: once the open segment reaches this many bytes the
  // WAL writer seals it (fsync) and switches appends to a fresh segment. 0
  // disables size-based rotation (one segment grows forever, matching the
  // old single-file behaviour).
  uint64_t segment_bytes = 0;
  SyncMode sync = SyncMode::kNone;
  // Artificial per-flush latency in microseconds, modelling commit-time
  // stable-storage latency. Group commit amortizes this across all
  // transactions whose records are in the flushed batch — this is the knob
  // that makes lock-hold-time effects measurable on any hardware. Non-zero
  // gives an in-memory log (empty `dir`) a simulated device, and with it
  // the WAL writer.
  uint64_t flush_delay_micros = 0;
  // The writer's group-commit window (PostgreSQL's commit_delay analog):
  // the writer sleeps exactly this long after each wakeup so concurrent
  // committers join the batch it is about to seal. With a simulated device
  // (flush_delay_micros > 0) the window is followed by the convoy wait:
  // the writer keeps the batch open until the committers its last batch
  // released wait in Flush() again (those it left parked count at once),
  // for at most half the last batch's device time. A committer slower than
  // the window thus rides the next batch with the rest of the convoy
  // instead of splitting it into two alternating half-batches
  // (docs/INTERNALS.md §2). 0 = no window; the convoy wait still runs.
  uint64_t group_commit_window_micros = 0;
  // File-system seam; nullptr => Env::Default(). Tests inject a
  // FaultInjectionEnv here to crash the log at exact write/sync boundaries.
  Env* env = nullptr;
  // Unified metrics registry (`ivdb_wal_*` instruments); nullptr => the
  // manager owns a private registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Time source for flush-latency accounting; nullptr => Clock::Default().
  Clock* clock = nullptr;
  // Invoked exactly once, on the transition into the poisoned (degraded)
  // state — see Poison(). The engine hooks this to flip its degraded gauge
  // and emit the `degraded` flight event. Never runs on the writer
  // thread: a writer-side failure defers it to the first committer or
  // checkpointer that observes the poison. Keep it cheap and do not call
  // back into the log manager.
  std::function<void()> on_poison = nullptr;
  // Engine flight recorder: the dedicated writer names its lane
  // ("wal-writer") and records per-batch assembly/fsync spans on it.
  // nullptr disables the instrumentation.
  obs::FlightRecorder* flight = nullptr;
  // Number of commit-staging shards; 0 = auto (min(8, hardware threads)).
  // Committers hash onto shards by thread. A log with no device has none.
  uint32_t staging_shards = 0;
};

// WAL instruments; see docs/OBSERVABILITY.md for the naming scheme.
struct LogManagerMetrics {
  obs::Counter* records_appended;
  obs::Counter* bytes_appended;
  obs::Counter* flushes;
  obs::Counter* flushed_records;
  // Segment lifecycle: rotations performed, segments deleted by
  // checkpoint retirement, and the current live-segment count.
  obs::Counter* rotations;
  obs::Counter* segments_retired;
  obs::Gauge* segments;
  // Time a committer spends inside Flush() waiting for its LSN to become
  // durable (`ivdb_wal_flush_wait_micros`): group commit shows up here as a
  // tight distribution near the device latency.
  obs::Histogram* flush_wait_latency;
  // Per-sealed-batch record count / byte size / the wait the writer took
  // between its wakeup and sealing, window plus convoy wait
  // (`ivdb_wal_batch_*`). fsyncs-per-commit is flushes / committed-txns;
  // batch_records p50/p99 is the direct view of how much coalescing each
  // fsync buys.
  obs::Histogram* batch_records;
  obs::Histogram* batch_bytes;
  obs::Histogram* batch_window;
  // Times the writer found a head-of-line gap in the staged LSN stream (a
  // committer was mid-append in another shard) and had to re-run
  // (`ivdb_wal_staging_stalls_total`).
  obs::Counter* staging_stalls;
  // Passes sealed by the convoy wait's cap with the convoy incomplete
  // (`ivdb_wal_convoy_timeouts_total`): a committer of the last batch left
  // or is running a long transaction.
  obs::Counter* convoy_timeouts;

  explicit LogManagerMetrics(obs::MetricsRegistry* registry);
};

// Append-only write-ahead log with group commit, stored as a sequence of
// rotating segments.
//
// Append() assigns the LSN and stages the framed record in a per-core
// shard; Flush(lsn) returns once every record up to `lsn` is on stable
// storage. One dedicated WAL-writer thread, started by the constructor,
// does all segment I/O: each pass drains every shard, writes the dense LSN
// prefix as one segment append with one fsync, and only then advances the
// durable watermark that Flush() waiters park on. Concurrent committers
// batch naturally — everything staged while a pass is in flight rides the
// next one.
//
// A log with no device (empty `dir` and no simulated flush delay) has
// nothing to wait for, so it runs none of that: no writer thread, no
// staging shards. Append() draws the LSN and counts the record and its
// framed bytes, and the record is at the watermark as soon as it has its
// LSN — flushed_lsn() is last_lsn() and Flush() returns at once. A commit
// then waits for the log exactly as a system transaction always does:
// not at all.
//
// Segmented layout: records live in `wal-<seqno>.log` files; only the
// highest-seqno segment is open for appends. A flush batch is always written
// wholly to the open segment, and LSNs are assigned contiguously, so every
// segment covers a dense LSN range and the global record stream is the
// segment files concatenated in seqno order. When the open segment crosses
// the size threshold the writer *seals* it — an unconditional fsync (even
// under SyncMode::kNone), so a sealed segment can never have a torn tail —
// and creates the next one. Checkpoints retire sealed segments whose entire
// LSN range is below the redo horizon (RetireSegmentsBelow) instead of
// truncating the log. The set of live segments is exactly the directory
// listing: the Env guarantees file creation durably updates the directory,
// so no separate manifest file is needed.
class LogManager {
 public:
  explicit LogManager(LogManagerOptions options);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Every record is framed as [len: fixed32][crc32: fixed32][body]; this is
  // the frame's size beyond the encoded body.
  static constexpr uint64_t kFrameHeaderBytes = 8;

  // Per-segment decode accounting, one entry per segment in seqno order:
  // how many records and bytes each segment contributed, how long its
  // decode + CRC pass took (real time — decode workers are real threads,
  // so there is no Clock seam to virtualize here), and what Open needs to
  // rebuild its manifest. Recovery turns these into the per-segment replay
  // histogram and flight-recorder spans.
  struct SegmentReadStats {
    uint64_t seqno = 0;
    uint64_t records = 0;
    // Length of the well-formed record prefix. Below file_bytes only on
    // the newest segment, when its tail is torn.
    uint64_t bytes = 0;
    uint64_t file_bytes = 0;
    Lsn last_lsn = kInvalidLsn;  // highest LSN in the segment; 0 if empty
    uint64_t micros = 0;
  };

  // Opens the log for appends, reading each live segment exactly once.
  // One ReadSegmentFiles pass on `threads` workers (0 = auto, 1 = serial)
  // decodes and CRC-checks every segment under ReadLog's rules — strict on
  // sealed segments, so damage there fails the open with Corruption;
  // tolerant on the newest. From its per-segment results Open builds the
  // segment manifest, truncates the newest segment's torn tail (so appends
  // resume exactly where the durable prefix ends instead of after
  // unreachable garbage), opens that segment for appends (creating
  // `wal-000001.log` in an empty directory), and resumes LSN allocation
  // after the last record on disk. The decoded records, in LSN order, go
  // to `*records` and the per-segment stats to `*segment_stats` when those
  // are non-null: restart recovery replays from this one decode.
  Status Open(std::vector<LogRecord>* records = nullptr, unsigned threads = 1,
              std::vector<SegmentReadStats>* segment_stats = nullptr);

  // Assigns rec->lsn and stages the record for the writer (with no
  // device: only counts it). Thread-safe. A durable log (non-empty `dir`)
  // refuses appends with InvalidArgument until Open() has succeeded: with
  // no segment file the writer would ack records it never wrote.
  Status Append(LogRecord* rec);

  // Blocks until all records with lsn <= upto are durable. With no device
  // every appended record already is, so it returns at once.
  Status Flush(Lsn upto);

  Lsn flushed_lsn() const {
    return has_device_ ? flushed_lsn_.load() : last_lsn();
  }
  Lsn last_lsn() const { return next_lsn_.load() - 1; }

  // Measured duration of the most recent non-empty batch write (segment
  // append + fsync + modelled device latency), published before the durable
  // watermark advances. Commit-stage attribution reads this after its Flush
  // returns to split the flush wait into batch_assembly vs fsync; a racing
  // later batch can overwrite it, which only shifts a few microseconds
  // between those two stages.
  uint64_t last_batch_fsync_micros() const {
    return last_batch_fsync_micros_.load(std::memory_order_relaxed);
  }

  // After recovery, continue LSN allocation past everything in the log.
  void AdvancePastLsn(Lsn lsn);

  const LogManagerMetrics& metrics() const { return metrics_; }

  // Flushes everything staged and seals the open segment (no-op when it is
  // empty), so the checkpoint that follows starts a fresh segment and can
  // retire everything before its redo horizon. Blocks until a writer pass
  // that started after this call has landed.
  Status RotateNow();

  // Deletes sealed segments whose highest LSN is below `lsn` (the
  // checkpoint's redo horizon), oldest first. The open segment is never
  // deleted. Failure is not poisonous: an undeleted dead segment only
  // costs disk space — recovery filters its records.
  Status RetireSegmentsBelow(Lsn lsn);

  // Total bytes ever appended (records + framing) — the engine's
  // WAL-bytes-since-checkpoint trigger reads this.
  uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }

  // Live segment count (tools/tests; also exported as `ivdb_wal_segments`).
  size_t SegmentCount() const;

  // Reads the full record stream of the segmented log in `dir`, in LSN
  // order, without opening it for appends (tools, tests and benches; the
  // engine's restart reads through Open instead). Segment decode + CRC
  // checking runs on `threads` workers (0 = auto, 1 = serial); records are
  // merged in seqno order, so the result is identical for every thread
  // count. Strictness depends on position: in a *sealed* (non-newest)
  // segment every frame must be whole and valid and no trailing bytes may
  // remain — rotation fsyncs before sealing, so any damage there is real
  // corruption and a hard error. The *newest* segment tolerates a torn or
  // corrupt tail (the crash case) by stopping at the last whole record.
  // `env` defaults to Env::Default().
  static Status ReadLog(const std::string& dir,
                        std::vector<LogRecord>* records, Env* env = nullptr,
                        unsigned threads = 1,
                        std::vector<SegmentReadStats>* segment_stats = nullptr);

  // Live tail replay for online view builds: every *durable* record with
  // lsn >= from_lsn, through the same parallel segment decode as ReadLog.
  // Runs against the running log — sealed segments wholly below from_lsn
  // are skipped without being opened (the in-memory manifest knows their
  // LSN ranges), and the open segment is decoded tolerantly (a concurrent
  // append can only expose a prefix, so decoding stops at the last whole
  // record exactly like recovery's torn-tail case). Records staged but not
  // yet written to the file are not seen — callers that
  // need the complete tail Flush() first. The caller must hold a retention
  // floor at or below from_lsn (SetRetainLsnFloor) so a concurrent
  // checkpoint cannot retire segments out from under the read.
  Status ReadTail(Lsn from_lsn, std::vector<LogRecord>* records,
                  unsigned threads = 1,
                  std::vector<SegmentReadStats>* segment_stats = nullptr);

  // Retention floor for online view builds: while non-zero, checkpoints'
  // RetireSegmentsBelow() never deletes a segment containing LSNs at or
  // above the floor, keeping the build's replay tail (its start marker
  // included) on disk for as long as the build is alive. 0 clears.
  void SetRetainLsnFloor(Lsn floor) {
    retain_floor_.store(floor, std::memory_order_release);
  }

  // Names (not paths) of the WAL segment files in `dir`, sorted by seqno.
  // The only supported way to enumerate segments outside src/wal/.
  static Result<std::vector<std::string>> ListSegmentFiles(
      const std::string& dir, Env* env = nullptr);

  // `wal-<seqno>.log`, zero-padded to 6 digits.
  static std::string SegmentFileName(uint64_t seqno);

  // Sticky degraded state. After an unrecoverable I/O error (failed flush
  // append/sync, failed rotation) the log poisons itself: the durable
  // prefix of the file may be missing records that are still staged (or
  // were dropped by a failed fsync), so writing anything more would leave a
  // gap that recovery could silently replay across. Once poisoned, every
  // Append/Flush/RotateNow returns kUnavailable and no further bytes
  // reach the file; only a restart (a fresh LogManager over the durable
  // prefix) clears the condition. Poison() is idempotent and may also be
  // called by the engine when a checkpoint write fails.
  void Poison();
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

 private:
  // One live segment file. `end_lsn` is the highest LSN stored in the
  // segment once sealed; kInvalidLsn while it is the open (appendable) one.
  struct Segment {
    uint64_t seqno = 0;
    uint64_t bytes = 0;
    Lsn end_lsn = kInvalidLsn;
  };

  std::string SegmentPath(uint64_t seqno) const;

  // The one WAL decoder, shared by Open, ReadLog and ReadTail: decode +
  // CRC-check `names` (ascending seqno, all in `dir`) on `threads` workers,
  // merge in seqno order, check LSN density across segment boundaries, and
  // drop records below `min_lsn` (0 = keep all). The last name is decoded
  // tolerantly (torn tail), every other one strictly.
  static Status ReadSegmentFiles(const std::string& dir,
                                 const std::vector<std::string>& names,
                                 Env* env, unsigned threads, Lsn min_lsn,
                                 std::vector<LogRecord>* records,
                                 std::vector<SegmentReadStats>* segment_stats);

  // Writes a batch to the open segment (plus fsync / simulated latency).
  // Called by the writer thread with no locks held.
  Status WriteBatch(const std::string& batch);

  // Seals the open segment (fsync + close), creates the next one, and
  // updates the manifest. Writer-exclusive.
  Status RotateLocked(Lsn seal_end_lsn);

  // Stable per-thread shard pick (hash of thread id onto shards_.size()).
  size_t ShardIndex() const;

  // Body of the WAL-writer thread: park on writer_cv_ until work is
  // requested, sleep the group-commit window, wait for the convoy
  // (AwaitConvoy), then run one WriteStagedBatch pass. Exits when
  // writer_stop_ is set.
  void WriterLoop();

  // The convoy wait: blocks on writer_cv_ until convoy_ committers wait in
  // Flush() again (the parked ones count at once, the released ones as
  // they come back), the log stops or is poisoned, or half the last
  // batch's device time has passed (counted in convoy_timeouts). A convoy
  // of one returns at once. The cap is measured and waited in real time,
  // so a ManualClock harness never waits on virtual device time.
  void AwaitConvoy();

  // One writer pass: drain every staging shard into pending_frames_, write
  // the dense LSN prefix as ONE segment append + ONE fsync, rotate if due
  // (or `do_rotate`), then — under flush_mu_ — advance flushed_lsn_, ack
  // rotation up to `rotate_target`, record the convoy and wake flush
  // waiters. `wake_micros` is when the writer woke for this
  // pass: the wait before sealing is measured from it. The durable
  // watermark deliberately advances only at the END of the pass (after
  // rotation I/O): a flush waiter that returns has therefore observed every
  // env op of its batch complete, which keeps single-threaded workloads'
  // env-op streams deterministic.
  void WriteStagedBatch(bool do_rotate, uint64_t rotate_target,
                        uint64_t wake_micros);

  // Writer-thread poison: records the root-cause status and defers the
  // on_poison callback instead of firing it on the writer thread (which has
  // no transaction context). The first committer/checkpointer to observe
  // the poison *claims* both — ClaimPoisonStatusLocked hands it the real
  // I/O status (everyone after gets kUnavailable) and
  // FirePendingPoisonCallback runs the callback on its thread, so the
  // failure is reported from the commit scope it aborts.
  void PoisonStagedLocked(Status cause) IVDB_REQUIRES(flush_mu_);
  Status ClaimPoisonStatusLocked() IVDB_REQUIRES(flush_mu_);
  void FirePendingPoisonCallback();

  LogManagerOptions options_;
  // A directory or a simulated delay to wait for; without one there is no
  // writer and no staging (see the class comment).
  const bool has_device_;
  Env* env_ = nullptr;  // options_.env resolved against Env::Default()
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  LogManagerMetrics metrics_;
  Clock* clock_ = nullptr;  // options_.clock resolved against Clock::Default()
  // The open (newest) segment; touched only by Open and the writer thread.
  std::unique_ptr<WritableFile> file_;

  // Flush waiters park on flush_cv_ until the durable watermark covers
  // them; the writer parks on writer_cv_ until work is requested. Both
  // ride flush_mu_, which also guards the request flags below.
  RankedMutex flush_mu_{LockRank::kWalFlush, "flush_mu_"};
  CondVar flush_cv_;
  CondVar writer_cv_;
  bool writer_stop_ IVDB_GUARDED_BY(flush_mu_) = false;
  bool work_requested_ IVDB_GUARDED_BY(flush_mu_) = false;
  // RotateNow() handshake, sequence-numbered so a request that lands while
  // a pass is already in flight is never satisfied by that pass (which
  // sampled its drain before the request's records were staged): a caller
  // takes seq = ++rotate_seq_ and waits for rotate_seq_done_ >= seq; the
  // writer samples rotate_seq_ at pass START (before draining) and sets
  // rotate_seq_done_ to the sampled value only after its rotation lands.
  uint64_t rotate_seq_ IVDB_GUARDED_BY(flush_mu_) = 0;
  uint64_t rotate_seq_done_ IVDB_GUARDED_BY(flush_mu_) = 0;
  // The convoy wait's count: the LSN each committer in Flush() waits for,
  // until the pass that makes it durable sweeps it out as it releases the
  // batch (a count kept until the committer wakes would still hold the
  // ones just released). convoy_ is its size at the last release: the
  // committers that pass released plus those still parked.
  std::vector<Lsn> flush_waiting_ IVDB_GUARDED_BY(flush_mu_);
  size_t convoy_ IVDB_GUARDED_BY(flush_mu_) = 0;

  // Root cause of a writer-thread poison and whether a waiter has already
  // claimed it (see PoisonStagedLocked). The callback flag is atomic so
  // Append can claim it without touching flush_mu_.
  Status staged_error_ IVDB_GUARDED_BY(flush_mu_);
  bool staged_error_claimed_ IVDB_GUARDED_BY(flush_mu_) = false;
  std::atomic<bool> poison_callback_pending_{false};

  // Live-segment manifest, ascending seqno; back() is the open segment.
  // Only its *bookkeeping* is guarded by seg_mu_ — the file handle and the
  // bytes of the open segment are writer-exclusive.
  mutable RankedMutex seg_mu_{LockRank::kWalSegments, "seg_mu_"};
  std::vector<Segment> segments_ IVDB_GUARDED_BY(seg_mu_);

  std::atomic<Lsn> next_lsn_{1};
  std::atomic<Lsn> flushed_lsn_{0};
  // Online-build retention floor (see SetRetainLsnFloor); 0 = none.
  std::atomic<Lsn> retain_floor_{0};
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> last_batch_fsync_micros_{0};
  std::atomic<bool> poisoned_{false};
  // Set once Open() succeeds on a durable log; Append reads this, never
  // file_, which belongs to Open and the writer.
  std::atomic<bool> opened_{false};
  obs::FlightRecorder* flight_ = nullptr;  // options_.flight

  // One commit-staging shard. Committers hash onto shards by thread; the
  // LSN is drawn *inside* the shard mutex so each shard's staged frames are
  // internally LSN-ordered, and the writer's merge across shards is a dense
  // stream except for committers caught mid-append elsewhere. alignas keeps
  // independent committers off each other's cache line.
  struct alignas(64) StagingShard {
    RankedMutex wal_shard_mu_{LockRank::kWalShard, "wal_shard_mu_"};
    // Framed records ([len][crc][body]) staged and not yet drained.
    std::vector<std::pair<Lsn, std::string>> staged
        IVDB_GUARDED_BY(wal_shard_mu_);
  };
  // Empty when there is no device; writer_ then never starts either.
  std::vector<std::unique_ptr<StagingShard>> shards_;

  // Writer-thread-private: frames drained from shards but not yet written
  // because of a head-of-line LSN gap, keyed by LSN. No lock — only the
  // writer thread touches them.
  std::map<Lsn, std::string> pending_frames_;
  // The last non-empty batch's WriteBatch time on the steady clock; half
  // of it caps the convoy wait.
  std::chrono::steady_clock::duration last_device_time_{};

  std::thread writer_;
};

}  // namespace ivdb

#endif  // IVDB_WAL_LOG_MANAGER_H_
