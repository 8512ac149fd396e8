#ifndef IVDB_ENGINE_DATABASE_H_
#define IVDB_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "lock/lock_manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/scan_cache.h"
#include "storage/version_store.h"
#include "txn/retry.h"
#include "txn/txn_manager.h"
#include "view/ghost_cleaner.h"
#include "view/maintenance.h"
#include "view/view_def.h"
#include "wal/log_manager.h"

namespace ivdb {

struct SnapshotImage;

// How locking-mode scans of base tables achieve phantom safety.
enum class ScanLockingMode : uint8_t {
  // One object-level S lock per scan: simple, cheap, but serializes the
  // whole table against writers.
  kObjectLevel,
  // ARIES/KVL-style key-range (next-key) locking: the scan S-locks every
  // row in the range plus the gap below each row and below the range's
  // upper boundary; inserts/deletes take X gap locks on the affected
  // next-keys. Scans of disjoint ranges run concurrently with writers.
  // (View scans always use object-level locks — snapshot reads are the
  // intended concurrent-read path for hot aggregates.)
  kKeyRange,
};

struct DatabaseOptions {
  // Directory for the WAL and checkpoint files. Empty => purely in-memory
  // (no durability; recovery tests and lock-only benchmarks).
  std::string dir;

  SyncMode sync = SyncMode::kNone;
  // Simulated stable-storage latency per log flush (see LogManagerOptions).
  uint64_t flush_delay_micros = 0;
  // Group-commit batching window (see LogManagerOptions): the floor of the
  // WAL writer's adaptive window, which stretches to at most 2x under
  // sustained commit load. With a simulated device (flush_delay_micros
  // > 0) the writer then also waits for the committers its last batch
  // released, for at most half that batch's device time, so they share
  // the next fsync.
  uint64_t group_commit_window_micros = 0;

  // WAL segment rotation threshold (see LogManagerOptions::segment_bytes);
  // 0 keeps one ever-growing segment.
  uint64_t wal_segment_bytes = 8ull << 20;
  // Background fuzzy-checkpoint trigger: once this many WAL bytes have been
  // appended since the last checkpoint, the checkpointer thread takes a new
  // one (which then retires dead segments). 0 — the default — disables the
  // background checkpointer; checkpoints still happen on DDL and on
  // explicit Checkpoint() calls.
  uint64_t checkpoint_wal_bytes = 0;
  // Parallelism of the restart redo pipeline (segment decode/CRC fan-out;
  // application is always in LSN order). 0 = auto (min(4, hardware));
  // 1 = fully serial.
  unsigned recovery_threads = 0;

  // View maintenance configuration (sweepable by the benchmarks).
  MaintenanceTiming maintenance_timing = MaintenanceTiming::kImmediate;
  bool use_escrow_locks = true;

  std::chrono::milliseconds lock_wait_timeout{10000};
  // Waits-for-graph deadlock detection; with it off, deadlocks resolve by
  // lock_wait_timeout only (ablation A3 in bench_ablation).
  bool detect_deadlocks = true;
  // Lock escalation trigger (key locks per object per transaction before
  // trading them for one object lock); 0 disables.
  size_t lock_escalation_threshold = 0;
  // Phantom-protection strategy for base-table scans in kLocking mode.
  ScanLockingMode scan_locking = ScanLockingMode::kObjectLevel;

  // Background ghost cleanup for every aggregate view.
  bool start_ghost_cleaner = false;
  uint64_t ghost_cleaner_interval_micros = 50000;

  // Read-optimized snapshot scans: keep a contiguous last-committed-row
  // cache per indexed view, invalidated key-precisely by (escrow) commits
  // (storage/scan_cache.h). Full-object snapshot scans of a view are then
  // served from the cache plus a slow re-resolution of only the keys
  // changed since the serving snapshot.
  bool scan_cache = true;

  // Background epoch-based version GC: every interval, unlink versions
  // dead to the oldest active snapshot and free batches whose retire epoch
  // every active reader has left. 0 — the default — disables the thread;
  // GarbageCollectVersions() can still be called explicitly.
  uint64_t version_gc_interval_micros = 0;

  // Admission control: maximum concurrently active user transactions
  // (system transactions — ghost maintenance — are exempt). 0 disables the
  // gate. When the engine is full, BeginChecked() queues up to
  // admission_timeout_micros for a slot and then returns kBusy, so overload
  // turns into bounded waiting instead of an unbounded pile-up in the lock
  // table. (The unchecked Begin() bypasses the gate — it has no way to
  // report rejection and its callers rely on it never returning null — but
  // the transactions it admits still count against the cap.)
  size_t max_active_txns = 0;
  uint64_t admission_timeout_micros = 1000 * 1000;

  // --- Online view build (CreateIndexedViewOnline) ---

  // Bounded wait for the flip barrier's quiesce attempt. On timeout the
  // builder reopens the Begin gate, replays whatever tail accumulated, and
  // retries after a jittered backoff — writers never stall longer than
  // this per attempt.
  uint64_t online_build_barrier_timeout_micros = 50 * 1000;
  // Barrier attempts before the build gives up with kBusy (the catalog
  // record is then abandoned and GC'd exactly like a crash).
  int online_build_barrier_max_retries = 16;
  // Base backoff between barrier attempts (exponential, capped at 16x,
  // ±50% jitter; sleeps go through DatabaseOptions::clock).
  uint64_t online_build_backoff_micros = 2000;

  // Stuck-transaction watchdog: user transactions idle for longer than this
  // (wall-clock age since Begin, owner thread not inside an engine call)
  // are force-aborted by a background sweep, releasing their locks. 0 — the
  // default — disables the watchdog. See docs/ROBUSTNESS.md §3.
  uint64_t max_txn_lifetime_micros = 0;

  // Time source for retry backoff sleeps, watchdog age accounting, and
  // commit-latency metrics; nullptr => Clock::Default() (real time). Tests
  // inject a ManualClock to make RunTransaction backoff schedules
  // deterministic. Must outlive the Database.
  Clock* clock = nullptr;

  // File-system seam for all WAL/checkpoint/recovery I/O; nullptr =>
  // Env::Default(). Tests inject a FaultInjectionEnv to simulate torn
  // writes, fsync failures, and crashes at exact I/O boundaries. Must
  // outlive the Database.
  Env* env = nullptr;
};

struct ViewInfo {
  ObjectId id = kInvalidObjectId;
  ViewDefinition definition;
  Schema schema;
};

// The public facade: a multi-threaded transactional storage engine with
// indexed views maintained inside user transactions.
//
// Typical use:
//
//   auto db = Database::Open({.dir = "/tmp/mydb"}).value();
//   auto* t = db->CreateTable("sales", schema, {0}).value();
//   ViewDefinition def = ...;                 // GROUP BY + SUM/COUNT
//   db->CreateIndexedView(def);
//   Transaction* txn = db->Begin();
//   db->Insert(txn, "sales", row);            // view maintained in-txn
//   db->Commit(txn);
//
// Error handling contract (docs/ROBUSTNESS.md):
//   - RequiresRollback() (deadlock, timeout, abort — including a watchdog
//     abort) leaves the transaction doomed; the caller must Abort() and may
//     retry from the top. RunTransaction() automates exactly that loop with
//     capped exponential backoff.
//   - IsTransient() && !RequiresRollback() (kBusy: escrow bound exceeded or
//     admission-control overflow) is statement atomic and worth retrying.
//   - kUnavailable means a WAL I/O failure degraded the engine to
//     read-only. Write statements keep failing until the process restarts
//     and recovers; snapshot reads keep serving. Not worth retrying
//     in-process.
//   - All other statement failures (NotFound, AlreadyExists,
//     InvalidArgument, ...) are *statement atomic*: the failed statement's
//     partial effects are rolled back via a savepoint and the transaction
//     remains usable.
class Database : public LogApplier, public IndexResolver {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL ---

  // Creates a base table clustered on `key_columns`. When the database is
  // durable (dir set), DDL forces a checkpoint: the engine does not log DDL.
  Result<const TableInfo*> CreateTable(const std::string& name, Schema schema,
                                       std::vector<int> key_columns);

  // Creates an indexed view and populates it from current base data (under
  // a quiescent section). The view is maintained by every subsequent
  // transaction that changes its fact table.
  Result<const ViewInfo*> CreateIndexedView(ViewDefinition definition);

  // Creates an indexed view *online*: writers keep committing while the
  // view is built. Phased and crash-safe at every phase boundary
  // (docs/ROBUSTNESS.md §4):
  //   1. a durable VIEW_BUILD_START record + catalog build entry pin the
  //      capture point (MVCC reader snapshot + WAL replay floor);
  //   2. the base table is snapshot-scanned as of the capture timestamp
  //      into a private offline state;
  //   3. the WAL tail past the capture point is replayed into that state,
  //      iterating until the remaining tail is below 64 KiB;
  //   4. a bounded-wait barrier (TryQuiesce + jittered-backoff retries)
  //      drains actives, the final tail is applied, the contents are logged
  //      through a system transaction, VIEW_BUILD_COMMIT seals the build,
  //      and the view flips live.
  // A crash or degraded-mode entry at any point before the commit marker
  // leaves an abandoned build that restart recovery GCs completely.
  Result<const ViewInfo*> CreateIndexedViewOnline(ViewDefinition definition);

  // Runs CreateIndexedViewOnline on a dedicated builder thread (which gets
  // its own flight-recorder lane). At most one background build at a time;
  // kBusy if one is already running.
  Status StartViewBuildAsync(ViewDefinition definition);
  // Blocks until the background build finishes; returns its status.
  Status WaitForViewBuild();

  Result<const ViewInfo*> GetView(const std::string& name) const;
  std::vector<const ViewInfo*> ListViews() const;
  const Catalog& catalog() const { return catalog_; }

  // Creates a secondary (non-clustered) index over `columns` of a base
  // table, backfilled from current contents. Maintained by every subsequent
  // DML statement; fully logged, so it recovers with the table.
  Result<const SecondaryIndexInfo*> CreateSecondaryIndex(
      const std::string& index_name, const std::string& table,
      const std::vector<std::string>& columns);

  // Rows of the indexed table whose indexed columns match `values` (a
  // prefix of the index columns is allowed). Read semantics follow the
  // transaction's read mode, exactly like primary-key reads.
  Result<std::vector<Row>> GetByIndex(Transaction* txn,
                                      const std::string& index_name,
                                      const std::vector<Value>& values);

  // --- Transactions ---

  // Never returns null; bypasses admission control and the degraded-mode
  // write gate (those need a status channel — use BeginChecked).
  Transaction* Begin(ReadMode read_mode = ReadMode::kLocking);
  // Begin with admission control and degraded mode surfaced as statuses:
  // kBusy when the engine is at max_active_txns and no slot freed within
  // the admission timeout; kUnavailable when the engine is degraded
  // (read-only) and a locking-mode — i.e. write-capable — transaction is
  // requested. Snapshot and dirty readers are always admitted in degraded
  // mode.
  Result<Transaction*> BeginChecked(ReadMode read_mode = ReadMode::kLocking);

  // Runs `body` inside a fresh transaction, committing on success and
  // automatically retrying transient failures (deadlock, lock timeout,
  // escrow/admission kBusy, watchdog abort) with capped exponential backoff
  // plus jitter (docs/ROBUSTNESS.md §1). The body may run up to
  // options.max_attempts times; every database effect of a failed attempt
  // is rolled back before the next one starts, so the body must only be
  // idempotent in its side effects *outside* the database. Sleeps go
  // through DatabaseOptions::clock. Returns the final attempt's status.
  // Never retried: non-transient statement failures returned by the body,
  // and kUnavailable (the engine stays read-only until restart, so retrying
  // in-process cannot succeed).
  Status RunTransaction(const RunTransactionOptions& options,
                        const std::function<Status(Transaction*)>& body,
                        RunTransactionResult* result = nullptr);

  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);
  // Frees a finished transaction's descriptor (optional; bounds memory in
  // long benchmark runs). Synchronizes with the stuck-transaction watchdog
  // via the owner latch, so a descriptor is never destroyed under a
  // concurrent sweep.
  void Forget(Transaction* txn);

  // --- DML (primary-key based) ---

  Status Insert(Transaction* txn, const std::string& table, const Row& row);
  // Replaces the row with the same primary key (which must exist).
  Status Update(Transaction* txn, const std::string& table, const Row& row);
  Status Delete(Transaction* txn, const std::string& table,
                const std::vector<Value>& key);

  // --- Reads (behaviour depends on txn->read_mode()) ---

  Result<std::optional<Row>> Get(Transaction* txn, const std::string& table,
                                 const std::vector<Value>& key);
  Result<std::vector<Row>> ScanTable(Transaction* txn,
                                     const std::string& table);
  // Rows whose clustering key is in [low, high) — each bound given as a
  // (possibly partial) prefix of key values; empty high = unbounded.
  Result<std::vector<Row>> ScanTableRange(Transaction* txn,
                                          const std::string& table,
                                          const std::vector<Value>& low,
                                          const std::vector<Value>& high);

  // View reads return *finalized* rows (AVG derived from sum/count); ghost
  // rows (count == 0) are invisible.
  Result<std::optional<Row>> GetViewRow(Transaction* txn,
                                        const std::string& view,
                                        const std::vector<Value>& group);
  Result<std::vector<Row>> ScanView(Transaction* txn, const std::string& view);
  // Aggregate rows whose group key is in [low, high) (prefix bounds, empty
  // high = unbounded); same finalization/ghost rules as ScanView.
  Result<std::vector<Row>> ScanViewRange(Transaction* txn,
                                         const std::string& view,
                                         const std::vector<Value>& low,
                                         const std::vector<Value>& high);

  // Optimistic escrow read: the range of values the aggregate row can
  // settle to once every in-flight transaction commits or aborts, computed
  // WITHOUT taking any lock (never blocks behind E holders). Rows are in
  // stored form (AVG columns are running sums). `low` and `high` coincide
  // when nothing is pending. If the row's count may reach 0, `low` is a
  // ghost-valued row — the group might disappear.
  struct ViewRowBounds {
    bool exists = false;  // row physically present / being created
    Row low;
    Row high;
  };
  Result<ViewRowBounds> GetViewRowBounds(const std::string& view,
                                         const std::vector<Value>& group);

  // --- Durability ---

  // Fuzzy (non-blocking) checkpoint: seals the current WAL segment, takes a
  // short snapshot-acquire critical section (a timestamp, the WAL
  // high-water mark, and the set of in-flight transactions), then builds
  // and atomically publishes a transactionally-consistent as-of-capture
  // image while commits keep flowing — no quiesce, no pause of the ghost
  // cleaners. After publishing it retires every WAL segment below the new
  // redo horizon. Concurrent calls serialize. See docs/INTERNALS.md §4.
  Status Checkpoint();
  // Forces the WAL to stable storage (commits already do this).
  Status FlushWal();

  // --- Maintenance / administration ---

  // Runs one ghost-cleanup pass over every aggregate view.
  Status CleanGhosts(uint64_t* reclaimed = nullptr);
  // Reclaims version-store entries older than the oldest active snapshot.
  uint64_t GarbageCollectVersions();

  // True once a WAL I/O failure flipped the engine read-only
  // (docs/ROBUSTNESS.md §2). Sticky: cleared only by reopening the
  // database, whose recovery rebuilds state from the durable prefix.
  bool degraded() const { return log_->poisoned(); }

  // Runs one stuck-transaction watchdog pass right now (see
  // DatabaseOptions::max_txn_lifetime_micros); returns the number of
  // transactions aborted. The background sweep calls this periodically;
  // ManualClock tests call it directly.
  uint64_t AbortStuckTransactions() { return txns_->SweepStuckTransactions(); }

  // Test/benchmark oracle: recomputes the view from base tables and compares
  // with the stored index (must be called while quiescent).
  Status VerifyViewConsistency(const std::string& view) const;

  // --- Observability ---

  // Every component of this engine registers its instruments here.
  obs::MetricsRegistry* metrics_registry() { return &registry_; }
  // The always-on engine flight recorder (per-thread event rings). Benches
  // snapshot it for Chrome-trace export; the engine dumps it to
  // `blackbox-<seq>.json` next to the WAL on degraded-mode entry or an
  // invariant failure.
  obs::FlightRecorder* flight_recorder() { return &flight_; }
  // One transaction's span log, oldest first, read from the flight
  // recorder: its events from every thread (lock waits, view maintenance,
  // ghost creation, commit stages, abort, RunTransaction retries) plus
  // engine-wide markers recorded on its own lane while it ran, such as
  // the degraded-mode entry. Works with default options and after Forget,
  // for as long as the per-thread rings still hold the events.
  std::string DumpTrace(TxnId txn) const {
    return flight_.Snap().TxnTrace(txn);
  }
  // Prometheus text exposition of every instrument in the engine (counters,
  // gauges, histogram summaries with p50/p95/p99). Point-in-time gauges
  // (e.g. ivdb_storage_version_entries) are refreshed by this call.
  std::string DumpMetrics() const;

  // Typed component handles for benchmarks/tests that assert exact counts.
  const LockManagerMetrics& lock_metrics() const { return locks_.metrics(); }
  const LogManagerMetrics& log_metrics() const { return log_->metrics(); }
  const TxnManagerMetrics& txn_metrics() const { return txns_->metrics(); }
  const ViewMaintainerMetrics* view_metrics(const std::string& view) const;
  const GhostCleanerMetrics* ghost_metrics(const std::string& view) const;
  uint64_t version_store_entries() const { return versions_.TotalEntries(); }
  // The snapshot-scan row cache (hit/miss stats for benches and tests).
  ScanCache* scan_cache() { return &scan_cache_; }

  // --- LogApplier (rollback + recovery) ---
  Status ApplyRedo(LogRecordType op_type, const LogRecord& rec) override;

  // --- IndexResolver ---
  BTree* GetIndex(ObjectId id) override;

 private:
  explicit Database(DatabaseOptions options);

  struct ViewEntry {
    ViewInfo info;
    std::unique_ptr<ViewMaintainer> maintainer;
    std::unique_ptr<GhostCleaner> cleaner;
    // `ivdb_ghost_last_pass_age_micros{view=...}`, refreshed by
    // DumpMetrics() from the cleaner's pass stamp (0 = no pass yet).
    obs::Gauge* ghost_lag_gauge = nullptr;
  };

  std::string CheckpointPath() const { return options_.dir + "/checkpoint.db"; }

  // Restart, for a durable directory: loads the checkpoint image, opens
  // the log (its one decode), then runs analysis, redo and undo over the
  // decoded records. Opens the in-memory log otherwise.
  Status Recover();
  Status RestoreFromImage(const SnapshotImage& image);
  // Writes the flight recorder's contents to `<dir>/blackbox-<seq>.json`
  // (next free seq; best-effort — the engine is already failing when this
  // runs). Called on degraded-mode entry and from the invariant-failure
  // hook.
  void WriteBlackboxDump(const char* reason);
  static void InvariantBlackboxHook(void* arg) {
    static_cast<Database*>(arg)->WriteBlackboxDump("invariant");
  }
  // Serializes one index's contents as of `as_of_ts` (MVCC snapshot read:
  // physical state minus pending/unflipped deltas — ghosts included, since
  // increment redo is not idempotent and needs its base rows).
  Status BuildIndexImage(ObjectId object_id, uint64_t as_of_ts,
                         std::string* payload);
  // The checkpointer thread body (only when checkpoint_wal_bytes > 0).
  void CheckpointThreadLoop();
  // The version-GC thread body (only when version_gc_interval_micros > 0).
  void GcThreadLoop();

  // kUnavailable once the engine is degraded; gates every path that would
  // append to the WAL (DML, DDL, checkpoints). Reads are never gated.
  Status CheckWritable() const;

  BTree* CreateIndex(ObjectId id);
  // Runs `body` under a savepoint: on a non-doomed failure, everything the
  // statement logged is compensated before the status is returned.
  Status WithStatementAtomicity(Transaction* txn,
                                const std::function<Status()>& body);
  Status MaintainViews(Transaction* txn, DeferredChange change);
  // Keeps every secondary index of `info` in step with one base change
  // (within the statement's savepoint).
  Status MaintainSecondaryIndexes(Transaction* txn, const TableInfo* info,
                                  const Row* old_row, const Row* new_row);
  Status RegisterView(ObjectId id, ViewDefinition def, bool populate);
  // With start_ghost_cleaner, starts every aggregate view's cleaner that
  // is not running yet. Registering a view never starts one: recovery's
  // views get theirs once Recover has returned.
  void StartGhostCleaners();

  // --- Online view build internals (engine/online_build.cc) ---
  struct OnlineBuildCtx;
  Status RunOnlineBuild(ViewDefinition def, const ViewInfo** out);
  // Snapshot-scans the fact table as of the capture timestamp into the
  // build's offline state.
  Status OnlineBuildScan(OnlineBuildCtx* ctx);
  // One catch-up round: replays the WAL tail past the build cursor into
  // the offline state (commit-ordered, capture-filtered). Returns the
  // remaining un-replayed tail size through ctx.
  Status OnlineBuildCatchUpRound(OnlineBuildCtx* ctx);
  // Barrier + flip: bounded quiesce, final tail apply, contents logged via
  // a system transaction, VIEW_BUILD_COMMIT, view registration.
  Status OnlineBuildFlip(OnlineBuildCtx* ctx);
  // Marks the catalog record abandoned and tears the build down (metrics +
  // retain-floor release). The durable GC happens at next recovery, same
  // as after a crash.
  void AbandonOnlineBuild(OnlineBuildCtx* ctx, const Status& cause);
  // Drops a scratch index created for a build that never committed.
  void DropIndex(ObjectId id);

  // Mode-dispatched visibility: the row of (object, key) as `txn` must see
  // it (nullopt = absent). Takes the read locks itself in kLocking mode.
  Result<std::optional<Row>> ReadRow(Transaction* txn, ObjectId object_id,
                                     const std::string& key);
  // Mode-dispatched scan of [begin, end) of an object (end nullptr =
  // unbounded), as (key, row) pairs. `key_range_eligible` marks base-table
  // scans that may use next-key locking instead of an object S lock.
  Result<std::vector<std::pair<std::string, Row>>> ScanObject(
      Transaction* txn, ObjectId object_id, const std::string& begin = "",
      const std::string* end = nullptr, bool key_range_eligible = false);
  // Gap locks (next-key locking) around an insert/delete of `key`.
  Status LockGapsForWrite(Transaction* txn, ObjectId object_id, BTree* tree,
                          const std::string& key);
  // Shared tail of ScanView/ScanViewRange.
  Result<std::vector<Row>> FinalizeViewScan(
      const ViewInfo* info,
      std::vector<std::pair<std::string, Row>> entries) const;

  DatabaseOptions options_;
  Env* env_ = nullptr;  // options_.env resolved against Env::Default()
  Catalog catalog_;
  // Declared before every component so it outlives the instrument pointers
  // they cache at construction.
  obs::MetricsRegistry registry_;
  // Refreshed on DumpMetrics(); TotalEntries() walks the store, so it is
  // not kept current on the hot path.
  obs::Gauge* version_entries_gauge_ = nullptr;
  // 1 once the engine is degraded (read-only); set by the WAL's poison
  // callback on the thread that hit the I/O failure.
  obs::Gauge* degraded_gauge_ = nullptr;
  // RunTransaction outcomes: attempts beyond the first, and bodies that
  // exhausted max_attempts on a retryable status.
  obs::Counter* txn_retries_ = nullptr;
  obs::Counter* txn_retry_exhausted_ = nullptr;
  // options_.clock resolved against Clock::Default().
  Clock* clock_ = nullptr;
  // Version-chain shape (longest chain and p99 chain length), updated LIVE
  // by every GC pass from the lengths it measures while pruning, and
  // re-measured by DumpMetrics() for engines that never run GC.
  obs::Gauge* version_chain_max_gauge_ = nullptr;
  obs::Gauge* version_chain_p99_gauge_ = nullptr;
  // `ivdb_storage_gc_lag_micros`: interval between consecutive GC pass
  // ends, set live at the end of every pass; DumpMetrics() additionally
  // ages it to now - last_pass_end when that is larger, so a stopped
  // collector reads as unbounded growing lag rather than a stale low value.
  obs::Gauge* gc_lag_gauge_ = nullptr;
  // Scan-cache counters (`ivdb_scan_cache_*`), refreshed by DumpMetrics()
  // from ScanCache::GetStats().
  obs::Gauge* scan_cache_hits_gauge_ = nullptr;
  obs::Gauge* scan_cache_misses_gauge_ = nullptr;
  obs::Gauge* scan_cache_served_gauge_ = nullptr;
  obs::Gauge* scan_cache_full_gauge_ = nullptr;
  obs::Gauge* scan_cache_invalidations_gauge_ = nullptr;
  // Declared after clock_ (its timestamps go through the same seam) and
  // before every component that records into it.
  obs::FlightRecorder flight_;
  LockManager locks_;
  VersionStore versions_;
  // Declared after versions_ so it is destroyed first; the version store
  // fires no commit hooks during destruction, so the ordering is only
  // about member-init dependence (the hook captures &scan_cache_).
  ScanCache scan_cache_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<TransactionManager> txns_;

  mutable RankedSharedMutex indexes_mu_{LockRank::kEngineIndexes,
                                        "indexes_mu_"};
  std::map<ObjectId, std::unique_ptr<BTree>> indexes_
      IVDB_GUARDED_BY(indexes_mu_);

  mutable RankedSharedMutex views_mu_{LockRank::kEngineViews, "views_mu_"};
  std::map<std::string, std::unique_ptr<ViewEntry>> views_
      IVDB_GUARDED_BY(views_mu_);
  std::set<ObjectId> dimension_tables_ IVDB_GUARDED_BY(views_mu_);

  // Serializes checkpoints (DDL, explicit calls, the background
  // checkpointer). Rank kCheckpointSerial: held across the whole fuzzy
  // checkpoint, below every other rank.
  RankedMutex checkpoint_mu_{LockRank::kCheckpointSerial, "checkpoint_mu_"};
  // Checkpoint instruments (`ivdb_ckpt_*`).
  obs::Counter* ckpt_total_ = nullptr;
  obs::Histogram* ckpt_duration_ = nullptr;
  // Length of the snapshot-acquire critical section — the only window a
  // fuzzy checkpoint can stall committers for.
  obs::Histogram* ckpt_capture_stall_ = nullptr;
  // Checkpoint phase breakdown (`ivdb_ckpt_phase_micros{phase=...}`): the
  // five phases partition ckpt_duration_ exactly (same clock reads).
  obs::Histogram* ckpt_phase_rotate_ = nullptr;
  obs::Histogram* ckpt_phase_capture_ = nullptr;
  obs::Histogram* ckpt_phase_build_ = nullptr;
  obs::Histogram* ckpt_phase_write_ = nullptr;
  obs::Histogram* ckpt_phase_retire_ = nullptr;
  // Per-segment decode + CRC time of the restart redo pipeline.
  obs::Histogram* recovery_segment_micros_ = nullptr;
  // Restart phase breakdown (`ivdb_recovery_phase_micros{phase=...}`): the
  // five phases partition Recover's wall time exactly (same clock reads).
  obs::Histogram* recovery_phase_image_load_ = nullptr;
  obs::Histogram* recovery_phase_log_read_ = nullptr;
  obs::Histogram* recovery_phase_analysis_ = nullptr;
  obs::Histogram* recovery_phase_redo_ = nullptr;
  obs::Histogram* recovery_phase_undo_ = nullptr;

  // Online view build instruments (`ivdb_view_build_*`).
  obs::Counter* build_started_ = nullptr;
  obs::Counter* build_committed_ = nullptr;
  obs::Counter* build_abandoned_ = nullptr;
  obs::Counter* build_gc_ = nullptr;  // abandoned builds GC'd at recovery
  obs::Counter* build_barrier_timeouts_ = nullptr;
  obs::Counter* build_catchup_rounds_ = nullptr;
  obs::Gauge* build_active_gauge_ = nullptr;
  obs::Gauge* build_lag_gauge_ = nullptr;     // catch-up lag, bytes
  obs::Histogram* build_phase_scan_ = nullptr;
  obs::Histogram* build_phase_catchup_ = nullptr;
  obs::Histogram* build_phase_barrier_ = nullptr;
  obs::Histogram* build_phase_flip_ = nullptr;
  // True while a build is in flight. Read by the WAL poison callback —
  // which can run on a committer holding engine locks — to stamp the
  // blackbox dump with the "view_build" reason; must stay lock-free. The
  // builder polls degraded() at every phase boundary and aborts the build
  // exactly like a crash would.
  std::atomic<bool> view_build_active_{false};

  // Background builder thread (StartViewBuildAsync). `build_running_`
  // gates double-starts; the result slot is published by the thread before
  // it clears the flag and read only after join.
  std::thread build_thread_;
  std::atomic<bool> build_running_{false};
  Status build_result_;

  // Background checkpointer (only when dir set and checkpoint_wal_bytes >
  // 0): wakes periodically and checkpoints when enough WAL has accumulated.
  std::thread ckpt_thread_;
  RankedMutex ckpt_thread_mu_{LockRank::kCkptThread, "ckpt_thread_mu_"};
  CondVar ckpt_thread_cv_;
  bool ckpt_stop_ IVDB_GUARDED_BY(ckpt_thread_mu_) = false;
  uint64_t ckpt_last_bytes_ = 0;  // checkpointer-thread-only

  // Background version collector (only when version_gc_interval_micros >
  // 0): wakes every interval and runs one GarbageCollectVersions() pass.
  // gc_thread_mu_ reuses rank kCkptThread — same background-parking family
  // as the checkpointer's mutex and never nested with it.
  std::thread gc_thread_;
  RankedMutex gc_thread_mu_{LockRank::kCkptThread, "gc_thread_mu_"};
  CondVar gc_thread_cv_;
  bool gc_stop_ IVDB_GUARDED_BY(gc_thread_mu_) = false;
  // Wall-clock stamp of the last GC pass end (0 = never ran); written by
  // GC passes, read by DumpMetrics() to age the lag gauge.
  std::atomic<uint64_t> last_gc_pass_end_micros_{0};
};

}  // namespace ivdb

#endif  // IVDB_ENGINE_DATABASE_H_
