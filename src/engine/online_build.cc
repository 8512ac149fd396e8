// Online indexed-view build: create a view while writers keep committing.
//
// The build is a phased state machine, crash-safe at every phase boundary
// (docs/ROBUSTNESS.md §4):
//
//   capture  — pin an MVCC reader snapshot + a WAL replay floor (the same
//              CaptureCheckpoint primitive fuzzy checkpoints use), then log
//              a durable kViewBuildStart marker and register the build in
//              the catalog.
//   scan     — snapshot-scan the fact table as of the capture timestamp
//              into a private offline state (a plain key → row map).
//   catch-up — replay the WAL tail past the capture point into the offline
//              state, commit-ordered, iterating rounds until the remaining
//              tail drops below a threshold.
//   flip     — under a bounded-wait quiesce barrier (timeout + jittered
//              backoff retries), apply the final tail, log every built row
//              through a system transaction, seal with kViewBuildCommit,
//              and register the view live.
//
// The WAL markers make the build recoverable: a start marker with a commit
// marker re-registers the view at restart (contents come from redo of the
// flip transaction's records); a start marker without one is an abandoned
// build whose partial state recovery garbage-collects. Degraded-mode entry
// mid-build aborts the build exactly like a crash — the builder polls
// poisoned() at every phase boundary and leaves the catalog record in the
// kAbandoned state.

#include "engine/online_build.h"

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "engine/snapshot.h"
#include "txn/retry.h"

namespace ivdb {

namespace {

// Catch-up rounds are bounded: if writers outpace replay the loop stops
// converging, and the flip barrier's final (quiesced) round absorbs
// whatever tail remains.
constexpr uint64_t kMaxCatchUpRounds = 64;

// Flip barrier: each quiesce attempt waits at most this long for active
// transactions. On timeout the builder reopens the Begin gate, replays
// whatever tail accumulated, and retries after a jittered backoff, so
// writers never stall longer than this per attempt.
constexpr uint64_t kBarrierTimeoutMicros = 50 * 1000;

// Barrier attempts before the build gives up with kBusy (the catalog record
// is then abandoned and GC'd exactly like a crash).
constexpr int kBarrierMaxAttempts = 16;

// Base backoff between barrier attempts (exponential, capped at 16x, ±50%
// jitter; sleeps go through DatabaseOptions::clock).
constexpr uint64_t kBarrierBackoffMicros = 2000;

// Catch-up convergence threshold: once the un-replayed WAL tail behind the
// build cursor is below this many bytes, the builder stops iterating
// catch-up rounds and tries the flip barrier.
constexpr uint64_t kCatchUpThresholdBytes = 64 * 1024;

// Rows the snapshot scan hands the offline maintainer per apply batch.
constexpr size_t kBuildBatchRows = 256;

// Builder pacing: the background build cedes the CPU for this long after
// every scan apply batch and catch-up round, so foreground commits
// are never starved behind a long builder CPU burst (the build is one
// thread, but on small machines an unpaced scan of a large table
// monopolizes a core and inflates writer tail latency). The flip barrier's
// final quiesced round never paces.
constexpr uint64_t kBuildPaceMicros = 500;

// Framing overhead estimate per record for the catch-up lag gauge
// (length + CRC + fixed fields; payload sizes are added exactly).
constexpr uint64_t kRecordOverheadBytes = 32;

uint64_t EstimateRecordBytes(const LogRecord& rec) {
  return kRecordOverheadBytes + rec.key.size() + rec.before.size() +
         rec.after.size() + 16 * rec.deltas.size();
}

}  // namespace

// Build-lifetime context threaded through the phases. The offline state and
// the per-transaction pending map are private to the builder thread; only
// the catalog record and the metrics are externally visible.
struct Database::OnlineBuildCtx {
  ViewDefinition def;
  ObjectId id = kInvalidObjectId;
  const TableInfo* fact = nullptr;
  std::optional<Schema> dim_schema;
  // Offline-only maintainer instance: ApplyBatchOffline touches no locks,
  // no WAL, and no version store.
  std::unique_ptr<ViewMaintainer> maintainer;

  TransactionManager::CheckpointCapture cap;
  bool reader_released = false;
  // What the snapshot scan holds: the capture's WAL high-water mark and
  // the transactions in flight (unflipped) at capture.
  ImageHorizon horizon;

  // Next LSN the catch-up cursor reads. Starts at the capture's
  // redo_start_lsn so transactions straddling the capture point replay
  // from their begin floor.
  Lsn replay_lsn = kInvalidLsn;
  Lsn start_marker_lsn = kInvalidLsn;

  // The view being built: key → stored row (ghosts included).
  std::map<std::string, Row> state;
  // Data records accumulated per transaction, applied at its kCommit (in
  // commit-LSN order — the 2PL serialization order) and dropped at a
  // commit-less kEnd. Persists across catch-up rounds: a transaction may
  // log in one round and commit in a later one.
  std::map<TxnId, std::vector<DeferredChange>> pending;

  uint64_t tail_bytes = 0;  // estimated bytes applied by the last round
  uint64_t rounds = 0;
};

// ---------------------------------------------------------------------------
// Phase 2: snapshot scan
// ---------------------------------------------------------------------------

Status Database::OnlineBuildScan(OnlineBuildCtx* ctx) {
  BTree* tree = GetIndex(ctx->fact->id);
  if (tree == nullptr) {
    return Status::Corruption("fact table index missing for online build");
  }
  // Every row as of capture_ts (the build's reader pins the version-store
  // GC horizon there). The snapshot scan holds the tree latch one short
  // chunk at a time, so writers keep committing; each batch of rows is
  // applied to the offline state and then paced.
  std::vector<DeferredChange> batch;
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    Status s = ctx->maintainer->ApplyBatchOffline(batch, &ctx->state);
    batch.clear();
    clock_->SleepMicros(kBuildPaceMicros);
    return s;
  };
  IVDB_RETURN_NOT_OK(versions_.SnapshotScan(
      ctx->fact->id, tree, "", nullptr, ctx->cap.capture_ts,
      [&](const Slice&, const Slice& value,
          const std::vector<std::vector<ColumnDelta>>& subtract) {
        DeferredChange change;
        change.table_id = ctx->fact->id;
        change.op = DeferredChange::Op::kInsert;
        IVDB_RETURN_NOT_OK(DecodeVisibleRow(value, subtract, &change.new_row));
        batch.push_back(std::move(change));
        return batch.size() >= kBuildBatchRows ? flush_batch() : Status::OK();
      }));
  return flush_batch();
}

// ---------------------------------------------------------------------------
// Phase 3: WAL-tail catch-up
// ---------------------------------------------------------------------------

Status Database::OnlineBuildCatchUpRound(OnlineBuildCtx* ctx) {
  std::vector<LogRecord> tail;
  IVDB_RETURN_NOT_OK(log_->ReadTail(ctx->replay_lsn, &tail));

  uint64_t bytes = 0;
  Lsn max_seen = ctx->replay_lsn == kInvalidLsn ? 0 : ctx->replay_lsn - 1;
  for (const LogRecord& rec : tail) {
    max_seen = std::max(max_seen, rec.lsn);
    bytes += EstimateRecordBytes(rec);
    // The snapshot scan already holds what the horizon covers.
    if (ctx->horizon.Covers(rec)) continue;
    switch (rec.type) {
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kUpdate:
      case LogRecordType::kClr: {
        const LogRecordType op =
            rec.type == LogRecordType::kClr ? rec.clr_op : rec.type;
        if (rec.object_id != ctx->fact->id) break;
        DeferredChange change;
        change.table_id = ctx->fact->id;
        switch (op) {
          case LogRecordType::kInsert:
            change.op = DeferredChange::Op::kInsert;
            IVDB_RETURN_NOT_OK(DecodeRow(rec.after, &change.new_row));
            break;
          case LogRecordType::kDelete:
            change.op = DeferredChange::Op::kDelete;
            IVDB_RETURN_NOT_OK(DecodeRow(rec.before, &change.old_row));
            break;
          case LogRecordType::kUpdate:
            change.op = DeferredChange::Op::kUpdate;
            IVDB_RETURN_NOT_OK(DecodeRow(rec.before, &change.old_row));
            IVDB_RETURN_NOT_OK(DecodeRow(rec.after, &change.new_row));
            break;
          default:
            // Increments never target base tables.
            return Status::Corruption(
                "online build: unexpected fact-table record type");
        }
        ctx->pending[rec.txn_id].push_back(std::move(change));
        break;
      }
      case LogRecordType::kCommit: {
        auto it = ctx->pending.find(rec.txn_id);
        if (it != ctx->pending.end()) {
          IVDB_RETURN_NOT_OK(
              ctx->maintainer->ApplyBatchOffline(it->second, &ctx->state));
          ctx->pending.erase(it);
        }
        break;
      }
      case LogRecordType::kEnd:
        // Commit-less end: a rolled-back loser. Its originals and CLRs
        // cancel, so dropping the batch unapplied is exact.
        ctx->pending.erase(rec.txn_id);
        break;
      default:
        break;
    }
  }
  ctx->replay_lsn = max_seen + 1;
  ctx->tail_bytes = bytes;
  ctx->rounds++;
  build_catchup_rounds_->Add();
  build_lag_gauge_->Set(static_cast<int64_t>(bytes));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Phase 4: barrier + flip
// ---------------------------------------------------------------------------

Status Database::OnlineBuildFlip(OnlineBuildCtx* ctx) {
  Random rng(UniqueJitterSeed());
  RunTransactionOptions backoff_options;
  backoff_options.backoff_base_micros = kBarrierBackoffMicros;
  backoff_options.backoff_cap_micros = kBarrierBackoffMicros * 16;

  for (int attempt = 1; attempt <= kBarrierMaxAttempts; attempt++) {
    if (log_->poisoned()) {
      return Status::Unavailable("engine degraded during online view build");
    }
    catalog_.UpdateViewBuild(ctx->id, ViewBuildState::Phase::kBarrier,
                             ctx->tail_bytes);
    const uint64_t barrier_start = clock_->NowMicros();
    {
      // checkpoint_mu_ held across the whole flip: a fuzzy checkpoint
      // interleaving here could publish an image with the view registered
      // but its logged contents above the image's replay horizon (or the
      // reverse) — either way a stale view after restart.
      MutexLock serial(&checkpoint_mu_);
      if (txns_->TryQuiesce(kBarrierTimeoutMicros)) {
        const uint64_t quiesced_at = clock_->NowMicros();
        build_phase_barrier_->Record(quiesced_at - barrier_start);
        Status s = [&]() -> Status {
          // Everything appended is durable before the final tail read, so
          // the read sees every record of every (now finished) transaction.
          IVDB_RETURN_NOT_OK(log_->Flush(log_->last_lsn()));
          IVDB_RETURN_NOT_OK(OnlineBuildCatchUpRound(ctx));
          if (!ctx->pending.empty()) {
            return Status::Corruption(
                "online build: unresolved transactions after quiesce");
          }
          // Log the built contents through a system transaction, then seal
          // with the commit marker. Restart redo reconstructs the view
          // index from exactly these records.
          BTree* tree = CreateIndex(ctx->id);
          Transaction* sys = txns_->BeginSystem();
          Status apply;
          for (const auto& [key, row] : ctx->state) {
            std::string value = EncodeRow(row);
            apply = txns_->LogInsert(sys, ctx->id, key, value);
            if (!apply.ok()) break;
            tree->Put(key, value);
          }
          if (apply.ok()) {
            apply = txns_->Commit(sys);
          } else {
            // Cleanup of an already-failed path; CLR application restores
            // the scratch tree to empty.
            (void)txns_->Abort(sys);
          }
          txns_->Forget(sys);
          IVDB_RETURN_NOT_OK(apply);

          LogRecord commit_marker;
          commit_marker.type = LogRecordType::kViewBuildCommit;
          commit_marker.system_txn = true;
          commit_marker.object_id = ctx->id;
          IVDB_RETURN_NOT_OK(log_->Append(&commit_marker));
          IVDB_RETURN_NOT_OK(log_->Flush(commit_marker.lsn));

          catalog_.UpdateViewBuild(ctx->id, ViewBuildState::Phase::kCommitted,
                                   0);
          IVDB_RETURN_NOT_OK(
              RegisterView(ctx->id, ctx->def, /*populate=*/false));
          catalog_.RemoveViewBuild(ctx->id);
          const uint64_t flip_end = clock_->NowMicros();
          build_phase_flip_->Record(flip_end - quiesced_at);
          flight_.Emit(
              obs::FlightEventType::kViewBuildPhase, quiesced_at,
              flip_end - quiesced_at, ctx->id,
              static_cast<uint64_t>(ViewBuildState::Phase::kCommitted));
          return Status::OK();
        }();
        txns_->EndQuiesce();
        return s;
      }
    }
    // Barrier timed out: the gate reopened inside TryQuiesce, writers flow
    // again. Catch up on the tail that accumulated, back off with jitter,
    // retry.
    build_barrier_timeouts_->Add();
    build_phase_barrier_->Record(clock_->NowMicros() - barrier_start);
    IVDB_RETURN_NOT_OK(OnlineBuildCatchUpRound(ctx));
    clock_->SleepMicros(RetryBackoffMicros(backoff_options, attempt, &rng));
  }
  return Status::Busy(
      "online view build: active transactions never drained within " +
      std::to_string(kBarrierMaxAttempts) +
      " barrier attempts");
}

// ---------------------------------------------------------------------------
// Abandonment (degraded-mode entry, barrier exhaustion, internal errors)
// ---------------------------------------------------------------------------

void Database::AbandonOnlineBuild(OnlineBuildCtx* ctx, const Status& cause) {
  std::fprintf(stderr, "ivdb: online build of view '%s' abandoned: %s\n",
               ctx->def.name.c_str(), cause.ToString().c_str());
  // The record stays behind in the kAbandoned state — visible to ivdb_dump
  // and persisted by checkpoints — until restart recovery garbage-collects
  // it together with the durable start marker's partial effects.
  catalog_.UpdateViewBuild(ctx->id, ViewBuildState::Phase::kAbandoned,
                           ctx->tail_bytes);
  // A failed flip may have left a scratch index behind; nothing references
  // it (the view was never registered), so drop it rather than carry dead
  // weight until restart.
  DropIndex(ctx->id);
  build_abandoned_->Add();
  if (!ctx->reader_released) {
    txns_->ReleaseCheckpointReader(ctx->cap.reader);
    ctx->reader_released = true;
  }
  log_->SetRetainLsnFloor(0);
  build_lag_gauge_->Set(0);
  flight_.EmitInstant(obs::FlightEventType::kViewBuildPhase,
                      flight_.NowMicros(), ctx->id,
                      static_cast<uint64_t>(ViewBuildState::Phase::kAbandoned));
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

Status Database::RunOnlineBuild(ViewDefinition def, const ViewInfo** out) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  if (options_.dir.empty()) {
    return Status::InvalidArgument(
        "online view build needs a durable database (the WAL tail is the "
        "catch-up source); use CreateIndexedView for in-memory databases");
  }
  if (catalog_.GetTable(def.name).ok()) {
    return Status::AlreadyExists("a table named '" + def.name + "' exists");
  }
  {
    ReaderMutexLock guard(&views_mu_);
    if (views_.count(def.name) != 0) {
      return Status::AlreadyExists("view '" + def.name + "' exists");
    }
  }

  auto ctx = std::make_unique<OnlineBuildCtx>();
  ctx->def = def;
  IVDB_ASSIGN_OR_RETURN(ctx->fact, catalog_.GetTable(def.fact_table));
  if (def.join.has_value()) {
    IVDB_ASSIGN_OR_RETURN(const TableInfo* dim,
                          catalog_.GetTable(def.join->dimension_table));
    if (dim->key_columns.size() != 1) {
      return Status::NotSupported(
          "joined dimension table must have a single-column primary key");
    }
    if (def.join->fact_column < 0 ||
        static_cast<size_t>(def.join->fact_column) >=
            ctx->fact->schema.num_columns()) {
      return Status::InvalidArgument("join fact column out of range");
    }
    ctx->dim_schema = dim->schema;
  }
  Schema joined = JoinedSchema(
      ctx->fact->schema,
      ctx->dim_schema.has_value() ? &*ctx->dim_schema : nullptr);
  IVDB_RETURN_NOT_OK(def.Validate(joined));

  ctx->id = catalog_.AllocateId();
  ViewMaintainer::Options maintainer_options;
  maintainer_options.use_escrow = options_.use_escrow_locks;
  maintainer_options.metrics = &registry_;
  maintainer_options.clock = clock_;
  ctx->maintainer = std::make_unique<ViewMaintainer>(
      def, ctx->id, ctx->fact->schema, ctx->dim_schema, this, &locks_,
      txns_.get(), &versions_, maintainer_options);

  view_build_active_.store(true, std::memory_order_release);
  build_active_gauge_->Set(1);
  auto finish = [&](Status s) {
    view_build_active_.store(false, std::memory_order_release);
    build_active_gauge_->Set(0);
    return s;
  };

  // --- Phase 1: capture + durable start marker. ---
  //
  // The retention floor goes up BEFORE the capture (at 1, pinning
  // everything) so a racing checkpoint cannot retire segments between the
  // capture and the floor landing at its real value; it drops to the
  // capture's replay floor right after.
  const uint64_t capture_start = clock_->NowMicros();
  log_->SetRetainLsnFloor(1);
  ctx->cap = txns_->CaptureCheckpoint();
  log_->SetRetainLsnFloor(ctx->cap.redo_start_lsn);
  ctx->replay_lsn = ctx->cap.redo_start_lsn;
  ctx->horizon.lsn = ctx->cap.checkpoint_lsn;
  ctx->horizon.in_flight.insert(ctx->cap.active_txns.begin(),
                                ctx->cap.active_txns.end());

  LogRecord start;
  start.type = LogRecordType::kViewBuildStart;
  start.system_txn = true;
  start.object_id = ctx->id;
  start.key = def.name;
  def.EncodeTo(&start.after);
  start.timestamp = ctx->cap.capture_ts;
  start.undo_next_lsn = ctx->cap.redo_start_lsn;
  Status s = log_->Append(&start);
  if (s.ok()) s = log_->Flush(start.lsn);
  if (!s.ok()) {
    // Nothing durable: no marker, no catalog record — unwind the pins and
    // fail the build without an abandonment (there is nothing to GC).
    txns_->ReleaseCheckpointReader(ctx->cap.reader);
    log_->SetRetainLsnFloor(0);
    return finish(s);
  }
  ctx->start_marker_lsn = start.lsn;

  ViewBuildState record;
  record.id = ctx->id;
  record.name = def.name;
  record.encoded_def = start.after;
  record.start_lsn = start.lsn;
  record.replay_lsn = ctx->cap.redo_start_lsn;
  record.start_ts = ctx->cap.capture_ts;
  record.phase = ViewBuildState::Phase::kScan;
  s = catalog_.RegisterViewBuild(record);
  if (!s.ok()) {
    txns_->ReleaseCheckpointReader(ctx->cap.reader);
    log_->SetRetainLsnFloor(0);
    return finish(s);
  }
  build_started_->Add();
  flight_.Emit(obs::FlightEventType::kViewBuildPhase, capture_start,
               clock_->NowMicros() - capture_start, ctx->id,
               static_cast<uint64_t>(ViewBuildState::Phase::kScan));

  auto poisoned = [&]() -> Status {
    if (log_->poisoned()) {
      return Status::Unavailable(
          "engine degraded during online view build; the build aborts like "
          "a crash and recovery GCs its partial state");
    }
    return Status::OK();
  };

  // --- Phase 2: snapshot scan (commits keep flowing). ---
  const uint64_t scan_start = clock_->NowMicros();
  s = OnlineBuildScan(ctx.get());
  // The reader's only job was pinning version-store GC at capture_ts for
  // the scan; release as soon as the scan is done, whatever its outcome.
  txns_->ReleaseCheckpointReader(ctx->cap.reader);
  ctx->reader_released = true;
  if (s.ok()) s = poisoned();
  if (!s.ok()) {
    AbandonOnlineBuild(ctx.get(), s);
    return finish(s);
  }
  build_phase_scan_->Record(clock_->NowMicros() - scan_start);

  // --- Phase 3: catch-up rounds until the tail is short. ---
  const uint64_t catchup_start = clock_->NowMicros();
  for (uint64_t round = 0; round < kMaxCatchUpRounds; round++) {
    s = OnlineBuildCatchUpRound(ctx.get());
    if (s.ok()) s = poisoned();
    if (!s.ok()) break;
    catalog_.UpdateViewBuild(ctx->id, ViewBuildState::Phase::kCatchUp,
                             ctx->tail_bytes);
    if (ctx->tail_bytes <= kCatchUpThresholdBytes) break;
    // Pace between rounds so back-to-back tail decodes can't monopolize a
    // core against foreground commits.
    clock_->SleepMicros(kBuildPaceMicros);
  }
  if (!s.ok()) {
    AbandonOnlineBuild(ctx.get(), s);
    return finish(s);
  }
  const uint64_t catchup_end = clock_->NowMicros();
  build_phase_catchup_->Record(catchup_end - catchup_start);
  flight_.Emit(obs::FlightEventType::kViewBuildPhase, catchup_start,
               catchup_end - catchup_start, ctx->id,
               static_cast<uint64_t>(ViewBuildState::Phase::kCatchUp));

  // --- Phase 4: barrier + flip. ---
  s = OnlineBuildFlip(ctx.get());
  if (!s.ok()) {
    AbandonOnlineBuild(ctx.get(), s);
    return finish(s);
  }
  log_->SetRetainLsnFloor(0);
  build_lag_gauge_->Set(0);
  build_committed_->Add();

  if (out != nullptr) {
    ReaderMutexLock guard(&views_mu_);
    for (const auto& [name, entry] : views_) {
      if (entry->info.id == ctx->id) {
        *out = &entry->info;
        return finish(Status::OK());
      }
    }
    return finish(Status::Corruption("view vanished after online build"));
  }
  return finish(Status::OK());
}

Result<const ViewInfo*> Database::CreateIndexedViewOnline(
    ViewDefinition definition) {
  const ViewInfo* info = nullptr;
  IVDB_RETURN_NOT_OK(RunOnlineBuild(std::move(definition), &info));
  return info;
}

Status Database::StartViewBuildAsync(ViewDefinition definition) {
  bool expected = false;
  if (!build_running_.compare_exchange_strong(expected, true)) {
    return Status::Busy("a background view build is already running");
  }
  // A previous finished build's thread may still need joining.
  if (build_thread_.joinable()) build_thread_.join();
  build_thread_ = std::thread([this, def = std::move(definition)]() mutable {
#ifdef __linux__
    // Background maintenance runs at the lowest nice level: on a machine
    // with fewer cores than writer threads, a normal-priority builder gets
    // scheduler timeslices at foreground commits' expense. Lock holds stay
    // safe — a writer blocking on a builder-held latch leaves the builder
    // the only runnable thread, so it releases promptly. Lowering own
    // priority never needs privileges; failure is harmless, so the return
    // value is deliberately ignored.
    (void)setpriority(PRIO_PROCESS,
                      static_cast<id_t>(syscall(SYS_gettid)), 19);
#endif
    flight_.SetThreadName("view-builder");
    build_result_ = RunOnlineBuild(std::move(def), nullptr);
    build_running_.store(false, std::memory_order_release);
  });
  return Status::OK();
}

Status Database::WaitForViewBuild() {
  if (build_thread_.joinable()) build_thread_.join();
  return build_result_;
}

}  // namespace ivdb
