#include "txn/txn_manager.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/invariant.h"
#include "common/lock_order.h"
#include "common/logging.h"

namespace ivdb {

TxnManagerMetrics::TxnManagerMetrics(obs::MetricsRegistry* registry)
    : begun(registry->GetCounter("ivdb_txn_begun_total")),
      committed(registry->GetCounter("ivdb_txn_committed_total")),
      aborted(registry->GetCounter("ivdb_txn_aborted_total")),
      system_committed(
          registry->GetCounter("ivdb_txn_system_committed_total")),
      admission_rejected(
          registry->GetCounter("ivdb_txn_admission_rejected_total")),
      watchdog_aborted(
          registry->GetCounter("ivdb_txn_watchdog_aborted_total")),
      active(registry->GetGauge("ivdb_txn_active")),
      commit_latency(registry->GetHistogram("ivdb_txn_commit_micros")),
      stage_staging_wait(registry->GetHistogram(obs::WithLabel(
          "ivdb_commit_stage_micros", "stage", "staging_wait"))),
      stage_batch_assembly(registry->GetHistogram(obs::WithLabel(
          "ivdb_commit_stage_micros", "stage", "batch_assembly"))),
      stage_fsync(registry->GetHistogram(
          obs::WithLabel("ivdb_commit_stage_micros", "stage", "fsync"))),
      stage_flip_wait(registry->GetHistogram(obs::WithLabel(
          "ivdb_commit_stage_micros", "stage", "flip_wait"))) {}

TransactionManager::TransactionManager(LockManager* lock_manager,
                                       LogManager* log_manager,
                                       VersionStore* version_store,
                                       LogApplier* applier, Options options)
    : lock_manager_(lock_manager),
      log_manager_(log_manager),
      version_store_(version_store),
      applier_(applier),
      options_(options),
      owned_registry_(options.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_registry_.get()),
      wall_clock_(options.clock != nullptr ? options.clock
                                           : Clock::Default()),
      flight_(options.flight) {}

// Publishes the descriptor. Caller holds active_mu_.
Transaction* TransactionManager::Register(std::unique_ptr<Transaction> txn) {
  txn->set_begin_wall_micros(wall_clock_->NowMicros());
  // Pin the snapshot in the reader epoch before the descriptor is handed
  // out: from here until FinishTxn's Leave, no version this begin_ts can
  // resolve is ever physically reclaimed (active_mu_ 10 -> slot 12).
  txn->set_epoch_slot(epochs_.Enter(txn->begin_ts()));
  Transaction* out = txn.get();
  if (!out->is_system()) user_active_++;
  active_[out->id()] = std::move(txn);
  metrics_.begun->Add();
  metrics_.active->Add(1);
  return out;
}

void TransactionManager::EmitBegin(const Transaction* txn) {
  if (flight_ != nullptr) {
    flight_->EmitInstant(obs::FlightEventType::kTxnBegin,
                         txn->begin_wall_micros(), txn->id(),
                         txn->begin_ts());
  }
}

Transaction* TransactionManager::Begin(ReadMode read_mode, bool gated) {
  UniqueMutexLock active_guard(&active_mu_);
  if (!gated || options_.max_active_txns == 0) {
    // Ungated (or gate disabled): wait only on the quiesce gate. The
    // unchecked Database::Begin() takes this path so it keeps its original
    // never-null contract — callers written before admission control exist
    // and do not null-check.
    active_cv_.Wait(&active_guard, [this] { return quiescers_ == 0; });
  } else {
    // Admission gate: queue for a slot with a deadline, so overload turns
    // into bounded waiting plus kBusy instead of an unbounded pile-up in
    // the lock table.
    auto admissible = [this] {
      return quiescers_ == 0 && user_active_ < options_.max_active_txns;
    };
    if (!active_cv_.WaitFor(
            &active_guard,
            std::chrono::microseconds(options_.admission_timeout_micros),
            admissible)) {
      metrics_.admission_rejected->Add();
      return nullptr;
    }
  }
  TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free snapshot draw from this thread's EpochClock slot: strictly
  // above every *published* commit timestamp and strictly below any commit
  // epoch still being stamped (see EpochClock) — so Begin never contends
  // with the commit-visibility path.
  const uint64_t begin_ts = clock_.BeginTs();
  auto txn = std::make_unique<Transaction>(id, begin_ts, read_mode,
                                           /*system=*/false);
  // Every record this transaction will ever log gets an LSN above the
  // current high-water mark (it has not written yet); checkpoints use this
  // floor to bound their redo horizon.
  txn->set_begin_floor_lsn(log_manager_->last_lsn());
  Transaction* out = Register(std::move(txn));
  active_guard.Unlock();
  EmitBegin(out);
  return out;
}

Transaction* TransactionManager::BeginSystem() {
  // System transactions bypass the quiesce gate deliberately: they are
  // spawned by in-flight user transactions, and making them wait on a
  // checkpoint that itself waits for those user transactions would deadlock.
  UniqueMutexLock active_guard(&active_mu_);
  TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t begin_ts = clock_.BeginTs();
  auto txn = std::make_unique<Transaction>(id, begin_ts, ReadMode::kLocking,
                                           /*system=*/true);
  txn->set_begin_floor_lsn(log_manager_->last_lsn());
  Transaction* out = Register(std::move(txn));
  active_guard.Unlock();
  EmitBegin(out);
  return out;
}

Status TransactionManager::AppendBeginIfNeeded(Transaction* txn) {
  if (txn->has_writes()) return Status::OK();
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = txn->id();
  rec.system_txn = txn->is_system();
  rec.prev_lsn = kInvalidLsn;
  IVDB_RETURN_NOT_OK(log_manager_->Append(&rec));
  txn->set_last_lsn(rec.lsn);
  return Status::OK();
}

Status TransactionManager::AppendDataRecord(Transaction* txn, LogRecord rec) {
  IVDB_CHECK(txn->state() == TxnState::kActive);
  IVDB_RETURN_NOT_OK(AppendBeginIfNeeded(txn));
  rec.txn_id = txn->id();
  rec.system_txn = txn->is_system();
  rec.prev_lsn = txn->last_lsn();
  IVDB_RETURN_NOT_OK(log_manager_->Append(&rec));
  txn->set_last_lsn(rec.lsn);
  txn->undo_records().push_back(std::move(rec));
  return Status::OK();
}

Status TransactionManager::LogInsert(Transaction* txn, ObjectId object_id,
                                     std::string key, std::string value) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.object_id = object_id;
  rec.key = std::move(key);
  rec.after = std::move(value);
  return AppendDataRecord(txn, std::move(rec));
}

Status TransactionManager::LogDelete(Transaction* txn, ObjectId object_id,
                                     std::string key, std::string before) {
  LogRecord rec;
  rec.type = LogRecordType::kDelete;
  rec.object_id = object_id;
  rec.key = std::move(key);
  rec.before = std::move(before);
  return AppendDataRecord(txn, std::move(rec));
}

Status TransactionManager::LogUpdate(Transaction* txn, ObjectId object_id,
                                     std::string key, std::string before,
                                     std::string after) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.object_id = object_id;
  rec.key = std::move(key);
  rec.before = std::move(before);
  rec.after = std::move(after);
  return AppendDataRecord(txn, std::move(rec));
}

Status TransactionManager::LogIncrement(Transaction* txn, ObjectId object_id,
                                        std::string key,
                                        std::vector<ColumnDelta> deltas) {
  LogRecord rec;
  rec.type = LogRecordType::kIncrement;
  rec.object_id = object_id;
  rec.key = std::move(key);
  rec.deltas = std::move(deltas);
  return AppendDataRecord(txn, std::move(rec));
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("commit of non-active transaction");
  }
  if (!txn->has_writes()) {
    txn->set_commit_ts(txn->begin_ts());
    FinishTxn(txn, TxnState::kCommitted);
    metrics_.committed->Add();
    return Status::OK();
  }
  const uint64_t commit_start = wall_clock_->NowMicros();

  LogRecord commit;
  {
    MutexLock vis_guard(&visibility_mu_);
    const uint64_t durable_ts = clock_.CommitTs();
    IVDB_INVARIANT(durable_ts > txn->begin_ts(),
                   "commit timestamp must follow the begin timestamp");
    // The transaction's public commit_ts is the LOGGED timestamp: recovery
    // advances the clock past the log's high-water mark, so durable
    // timestamps stay strictly monotone across restarts. The flip below
    // stamps the version store with a later, unlogged timestamp that never
    // leaves this process (visibility state is rebuilt empty at restart).
    txn->set_commit_ts(durable_ts);
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn->id();
    commit.system_txn = txn->is_system();
    commit.prev_lsn = txn->last_lsn();
    commit.timestamp = durable_ts;
    IVDB_RETURN_NOT_OK(log_manager_->Append(&commit));
    txn->set_last_lsn(commit.lsn);
    // Enter the flip queue in COMMIT-LSN order (appends are serialized by
    // visibility_mu_). From here on, once the durable watermark covers our
    // LSN, ANY committer running the step-3 sequencer may flip us.
    if (!txn->is_system()) flip_queue_.push_back({commit.lsn, txn});
  }
  // Stage boundary: the COMMIT record is staged (LSN drawn, shard write
  // done). Everything since commit_start is "staging_wait"; the flush wait
  // below splits into "batch_assembly" + "fsync"; the remainder of the
  // commit is "flip_wait".
  const uint64_t staged_at = wall_clock_->NowMicros();
  uint64_t flushed_at = staged_at;
  uint64_t fsync_micros = 0;

  if (!txn->is_system()) {
    // Group commit: blocks until the COMMIT record is on stable storage.
    // System transactions skip the forced flush — log order alone
    // guarantees their records become durable before any dependent user
    // commit is acknowledged. On flush failure the WAL poisons itself and
    // we return with the transaction still active and all of its versions
    // still pending, so the engine can roll it back logically — no other
    // transaction in this process ever observes the unacknowledged write
    // (restart recovery may still find the COMMIT record durable; see
    // docs/ROBUSTNESS.md §2). The queue entry must be withdrawn under the
    // same mutex, or a bystander sequencer could flip a rolled-back batch
    // member if the watermark ever moved again.
    Status flush_status = log_manager_->Flush(commit.lsn);
    if (!flush_status.ok()) {
      MutexLock vis_guard(&visibility_mu_);
      for (auto it = flip_queue_.begin(); it != flip_queue_.end(); ++it) {
        if (it->txn == txn) {
          flip_queue_.erase(it);
          break;
        }
      }
      return flush_status;
    }
    flushed_at = wall_clock_->NowMicros();
    // The writer publishes the measured duration of the batch sync that
    // advanced the durable watermark; clamp it to this commit's own flush
    // wait (a commit that joined mid-batch waited for less than the whole
    // sync). The clamp keeps the four stages an exact partition of
    // commit_micros.
    fsync_micros = std::min(log_manager_->last_batch_fsync_micros(),
                            flushed_at - staged_at);
  }

  // Durability point passed: flip versions to committed, strictly in COMMIT
  // LSN order (see the class comment's step 3). Each flip stamps a FRESH
  // timestamp reserved at flip time, not the one logged with the COMMIT
  // record. Begin timestamps issued during the flush window fall strictly
  // between the two draws, so for every snapshot the flip is invisible:
  //   begin_ts < visible_ts  =>  pre-image before the flip (pending entry)
  //                              and after it (superseded_ts > begin_ts);
  //   begin_ts > visible_ts  =>  only possible after the flip completes,
  //                              so the new value, repeatably.
  // Stamping with the logged timestamp instead would make the new value
  // visible to flush-window snapshots the moment the flip lands — a
  // non-repeatable read within one snapshot transaction.
  {
    MutexLock vis_guard(&visibility_mu_);
    if (txn->is_system()) {
      // System transactions bypass the queue (class comment): reserve,
      // stamp, publish — atomically w.r.t. lock-free snapshot draws.
      const uint64_t visible_ts = clock_.ReserveCommitTs();
      version_store_->Commit(txn->id(), visible_ts);
      txn->set_flipped();
      clock_.PublishCommitTs(visible_ts);
    } else {
      FlipCommittedLocked(log_manager_->flushed_lsn());
      // Our own COMMIT LSN is durable (the flush above succeeded), so the
      // sequencer pass we just ran — or a concurrent committer's — must
      // have reached and flipped us.
      IVDB_INVARIANT(txn->flipped(),
                     "flip sequencer must cover the flushed prefix");
    }
  }

  LogRecord end;
  end.type = LogRecordType::kEnd;
  end.txn_id = txn->id();
  end.system_txn = txn->is_system();
  end.prev_lsn = txn->last_lsn();
  if (!log_manager_->Append(&end).ok()) {
    // Only reachable when a concurrent committer poisoned the WAL between
    // our successful flush and this append. Our COMMIT record is durable
    // and the versions are flipped: the transaction IS committed, and
    // recovery tolerates a missing END, so this failure is not surfaced.
  }

  FinishTxn(txn, TxnState::kCommitted);
  const uint64_t commit_end = wall_clock_->NowMicros();
  const uint64_t commit_micros = commit_end - commit_start;
  if (txn->is_system()) {
    metrics_.system_committed->Add();
  } else {
    // Only user transactions with writes pay the commit path; this is the
    // latency distribution the benches report percentiles of. The four
    // stage samples below partition commit_micros exactly (same clock
    // reads), so per-stage means reconcile with the end-to-end mean.
    const uint64_t staging_wait = staged_at - commit_start;
    const uint64_t batch_assembly = (flushed_at - staged_at) - fsync_micros;
    const uint64_t flip_wait = commit_end - flushed_at;
    metrics_.commit_latency->Record(commit_micros);
    metrics_.stage_staging_wait->Record(staging_wait);
    metrics_.stage_batch_assembly->Record(batch_assembly);
    metrics_.stage_fsync->Record(fsync_micros);
    metrics_.stage_flip_wait->Record(flip_wait);
    metrics_.committed->Add();
    if (flight_ != nullptr) {
      flight_->Emit(obs::FlightEventType::kStageStagingWait, commit_start,
                    staging_wait, txn->id(), commit.lsn);
      flight_->Emit(obs::FlightEventType::kStageBatchAssembly, staged_at,
                    batch_assembly, txn->id(), commit.lsn);
      flight_->Emit(obs::FlightEventType::kStageFsync,
                    staged_at + batch_assembly, fsync_micros, txn->id(),
                    commit.lsn);
      flight_->Emit(obs::FlightEventType::kStageFlipWait, flushed_at,
                    flip_wait, txn->id(), commit.lsn);
      flight_->Emit(obs::FlightEventType::kCommit, commit_start,
                    commit_micros, txn->id(), commit.lsn);
    }
  }
  return Status::OK();
}

void TransactionManager::FlipCommittedLocked(Lsn durable_upto) {
  while (!flip_queue_.empty() && flip_queue_.front().lsn <= durable_upto) {
    Transaction* t = flip_queue_.front().txn;
    flip_queue_.pop_front();
    // Reserve-stamp-publish: a lock-free Begin racing this flip reads the
    // PREVIOUS published epoch, so its snapshot is strictly below
    // visible_ts and never observes the half-stamped chains.
    const uint64_t visible_ts = clock_.ReserveCommitTs();
    version_store_->Commit(t->id(), visible_ts);
    // From here on a checkpoint capture sees this transaction's effects in
    // its as-of-capture_ts image and must not replay its records.
    t->set_flipped();
    clock_.PublishCommitTs(visible_ts);
  }
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("abort of non-active transaction");
  }
  const uint64_t abort_start = wall_clock_->NowMicros();
  const uint64_t undone = txn->undo_records().size();
  if (txn->has_writes()) {
    // When the WAL is poisoned (engine degraded), CLR appends fail with
    // kUnavailable. The rollback degrades to logical undo in memory only:
    // the durable log has no COMMIT for this transaction, so restart
    // recovery will roll it back again from the on-disk record chain, and
    // what matters now is that the in-memory state readers keep serving
    // reflects only acknowledged commits.
    bool wal_alive = true;
    LogRecord abort_rec;
    abort_rec.type = LogRecordType::kAbort;
    abort_rec.txn_id = txn->id();
    abort_rec.system_txn = txn->is_system();
    abort_rec.prev_lsn = txn->last_lsn();
    Status append_status = log_manager_->Append(&abort_rec);
    if (append_status.ok()) {
      txn->set_last_lsn(abort_rec.lsn);
    } else if (append_status.IsUnavailable()) {
      wal_alive = false;
    } else {
      return append_status;
    }

    // Undo newest-first, writing a compensation record (CLR) before each
    // physical undo step. Increments are undone *logically* (inverse
    // deltas): other transactions' concurrent increments to the same record
    // are untouched — this is the escrow-recovery core of the paper.
    auto& records = txn->undo_records();
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      LogRecord clr = MakeCompensation(*it);
      if (wal_alive) {
        clr.prev_lsn = txn->last_lsn();
        append_status = log_manager_->Append(&clr);
        if (append_status.ok()) {
          txn->set_last_lsn(clr.lsn);
        } else if (append_status.IsUnavailable()) {
          wal_alive = false;
        } else {
          return append_status;
        }
      }
      IVDB_RETURN_NOT_OK(applier_->ApplyRedo(clr.clr_op, clr));
    }

    version_store_->Abort(txn->id(), clock_.Peek());

    if (wal_alive) {
      LogRecord end;
      end.type = LogRecordType::kEnd;
      end.txn_id = txn->id();
      end.system_txn = txn->is_system();
      end.prev_lsn = txn->last_lsn();
      // A poison race here only loses the optional END record.
      (void)log_manager_->Append(&end);
    }
  } else {
    version_store_->Abort(txn->id(), clock_.Peek());
  }
  FinishTxn(txn, TxnState::kAborted);
  metrics_.aborted->Add();
  if (flight_ != nullptr) {
    flight_->Emit(obs::FlightEventType::kTxnAbort, abort_start,
                  wall_clock_->NowMicros() - abort_start, txn->id(), undone);
  }
  return Status::OK();
}

Status TransactionManager::RollbackToSavepoint(Transaction* txn,
                                               Savepoint savepoint) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("savepoint rollback on finished txn");
  }
  auto& records = txn->undo_records();
  if (savepoint > records.size()) {
    return Status::InvalidArgument("savepoint beyond current undo log");
  }
  // As in Abort(): a poisoned WAL downgrades the partial rollback to
  // logical undo in memory — restart recovery re-derives the same rollback
  // from the durable prefix of the chain.
  bool wal_alive = true;
  while (records.size() > savepoint) {
    LogRecord clr = MakeCompensation(records.back());
    if (wal_alive) {
      clr.prev_lsn = txn->last_lsn();
      Status append_status = log_manager_->Append(&clr);
      if (append_status.ok()) {
        txn->set_last_lsn(clr.lsn);
      } else if (append_status.IsUnavailable()) {
        wal_alive = false;
      } else {
        return append_status;
      }
    }
    IVDB_RETURN_NOT_OK(applier_->ApplyRedo(clr.clr_op, clr));
    // Undone records must not be undone again by a later full abort; the
    // on-disk chain stays correct through the CLR's undo_next_lsn.
    records.pop_back();
  }
  return Status::OK();
}

void TransactionManager::FinishTxn(Transaction* txn, TxnState final_state) {
  lock_manager_->ReleaseAll(txn->id());
  txn->set_state(final_state);
  {
    MutexLock guard(&active_mu_);
    auto it = active_.find(txn->id());
    if (it != active_.end()) {
      finished_[txn->id()] = std::move(it->second);
      active_.erase(it);
      metrics_.active->Add(-1);
      if (!txn->is_system()) user_active_--;
    }
  }
  // Leave the reader epoch only after the descriptor left the active set:
  // the pin may raise the GC horizon the instant it disappears, and this
  // transaction performs no further reads.
  epochs_.Leave(txn->epoch_slot(), txn->begin_ts());
  active_cv_.NotifyAll();
  // Keep the GC horizon (Peek) moving even in read-only workloads: finish
  // of ANY transaction bumps the published epoch past every begin timestamp
  // issued so far. A no-op while a flip is mid-stamp (unpublished reserve),
  // so it can never expose a half-flipped commit to fresh snapshots.
  clock_.BumpIdle();
}

uint64_t TransactionManager::SweepStuckTransactions(
    uint64_t max_lifetime_micros) {
  if (max_lifetime_micros == 0) return 0;
  const uint64_t now = wall_clock_->NowMicros();
  std::vector<TxnId> expired;
  {
    MutexLock guard(&active_mu_);
    for (const auto& [id, txn] : active_) {
      if (txn->is_system()) continue;
      if (now - txn->begin_wall_micros() >= max_lifetime_micros) {
        expired.push_back(id);
      }
    }
  }
  uint64_t reaped = 0;
  for (TxnId id : expired) {
    Transaction* txn = nullptr;
    {
      MutexLock guard(&active_mu_);
      auto it = active_.find(id);
      if (it == active_.end()) continue;  // finished meanwhile
      // Non-blocking probe of the owner latch while active_mu_ pins the
      // descriptor. Success means the owner thread is idle between
      // statements: it cannot start an operation (every engine entry point
      // takes the latch first) or destroy the descriptor until we release
      // it, so the abort below runs with exclusive ownership. Failure
      // means the owner is mid-operation — skip, a later pass will catch
      // it. TryLock is deliberately exempt from the rank-order check (see
      // lock_order.h): a try-probe can never block, so it cannot
      // participate in a deadlock cycle, and an ordered acquisition here
      // would invert the owner-before-active order the entry points
      // establish.
      if (!it->second->owner_mu().TryLock()) continue;
      txn = it->second.get();
    }
    // Holding the owner latch of a transaction found active implies no
    // state transition is in flight; Abort moves it to finished_ and
    // releases its locks, unblocking anything queued behind them.
    if (Abort(txn).ok()) {
      reaped++;
      metrics_.watchdog_aborted->Add();
    }
    txn->owner_mu().Unlock();
  }
  return reaped;
}

uint64_t TransactionManager::OldestActiveTs() const {
  // Striped epoch sweep — no active_mu_. Snapshot the published clock
  // FIRST: a transaction that registers between the Peek and the sweep
  // either lands in the sweep or drew a begin_ts strictly above the peeked
  // value (fresh draws exceed every published epoch), so any reader the
  // sweep misses pins above `fallback`.
  const uint64_t fallback = clock_.Peek();
  const uint64_t pin = epochs_.MinActivePin();
  if (pin == UINT64_MAX) return fallback;
  if (pin <= fallback) return pin;
  // pin > fallback. Visibility is decided purely by the epoch bits (commit
  // timestamps are exact multiples of 2^kEpochShift), so while the swept
  // minimum shares fallback's epoch it is an exact horizon: a racing
  // registrant the sweep missed pins in this epoch or later, and within
  // one epoch every begin_ts sees the same committed state. Only when the
  // swept minimum is from a LATER epoch can a missed registrant still pin
  // fallback's epoch — then fallback is the tightest safe answer.
  if ((pin >> EpochClock::kEpochShift) ==
      (fallback >> EpochClock::kEpochShift)) {
    return pin;
  }
  return fallback;
}

int TransactionManager::ActiveCount() const {
  MutexLock guard(&active_mu_);
  return static_cast<int>(active_.size());
}

void TransactionManager::EndQuiesce() {
  MutexLock guard(&active_mu_);
  IVDB_INVARIANT(quiescers_ > 0, "EndQuiesce without a quiescent section");
  quiescers_--;
  active_cv_.NotifyAll();
}

bool TransactionManager::TryQuiesce(uint64_t timeout_micros) {
  UniqueMutexLock guard(&active_mu_);
  quiescers_++;
  if (active_cv_.WaitFor(&guard, std::chrono::microseconds(timeout_micros),
                         [this] { return active_.empty(); })) {
    return true;  // gate stays closed; caller EndQuiesce()s
  }
  quiescers_--;
  active_cv_.NotifyAll();
  return false;
}

TransactionManager::CheckpointCapture TransactionManager::CaptureCheckpoint() {
  UniqueMutexLock active_guard(&active_mu_);
  CheckpointCapture cap;
  const TxnId reader_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock vis_guard(&visibility_mu_);
    // A fresh published commit epoch: above every flipped commit's
    // visible_ts, below any future one — the exact as-of point for the
    // image builder's snapshot reads.
    cap.capture_ts = clock_.CommitTs();
    cap.checkpoint_lsn = log_manager_->last_lsn();
    cap.redo_start_lsn = cap.checkpoint_lsn + 1;
    // Every unflipped active transaction — whether mid-statement, waiting
    // on its commit flush, or purely a reader — goes into the replay set.
    // Over-inclusion is harmless (a transaction with no records at or
    // below checkpoint_lsn just has nothing extra to replay); exclusion is
    // only safe for flipped transactions, whose effects the image holds.
    for (const auto& [id, txn] : active_) {
      if (txn->flipped()) continue;
      cap.active_txns.push_back(id);
      const Lsn floor = txn->begin_floor_lsn();
      if (floor + 1 < cap.redo_start_lsn) cap.redo_start_lsn = floor + 1;
    }
  }
  // The reader is a system transaction (bypasses the quiesce gate — a
  // quiesced DDL checkpoint captures through this same path) whose begin_ts
  // is the capture timestamp: while it lives, version GC cannot reclaim
  // anything the as-of-capture_ts image build still needs.
  auto reader = std::make_unique<Transaction>(
      reader_id, cap.capture_ts, ReadMode::kSnapshot, /*system=*/true);
  reader->set_begin_floor_lsn(cap.checkpoint_lsn);
  cap.reader = Register(std::move(reader));
  return cap;
}

void TransactionManager::ReleaseCheckpointReader(Transaction* reader) {
  // The reader never writes and holds no locks; retiring it is just
  // dropping it from the active set (unpinning the GC horizon).
  FinishTxn(reader, TxnState::kCommitted);
  Forget(reader);
}

void TransactionManager::Forget(Transaction* txn) {
  MutexLock guard(&active_mu_);
  finished_.erase(txn->id());
}

void TransactionManager::AdvancePast(TxnId max_txn_id, uint64_t max_ts) {
  TxnId cur = next_txn_id_.load(std::memory_order_relaxed);
  while (cur <= max_txn_id &&
         !next_txn_id_.compare_exchange_weak(cur, max_txn_id + 1)) {
  }
  clock_.AdvancePast(max_ts);
}

}  // namespace ivdb
