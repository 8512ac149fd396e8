#include "view/ghost_cleaner.h"

#include <algorithm>

#include "catalog/schema.h"

namespace ivdb {

GhostCleanerMetrics::GhostCleanerMetrics(obs::MetricsRegistry* registry,
                                         const std::string& view_name)
    : passes(registry->GetCounter(
          obs::WithLabel("ivdb_ghost_passes_total", "view", view_name))),
      candidates_seen(registry->GetCounter(obs::WithLabel(
          "ivdb_ghost_candidates_seen_total", "view", view_name))),
      reclaimed(registry->GetCounter(
          obs::WithLabel("ivdb_ghost_reclaimed_total", "view", view_name))),
      skipped_locked(registry->GetCounter(obs::WithLabel(
          "ivdb_ghost_skipped_locked_total", "view", view_name))),
      skipped_revived(registry->GetCounter(obs::WithLabel(
          "ivdb_ghost_skipped_revived_total", "view", view_name))),
      errors(registry->GetCounter(
          obs::WithLabel("ivdb_ghost_errors_total", "view", view_name))) {}

GhostCleaner::GhostCleaner(ObjectId view_id, size_t count_column,
                           IndexResolver* resolver, LockManager* locks,
                           TransactionManager* txns, VersionStore* versions,
                           Options options)
    : view_id_(view_id),
      count_column_(count_column),
      resolver_(resolver),
      locks_(locks),
      txns_(txns),
      versions_(versions),
      owned_registry_(options.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_registry_.get(),
               options.view_name),
      clock_(options.clock != nullptr ? options.clock : Clock::Default()),
      flight_(options.flight),
      lag_gauge_(options.lag_gauge) {}

Status GhostCleaner::RunOnce(uint64_t* reclaimed_out, uint64_t* errors_out) {
  const uint64_t pass_start = clock_->NowMicros();
  metrics_.passes->Add();
  BTree* tree = resolver_->GetIndex(view_id_);
  if (tree == nullptr) return Status::Corruption("view index missing");

  // Collect candidate keys first (a chunked copy; rows decode outside the
  // tree latch), then reclaim each under its own system transaction.
  std::vector<std::string> candidates;
  Row row;
  IVDB_RETURN_NOT_OK(
      tree->ScanChunks("", nullptr, [&](const ScanBuffer& chunk) -> Status {
        for (size_t i = 0; i < chunk.size(); i++) {
          IVDB_RETURN_NOT_OK(DecodeRow(chunk.value(i), &row));
          if (count_column_ < row.size() && !row[count_column_].is_null() &&
              row[count_column_].AsInt64() == 0) {
            candidates.push_back(chunk.key(i).ToString());
          }
        }
        return Status::OK();
      }));
  metrics_.candidates_seen->Add(candidates.size());

  uint64_t reclaimed = 0;
  uint64_t errors = 0;
  Status pass_status;
  for (size_t base = 0; base < candidates.size() && pass_status.ok();
       base += kReclaimBatch) {
    const size_t batch_end =
        std::min(candidates.size(), base + kReclaimBatch);
    // One system transaction deletes the whole batch: one commit record and
    // one WAL flush per kReclaimBatch ghosts instead of per ghost.
    Transaction* sys = txns_->BeginSystem();
    uint64_t batch_deleted = 0;
    for (size_t i = base; i < batch_end; i++) {
      const std::string& key = candidates[i];
      Status lock_status =
          locks_->TryLock(sys->id(), ResourceId::Key(view_id_, key),
                          LockMode::kX);
      if (!lock_status.ok()) {
        // Some transaction still holds E (uncommitted contributions) or is
        // reading the row; leave the ghost for a later pass. A failed
        // TryLock grants nothing, so there is nothing to undo.
        metrics_.skipped_locked->Add();
        continue;
      }
      std::string value;
      bool still_ghost = false;
      if (tree->Get(key, &value)) {
        Row row;
        Status s = DecodeRow(value, &row);
        if (s.ok() && count_column_ < row.size() &&
            row[count_column_].AsInt64() == 0) {
          still_ghost = true;
        }
      }
      if (!still_ghost) {
        // Revived (or gone) before we got the lock; the X lock rides until
        // the batch commit — brief, and only on a just-revived row.
        metrics_.skipped_revived->Add();
        continue;
      }
      // Per-row statement atomicity inside the batch: a failed delete is
      // compensated back to its own savepoint and the batch carries on.
      TransactionManager::Savepoint sp = TransactionManager::GetSavepoint(sys);
      Status s = txns_->LogDelete(sys, view_id_, key, value);
      if (s.ok()) {
        s = versions_->ApplyWithPendingWrite(view_id_, key, value, sys->id(),
                                             [&] {
                                               tree->Delete(key);
                                               return Status::OK();
                                             });
      }
      if (!s.ok()) {
        // A ghost is logically absent either way, so a failed reclamation
        // costs space, not correctness: roll this row back, count it, keep
        // sweeping. Only a degraded engine (kUnavailable is sticky — every
        // further row would fail the same way) or a non-transient error
        // (corruption) stops the pass.
        errors++;
        metrics_.errors->Add();
        (void)txns_->RollbackToSavepoint(sys, sp);
        if (s.IsUnavailable() || (!s.IsTransient() && !s.IsIOError())) {
          pass_status = s;
          break;
        }
        continue;
      }
      batch_deleted++;
    }
    if (!pass_status.ok()) {
      // The pass is stopping early; throw the unfinished batch away.
      (void)txns_->Abort(sys);
      txns_->Forget(sys);
      break;
    }
    // An all-skips batch commits an empty transaction, which just releases
    // whatever recheck locks it picked up.
    Status commit_status = txns_->Commit(sys);
    if (sys->state() == TxnState::kActive) (void)txns_->Abort(sys);
    txns_->Forget(sys);
    if (!commit_status.ok()) {
      // The whole batch failed together (commit is all-or-nothing).
      errors += batch_deleted;
      metrics_.errors->Add(batch_deleted == 0 ? 1 : batch_deleted);
      if (commit_status.IsUnavailable() ||
          (!commit_status.IsTransient() && !commit_status.IsIOError())) {
        pass_status = commit_status;
      }
    } else {
      reclaimed += batch_deleted;
    }
  }
  metrics_.reclaimed->Add(reclaimed);
  const uint64_t pass_end = clock_->NowMicros();
  const uint64_t prev_end =
      last_pass_end_micros_.exchange(pass_end, std::memory_order_acq_rel);
  if (lag_gauge_ != nullptr) {
    // Live pass-to-pass lag; DumpMetrics ages the same gauge when the
    // cleaner goes quiet (see Options::lag_gauge).
    lag_gauge_->Set(
        prev_end == 0 ? 0 : static_cast<int64_t>(pass_end - prev_end));
  }
  if (flight_ != nullptr) {
    flight_->Emit(obs::FlightEventType::kGhostPass, pass_start,
                  pass_end - pass_start, view_id_, reclaimed);
  }
  if (reclaimed_out != nullptr) *reclaimed_out = reclaimed;
  if (errors_out != nullptr) *errors_out = errors;
  return pass_status;
}

}  // namespace ivdb
