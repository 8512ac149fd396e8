#ifndef IVDB_TXN_TRANSACTION_H_
#define IVDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "catalog/schema.h"
#include "wal/log_record.h"

namespace ivdb {

enum class TxnState : uint8_t {
  kActive,
  kCommitted,
  kAborted,
};

// How reads observe data (see DESIGN.md §3.4).
enum class ReadMode : uint8_t {
  kLocking,   // S key locks, held to commit; blocks behind E/X writers
  kSnapshot,  // multiversion read as of begin_ts; never blocks
  kDirty,     // no locks, current physical state (tooling/tests only)
};

// When indexed views are brought up to date relative to the base-table
// change (DESIGN.md §3.3 / experiment E5).
enum class MaintenanceTiming : uint8_t {
  kImmediate,  // inside each base-table operation
  kDeferred,   // batched per transaction, applied at commit
};

// A base-table change buffered by deferred view maintenance.
struct DeferredChange {
  enum class Op : uint8_t { kInsert, kDelete, kUpdate };
  ObjectId table_id = kInvalidObjectId;
  Op op = Op::kInsert;
  Row old_row;  // kDelete/kUpdate
  Row new_row;  // kInsert/kUpdate
};

// Transaction descriptor. Owned by the TransactionManager; used by exactly
// one thread at a time. All mutation goes through the engine/TxnManager —
// fields are exposed for those layers rather than end users.
class Transaction {
 public:
  Transaction(TxnId id, uint64_t begin_ts, ReadMode read_mode, bool system)
      : id_(id), begin_ts_(begin_ts), read_mode_(read_mode), system_(system) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  bool is_system() const { return system_; }
  TxnState state() const { return state_; }
  uint64_t begin_ts() const { return begin_ts_; }
  uint64_t commit_ts() const { return commit_ts_; }
  ReadMode read_mode() const { return read_mode_; }
  Lsn last_lsn() const { return last_lsn_; }
  bool has_writes() const { return last_lsn_ != kInvalidLsn; }

  // Engine/TxnManager internals.
  void set_state(TxnState s) { state_ = s; }
  void set_commit_ts(uint64_t ts) { commit_ts_ = ts; }
  void set_last_lsn(Lsn lsn) { last_lsn_ = lsn; }

  // WAL position when this transaction began: every record it ever logs has
  // a strictly greater LSN. Fuzzy checkpoints use it as a safe (slightly
  // conservative) redo-horizon floor for in-flight transactions — unlike a
  // "first LSN" tracked at first append, it is fixed before the transaction
  // can write, so the checkpoint capture can never read it mid-update.
  // Written inside Begin (before the descriptor is published) and read by
  // CaptureCheckpoint under active_mu_.
  Lsn begin_floor_lsn() const { return begin_floor_lsn_; }
  void set_begin_floor_lsn(Lsn lsn) { begin_floor_lsn_ = lsn; }

  // True once the commit path has converted this transaction's versions to
  // committed (the step-3 visibility flip). Set and read only under the
  // TransactionManager's visibility mutex: a checkpoint capture holding it
  // sees either "not flipped" (effects excluded from the image, so the
  // transaction's records must replay) or "flipped" (effects captured).
  bool flipped() const { return flipped_; }
  void set_flipped() { flipped_ = true; }

  // Wall-clock birth time (watchdog age accounting); set at Begin.
  uint64_t begin_wall_micros() const { return begin_wall_micros_; }
  void set_begin_wall_micros(uint64_t t) { begin_wall_micros_ = t; }

  // Which EpochReaderRegistry slot holds this transaction's begin_ts pin.
  // Written inside Register (before the descriptor is published) and read by
  // FinishTxn to release the pin.
  size_t epoch_slot() const { return epoch_slot_; }
  void set_epoch_slot(size_t slot) { epoch_slot_ = slot; }

  // Owner latch. Held (via Database's entry points) for the duration of
  // every operation performed on behalf of this transaction, so the
  // stuck-transaction watchdog can distinguish "idle between statements"
  // (try_lock succeeds → safe to abort from another thread) from "owner
  // thread is mid-operation" (try_lock fails → skip this round). Ordered
  // before every engine-internal rank; see lock_order.h (kTxnOwner).
  RankedMutex& owner_mu() { return owner_mu_; }

  std::vector<LogRecord>& undo_records() { return undo_records_; }
  std::vector<DeferredChange>& deferred_changes() { return deferred_changes_; }

 private:
  const TxnId id_;
  const uint64_t begin_ts_;
  const ReadMode read_mode_;
  const bool system_;

  TxnState state_ = TxnState::kActive;
  uint64_t commit_ts_ = 0;
  Lsn last_lsn_ = kInvalidLsn;
  Lsn begin_floor_lsn_ = kInvalidLsn;
  bool flipped_ = false;
  uint64_t begin_wall_micros_ = 0;
  size_t epoch_slot_ = SIZE_MAX;
  RankedMutex owner_mu_{LockRank::kTxnOwner, "owner_mu_"};

  // In-memory copy of this transaction's data log records, newest last;
  // rollback walks it backwards (the on-disk prev_lsn chain serves
  // restart-time undo).
  std::vector<LogRecord> undo_records_;

  // Base-table changes awaiting commit-time view maintenance.
  std::vector<DeferredChange> deferred_changes_;
};

}  // namespace ivdb

#endif  // IVDB_TXN_TRANSACTION_H_
