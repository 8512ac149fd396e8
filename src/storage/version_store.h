#ifndef IVDB_STORAGE_VERSION_STORE_H_
#define IVDB_STORAGE_VERSION_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "storage/btree.h"
#include "storage/epoch_reclaimer.h"
#include "storage/increment.h"
#include "wal/log_record.h"

namespace ivdb {

// Committed-version bookkeeping for snapshot (multiversion) reads.
//
// The paper's answer to readers blocking behind escrow writers is
// multiversioning: a read-only query reads the state committed before its
// snapshot timestamp and never touches the lock manager. The storage
// B-trees are updated *in place* (with WAL undo), so this side store keeps
// exactly what in-place updating destroys:
//
//  1. For plain writes (insert/delete/update under X locks): a chain of
//     superseded committed values per key, each stamped with the commit
//     timestamp of the transaction that replaced it, plus "pending" entries
//     for in-flight writers (whose old value *is* the current committed
//     state).
//  2. For escrow increments (E locks): per-key lists of column deltas, each
//     either uncommitted (owned by a live transaction) or committed at some
//     timestamp. The committed value visible at snapshot S is
//        physical_value − Σ uncommitted deltas − Σ committed deltas with
//        commit_ts > S.
//     Delta-based reconstruction is the only correct option here: with
//     several uncommitted incrementers interleaved on one row, *no*
//     before-image of the row equals the committed state.
//
// The two representations never overlap on a key at the same instant
// because E conflicts with X/S/U in the lock manager.
//
// Concurrency: chains are striped — (object, key) hashes onto a fixed
// array of cache-line-aligned stripes, each with its own mutex and chain
// map, so writers on independent keys never contend. All stripe mutexes
// share one rank, which forbids nesting two (multi-key operations —
// commit/abort stamping, GC, scans — visit stripes one at a time). The
// txn -> dirty-chain-key bookkeeping (pending_) lives under its own
// pending_mu_, ranked below the stripes; pending notes are recorded after
// the stripe is released, which is safe because only the owning
// transaction's thread reads or writes its own entry until commit/abort.
// version_scan_mu_, also ranked below the stripes, orders snapshot-scan
// chunks against Abort's unlinks (see SnapshotScan).
//
// Reclamation is epoch-based (docs/INTERNALS.md §7): GarbageCollect and
// Abort only UNLINK dead versions under the stripes; the payloads move into
// the EpochReclaimer's retire pile and are physically freed by
// AdvanceReclamation once every reader pinned at or below the batch's epoch
// stamp has left the reader epoch.
class VersionStore {
 public:
  VersionStore();
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  // --- Writer-side hooks (called by the engine while it holds the
  //     appropriate transaction locks). ---

  // First physical replace of (object, key) by `txn`: remembers the
  // pre-transaction committed value (nullopt = key absent). Subsequent calls
  // by the same txn for the same key are ignored.
  void NotePendingWrite(uint32_t object_id, const Slice& key,
                        std::optional<std::string> old_value, TxnId txn);

  // Escrow increment applied physically by `txn`.
  void NotePendingIncrement(uint32_t object_id, const Slice& key,
                            const std::vector<ColumnDelta>& deltas, TxnId txn);

  // --- Atomic note+apply (the physical change and its version-store
  //     bookkeeping become one event w.r.t. snapshot readers, which is what
  //     makes GetAsOfConsistent race-free). ---

  // A lower bound the committed value of a row column must never violate,
  // whatever subset of the currently pending increments eventually commits
  // (O'Neil-style escrow constraint, e.g. "quantity on hand >= 0").
  struct ColumnBound {
    uint32_t column = 0;
    int64_t min_value = 0;
  };

  // Records the pending increment for `txn` and applies it to `tree`, both
  // under the store's mutex. With create_pending = false, only an existing
  // pending entry of `txn` is accumulated into (rollback compensation:
  // cancels the entry as the physical undo lands) — when none exists (e.g.
  // restart redo, where there are no readers), the apply is purely physical.
  //
  // When `bounds` is non-null the increment is admitted only if every bound
  // holds in the *worst case* (this increment commits, every other pending
  // increment aborts). Returns:
  //   kInvalidArgument — violated even if everything commits (permanent);
  //   kBusy            — only the pessimistic outcome violates; the caller
  //                      may retry once concurrent transactions settle.
  // `pre_apply`, when provided, runs under the mutex after bound admission
  // and before the physical application — the hook where the caller appends
  // its WAL record, preserving log-before-apply without letting another
  // increment slip between admission and application.
  Status ApplyIncrement(uint32_t object_id, const Slice& key,
                        const std::vector<ColumnDelta>& deltas, TxnId txn,
                        bool create_pending, BTree* tree,
                        const std::vector<ColumnBound>* bounds = nullptr,
                        const std::function<Status()>& pre_apply = {});

  // Records the pending write (pre-image `old_value`) for `txn` and runs
  // `apply` (the physical insert/update/delete) under the store's mutex.
  Status ApplyWithPendingWrite(uint32_t object_id, const Slice& key,
                               std::optional<std::string> old_value,
                               TxnId txn, const std::function<Status()>& apply);

  // Converts all pending entries of `txn` into committed versions stamped
  // with commit_ts.
  void Commit(TxnId txn, uint64_t commit_ts);

  // Discards all pending entries of `txn` (the physical rollback restores
  // the B-tree itself, before this call). The removed entries are unlinked
  // under their stripes, with version_scan_mu_ held exclusively, and
  // retired at `retire_stamp` (the epoch-clock value current at the abort;
  // 0 = "retire at the next Advance", safe because the entries were
  // pending — no snapshot resolves them after the unlink).
  void Abort(TxnId txn, uint64_t retire_stamp = 0);

  // Commit-visibility hook, fired once per dirty (object, key) of each
  // Commit(txn, commit_ts) AFTER that key's stripe mutex is released. The
  // scan cache uses it for precise invalidation. Install before concurrent
  // use (Database construction); not synchronized.
  using CommitHook =
      std::function<void(uint32_t object_id, const std::string& key,
                         uint64_t visible_ts)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // --- Reader side. ---

  struct SnapshotView {
    // When true, `chain_value` (possibly absent) is the base image instead
    // of the current physical value.
    bool use_chain_value = false;
    std::optional<std::string> chain_value;
    // Delta sets to subtract from the base image (increments invisible at
    // the snapshot but physically contained in it).
    std::vector<std::vector<ColumnDelta>> subtract;
  };

  // Computes how a reader at `snapshot_ts` must interpret (object, key).
  // An empty view (no chain value, no subtractions) means the physical
  // B-tree value is directly visible.
  SnapshotView GetAsOf(uint32_t object_id, const Slice& key,
                       uint64_t snapshot_ts) const;

  // Race-free variant: computes the view AND reads the physical value from
  // `tree` under the store's mutex, so no writer's note+apply pair can fall
  // between them. On return, *physical holds the tree value (when present)
  // — only meaningful when the view does not carry a chain value.
  SnapshotView GetAsOfConsistent(uint32_t object_id, const Slice& key,
                                 uint64_t snapshot_ts, const BTree* tree,
                                 std::optional<std::string>* physical) const;

  // Leaf entries one SnapshotScan chunk copies under the tree latch.
  static constexpr size_t kSnapshotScanChunk = BTree::kScanChunk;

  // One row visible to a snapshot scan: its key, the base image, and the
  // delta sets the reader must strip from it (empty when the base image is
  // the committed row). `key` and `value` point into the scan's buffers and
  // are valid only during the call; copy what must outlive it.
  using ScanVisitor = std::function<Status(
      const Slice& key, const Slice& value,
      const std::vector<std::vector<ColumnDelta>>& subtract)>;

  // Visits, in key order, every row of `object_id` in [begin, end) (end
  // nullptr = unbounded) visible at `snapshot_ts`; `tree` is the object's
  // index. Walks the range in chunks of kSnapshotScanChunk leaf entries,
  // each copied into one ScanBuffer the scan reuses. Per chunk, with
  // version_scan_mu_ held shared, it copies the entries under the tree's
  // shared latch and then lists the version chains of only the chunk's key
  // range. Chained keys resolve via GetAsOfConsistent (a key deleted after
  // the snapshot is visible only through its chain); every other key is
  // served from the copy. `visit` runs with no lock held; a non-OK status
  // from it stops the scan and is returned.
  //
  // Why the lock: a rollback restores the physical row before Abort
  // unlinks its pending entry. Without the lock a chunk could copy the
  // tree while an aborting delete still hides the row, then list the
  // chains after the unlink, and so miss the row.
  Status SnapshotScan(uint32_t object_id, const BTree* tree,
                      const Slice& begin, const Slice* end,
                      uint64_t snapshot_ts, const ScanVisitor& visit) const;

  // Point-in-time version-chain length distribution: entries (committed
  // versions + pending notes, value and delta alike) per chained key.
  // p99 is the nearest-rank 99th percentile across chains (equal to max
  // when fewer than 100 chains exist).
  struct ChainLengthStats {
    uint64_t chain_count = 0;
    uint64_t max_len = 0;
    uint64_t p99_len = 0;
  };

  // Unlinks versions invisible to every snapshot with ts >=
  // oldest_active_ts. Unlinked entries are NOT destroyed here: they move
  // into the epoch reclaimer's retire pile stamped with `retire_stamp` (the
  // epoch-clock value current at the unlink) and are freed by
  // AdvanceReclamation once every reader pinned at or below that stamp has
  // left the epoch. Returns the number of entries unlinked. When `stats` is
  // non-null it is filled with the post-prune chain-length distribution
  // collected during the same walk (no second pass over the stripes).
  uint64_t GarbageCollect(uint64_t oldest_active_ts, uint64_t retire_stamp = 0,
                          ChainLengthStats* stats = nullptr);

  // Physically frees retired batches every epoch reader has moved past;
  // `min_active_pin` is EpochReaderRegistry::MinActivePin(). Returns
  // entries freed.
  uint64_t AdvanceReclamation(uint64_t min_active_pin) {
    return reclaimer_.Advance(min_active_pin);
  }

  EpochReclaimer* reclaimer() { return &reclaimer_; }

  uint64_t TotalEntries() const;

  // Standalone chain-length distribution pass (DumpMetrics-path / tests);
  // GC passes get the same stats for free via GarbageCollect's out-param.
  ChainLengthStats CollectChainLengthStats() const;

 private:
  struct ValueVersion {
    std::optional<std::string> value;  // committed value before superseded_ts
    uint64_t superseded_ts = 0;        // 0 => pending
    TxnId owner = 0;                   // valid while pending
  };
  struct DeltaVersion {
    std::vector<ColumnDelta> deltas;
    uint64_t commit_ts = 0;  // 0 => pending
    TxnId owner = 0;         // valid while pending
  };
  struct Chain {
    // Committed versions in ascending superseded_ts order, then pendings.
    std::vector<ValueVersion> values;
    std::vector<DeltaVersion> deltas;
  };

  // One GC/abort pass's unlinked entries, awaiting epoch retirement. Lives
  // behind the reclaimer's type-erased payload; its destructor (run inside
  // EpochReclaimer::Advance, the IVDB_EPOCH_RETIRE_PATH) is the only place
  // dead versions are physically freed.
  struct RetiredVersions {
    std::vector<ValueVersion> values;
    std::vector<DeltaVersion> deltas;
  };

  using ChainKey = std::pair<uint32_t, std::string>;

  // One hash bucket of the chain map. Cache-line aligned so independent
  // keys never false-share; all stripe mutexes carry rank kVersionStore,
  // so the order checker rejects nesting two.
  struct alignas(64) Stripe {
    mutable RankedMutex version_stripe_mu_{LockRank::kVersionStore,
                                           "version_stripe_mu_"};
    std::map<ChainKey, Chain> chains IVDB_GUARDED_BY(version_stripe_mu_);
  };

  Stripe& StripeFor(const ChainKey& ck) const;

  // Unlocked internals (the owning stripe's mutex held by caller). The
  // note helpers return true when they created a new pending entry, which
  // the caller records in pending_ after releasing the stripe.
  bool NotePendingWriteLocked(Stripe& stripe, uint32_t object_id,
                              const Slice& key,
                              std::optional<std::string> old_value, TxnId txn)
      IVDB_REQUIRES(stripe.version_stripe_mu_);
  bool NotePendingIncrementLocked(Stripe& stripe, uint32_t object_id,
                                  const Slice& key,
                                  const std::vector<ColumnDelta>& deltas,
                                  TxnId txn, bool create_pending)
      IVDB_REQUIRES(stripe.version_stripe_mu_);
  SnapshotView GetAsOfLocked(const Stripe& stripe, uint32_t object_id,
                             const Slice& key, uint64_t snapshot_ts) const
      IVDB_REQUIRES(stripe.version_stripe_mu_);

  // Appends `ck` to `txn`'s dirty-key list (pending_mu_).
  void NotePending(TxnId txn, ChainKey ck);

  // Appends to *keys, unsorted, the keys of `object_id` in [begin, end)
  // (end nullptr = unbounded) that currently have version chains.
  void ChainedKeysInRange(uint32_t object_id, const std::string& begin,
                          const std::string* end,
                          std::vector<std::string>* keys) const;

  // Striped chain map (fixed size after construction).
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Held shared by a snapshot-scan chunk from its leaf copy to the end of
  // its chain listing, and exclusively by Abort around its unlinks. Rank
  // 39: above pending_mu_ and the retire pile, below the stripes and the
  // tree latch it is held across.
  mutable RankedSharedMutex version_scan_mu_{LockRank::kVersionScan,
                                             "version_scan_mu_"};

  // txn -> keys it has pending entries in (for O(changes) commit/abort).
  // Ranked below the stripes: commit/abort/GC snapshot the key list here,
  // then stamp chains one stripe at a time.
  mutable RankedMutex pending_mu_{LockRank::kVersionPending, "pending_mu_"};
  std::map<TxnId, std::vector<ChainKey>> pending_ IVDB_GUARDED_BY(pending_mu_);

  // Deferred-free pile for unlinked versions (rank 38, taken with no
  // stripe held).
  EpochReclaimer reclaimer_;

  // Fired per committed dirty key after its stripe is released; see
  // SetCommitHook.
  CommitHook commit_hook_;
};

}  // namespace ivdb

#endif  // IVDB_STORAGE_VERSION_STORE_H_
