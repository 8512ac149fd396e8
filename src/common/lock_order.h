#ifndef IVDB_COMMON_LOCK_ORDER_H_
#define IVDB_COMMON_LOCK_ORDER_H_

#include "common/invariant.h"

// Runtime lock-acquisition-order checker — layer 3 of the concurrency
// discipline (see docs/INTERNALS.md §8; layers 1 and 2 are the Clang
// thread-safety annotations in common/thread_annotations.h and the static
// rank graph built by tools/ivdb_lint).
//
// Every long-lived mutex in the engine has a rank; a thread may only acquire
// a mutex whose rank is strictly greater than every rank it already holds.
// The total order below is the one the commit path actually uses:
//
//   Database::housekeeper_mu_   (1)    housekeeper parking / stop flag
//                                      (outermost)
//   Database::checkpoint_mu_    (2)    checkpoint serialization
//   Transaction::owner_mu_      (5)    per-txn owner latch
//   Database::indexes_mu_       (6)    object-id -> BTree map (shared)
//   Database::views_mu_         (7)    view registry (shared)
//   TxnManager::active_mu_      (10)   Begin / FinishTxn / quiesce gate
//   EpochReaderRegistry::slot_mu_ (12) one epoch reader slot (never nested
//                                      with another slot)
//   TxnManager::visibility_mu_  (20)   commit-ts draw + in-LSN-order flip
//   EpochClock::advance_mu_     (21)   commit-epoch reserve/publish
//   LockManager::graph_mu_      (28)   waits-for graph + per-txn bookkeeping
//   LockManager::lock_stripe_mu_ (30)  one lock-table stripe (never nested
//                                      with another stripe)
//   ScanCache::entry_mu_        (33)   one object's last-committed-row cache
//                                      (never nested with another entry)
//   VersionStore::pending_mu_   (37)   txn -> dirty-chain-key bookkeeping
//   EpochReclaimer::retire_mu_  (38)   deferred-free retire pile
//   VersionStore::version_scan_mu_ (39) snapshot-scan chunk (shared) vs
//                                      Abort's unlinks (exclusive)
//   VersionStore::version_stripe_mu_ (40) one version-chain stripe (never
//                                      nested with another stripe)
//   BTree::latch_               (45)   per-tree structural latch
//   LogManager::flush_mu_       (50)   flush waiters + WAL-writer parking
//   LogManager::seg_mu_         (55)   WAL segment manifest (rotation/retire)
//   LogManager::wal_shard_mu_   (58)   one commit-staging shard (never
//                                      nested with another shard)
//   Catalog::catalog_mu_        (70)   name/schema maps: never calls out
//   MetricsRegistry::registry_mu_ (80) instrument interning (leaf)
//   FlightRecorder::flight_mu_  (83)   flight-recorder thread registration
//                                      and snapshots (Emit itself is
//                                      lock-free)
//   FaultInjectionEnv::env_mu_  (90)   fault schedule (env ops under seg_mu_)
//
// e.g. Commit holds visibility_mu_ (20) while drawing the durable epoch
// (21), staging the COMMIT record (58) and flipping versions (40);
// ApplyIncrement holds a version stripe (40) while staging the INCREMENT
// record (58); the WAL writer holds flush_mu_ (50) while updating the
// segment manifest (55); snapshot reads hold a version stripe (40) while
// probing the physical tree (45); a snapshot-scan chunk holds
// version_scan_mu_ (39) while copying leaf entries (45) and then listing
// the version stripes (40) one at a time.
//
// Striping note: the lock-table stripes all share rank 30, the version-chain
// stripes rank 40, the WAL staging shards rank 58, the epoch reader slots
// rank 12, and the scan-cache entries rank 33. The strictly-greater rule
// therefore *forbids nesting two stripes of the same family* — exactly the
// discipline the striped designs rely on (multi-stripe operations such as
// deadlock DFS, lock escalation, commit stamping, the oldest-pin sweep, and
// the batch writer's shard drain visit stripes strictly one at a time).
//
// Ranked mutexes (common/mutex.h) feed the tracker from their own
// Lock/Unlock paths, so a locking site needs no separate declaration. The
// tracker keeps a per-thread stack of held ranks; an out-of-order
// acquisition prints the thread's held-lock stack plus the ordering cycle
// it would create, then aborts. Everything compiles to nothing when the
// checkers are off (NDEBUG without IVDB_ENABLE_CHECKS), so release builds
// carry zero overhead.
//
// Condition-variable waits release and reacquire the mutex inside one
// guard scope; the tracker intentionally keeps the rank on the stack for
// the whole scope (conservative: the wait itself never acquires further
// locks on this thread).
//
// TryLock is exempt from the order check (a non-blocking probe cannot
// participate in a deadlock cycle); a successful try-acquire is still
// pushed on the held stack so locks taken while it is held are ordered
// against it. The stuck-transaction sweep relies on this: it try-probes
// owner_mu_ (5) while holding active_mu_ (10).

namespace ivdb {

enum class LockRank : int {
  kHousekeeper = 1,
  kCheckpointSerial = 2,
  kTxnOwner = 5,
  kEngineIndexes = 6,
  kEngineViews = 7,
  kTxnActive = 10,
  kEpochSlot = 12,
  kTxnVisibility = 20,
  kTxnEpoch = 21,
  kLockGraph = 28,
  kLockManager = 30,
  kScanCache = 33,
  kVersionPending = 37,
  kVersionRetire = 38,
  kVersionScan = 39,
  kVersionStore = 40,
  kBtreeLatch = 45,
  kWalFlush = 50,
  kWalSegments = 55,
  kWalShard = 58,
  kCatalog = 70,
  kMetricsRegistry = 80,
  kFlightRing = 83,
  kFaultEnv = 90,
};

#if IVDB_CHECKS_ENABLED

// Records that the calling thread is about to acquire a mutex of `rank`.
// Aborts with a report if a held rank is >= `rank`.
void LockOrderAcquire(LockRank rank, const char* name);

// Records a *successful* try-acquire: pushes the rank with no order check.
// Only RankedMutex::TryLock may call this — a blocking acquisition that
// skipped the check would defeat the tracker.
void LockOrderAcquireTry(LockRank rank, const char* name);

// Records release. Tolerates non-LIFO release (UniqueMutexLock::Unlock()).
void LockOrderRelease(LockRank rank);

// Number of ranks the calling thread currently holds (tests).
int LockOrderDepth();

class LockOrderScope {
 public:
  LockOrderScope(LockRank rank, const char* name) : rank_(rank) {
    LockOrderAcquire(rank, name);
  }
  ~LockOrderScope() { LockOrderRelease(rank_); }

  LockOrderScope(const LockOrderScope&) = delete;
  LockOrderScope& operator=(const LockOrderScope&) = delete;

 private:
  LockRank rank_;
};

#else

inline void LockOrderAcquire(LockRank, const char*) {}
inline void LockOrderAcquireTry(LockRank, const char*) {}
inline void LockOrderRelease(LockRank) {}
inline int LockOrderDepth() { return 0; }

class LockOrderScope {
 public:
  LockOrderScope(LockRank, const char*) {}

  LockOrderScope(const LockOrderScope&) = delete;
  LockOrderScope& operator=(const LockOrderScope&) = delete;
};

#endif  // IVDB_CHECKS_ENABLED

}  // namespace ivdb

#endif  // IVDB_COMMON_LOCK_ORDER_H_
