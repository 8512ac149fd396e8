#ifndef IVDB_LOCK_LOCK_MANAGER_H_
#define IVDB_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "lock/lock_mode.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace ivdb {

using TxnId = uint64_t;

// A lockable resource: a whole object (table or view index) when `key` is
// empty, otherwise one key within that object. Key-range/predicate locking
// is approximated by key locks on the clustering key plus object-level locks
// for scans.
struct ResourceId {
  uint32_t object_id = 0;
  std::string key;

  static ResourceId Object(uint32_t object_id) { return {object_id, ""}; }
  static ResourceId Key(uint32_t object_id, std::string key) {
    return {object_id, std::move(key)};
  }

  bool IsObjectLevel() const { return key.empty(); }

  bool operator<(const ResourceId& other) const {
    if (object_id != other.object_id) return object_id < other.object_id;
    return key < other.key;
  }
  bool operator==(const ResourceId& other) const {
    return object_id == other.object_id && key == other.key;
  }

  std::string ToString() const;
};

// Lock-manager instruments (lock-level behaviour is half the paper's
// story). Registered in the engine's unified MetricsRegistry — or in a
// private registry when the manager is used standalone — under
// `ivdb_lock_*` names; see docs/OBSERVABILITY.md.
struct LockManagerMetrics {
  obs::Counter* acquisitions;
  obs::Counter* immediate_grants;
  obs::Counter* waits;
  obs::Counter* deadlocks;
  obs::Counter* timeouts;
  obs::Counter* conversions;
  obs::Counter* wait_micros;
  obs::Counter* escalations;
  obs::Counter* covered_by_object_lock;
  // Per-wait latency distribution (`ivdb_lock_wait_micros`): the paper's
  // contention story lives in this tail, not in the counter above.
  obs::Histogram* wait_latency;

  explicit LockManagerMetrics(obs::MetricsRegistry* registry);
};

// Centralized hierarchical lock manager with escrow support.
//
// Striped lock table: resources hash onto a fixed array of stripes, each
// with its own mutex and queue map, so independent keys never contend on
// one mutex (or share its cache line — stripes are cache-line aligned).
// All per-resource state transitions (queueing, granting, conversion,
// release) happen under exactly one stripe mutex; stripes all share one
// lock rank, so the runtime order checker forbids ever nesting two —
// multi-resource operations (escalation, release-all, the deadlock DFS)
// visit stripes strictly one at a time.
//
// Cross-resource bookkeeping — the waits-for graph (waiting_on_), each
// transaction's resource set (txn_locks_) and its per-object key-lock
// counts (key_counts_) — lives under a single graph_mu_, ranked BELOW the
// stripes: a thread holding graph_mu_ may take stripes one at a time (the
// DFS and escalation do), but a thread holding a stripe may never touch
// the graph. A transaction's own entries are additionally stable under its
// engine owner latch, which is what lets grant bookkeeping run after the
// stripe is released.
//
// Deadlock handling: when a request must wait, the waiter publishes its
// wait edge and runs a depth-first search over the waits-for graph in one
// graph_mu_ critical section; because every wait edge is published under
// graph_mu_ BEFORE its DFS runs, the last transaction to close a cycle is
// guaranteed to see every other edge of the cycle and elect itself the
// victim (Status::Deadlock). Queue states are re-read per stripe during
// the walk, so a stale waiting_on_ entry (its owner already granted)
// contributes no edges; under heavy churn the walk can very rarely observe
// edges from different instants and report a cycle that never coexisted —
// a spurious Deadlock is safe (the engine's retry loop re-runs the
// transaction) where a missed real one would not be. Waits additionally
// carry a timeout (Status::TimedOut) as a backstop.
//
// Fairness: strict FIFO per resource, except that conversions of already-
// granted locks wait ahead of fresh requests (standard practice; avoids
// conversion starvation and most conversion deadlocks).
class LockManager {
 public:
  struct Options {
    std::chrono::milliseconds wait_timeout{10000};
    bool detect_deadlocks = true;
    // Lock escalation: once a transaction holds this many key locks on one
    // object, the manager opportunistically trades them for a single
    // object-level lock (S if all keys are shared, X otherwise). Escalation
    // only succeeds when no other transaction holds a conflicting
    // object-level lock — it never waits, it just tries again later.
    // 0 disables escalation.
    size_t escalation_threshold = 0;
    // Lock-table stripes (hash buckets with independent mutexes); 0 = the
    // built-in default. Tests pin 1 to force every resource through one
    // stripe.
    size_t stripes = 0;
    // Unified metrics registry to register `ivdb_lock_*` instruments in;
    // nullptr => the manager owns a private registry (standalone use in
    // tests/benches).
    obs::MetricsRegistry* metrics = nullptr;
    // Time source for wait accounting; nullptr => Clock::Default(). Tests
    // and fault/torture harnesses inject a ManualClock for virtual time.
    Clock* clock = nullptr;
    // Engine flight recorder: lock waits, deadlocks, timeouts and
    // escalations land on the requesting thread's lane. nullptr disables.
    obs::FlightRecorder* flight = nullptr;
  };

  LockManager() : LockManager(Options{}) {}
  explicit LockManager(Options options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires (or converts to) `mode` on `res` for `txn`, blocking until
  // granted, deadlock, or timeout. Re-entrant: requesting a mode already
  // covered is a no-op.
  Status Lock(TxnId txn, const ResourceId& res, LockMode mode);

  // Instant-duration attempt: grants only if immediately compatible,
  // otherwise returns Status::Busy without waiting. Used by the ghost
  // cleaner (E→X only when no other escrow holders exist).
  Status TryLock(TxnId txn, const ResourceId& res, LockMode mode);

  // Releases every lock held by `txn` (commit/abort).
  void ReleaseAll(TxnId txn);

  // Releases one lock early (used for instant-duration locks). The caller
  // is responsible for two-phase discipline.
  void Unlock(TxnId txn, const ResourceId& res);

  // Mode currently held by `txn` on `res` (kNL if none).
  LockMode HeldMode(TxnId txn, const ResourceId& res) const;

  // Number of distinct transactions holding a granted lock on `res`.
  int NumHolders(const ResourceId& res) const;

  const LockManagerMetrics& metrics() const { return metrics_; }

 private:
  struct LockRequest {
    TxnId txn;
    LockMode mode;            // requested/target mode
    LockMode converting_from = LockMode::kNL;  // kNL => fresh request
    bool granted = false;
  };

  struct LockQueue {
    std::list<LockRequest> requests;  // granted prefix, then waiters in order
    CondVar cv;
  };

  // One hash bucket of the lock table. Cache-line aligned so two stripes
  // never false-share; every stripe mutex carries the same rank
  // (kLockManager), which makes the runtime order checker reject any
  // attempt to nest two stripes.
  struct alignas(64) Stripe {
    mutable RankedMutex lock_stripe_mu_{LockRank::kLockManager,
                                        "lock_stripe_mu_"};
    std::map<ResourceId, std::unique_ptr<LockQueue>> queues
        IVDB_GUARDED_BY(lock_stripe_mu_);
  };

  Stripe& StripeFor(const ResourceId& res) const;

  // Single-resource queue helpers: each requires the stripe mutex of the
  // stripe that owns the queue (passed explicitly so the thread-safety
  // analysis can name the capability).
  Status LockInternal(TxnId txn, const ResourceId& res, LockMode mode,
                      bool wait);
  bool CanGrant(const Stripe& stripe, const LockQueue& queue,
                const LockRequest& req) const
      IVDB_REQUIRES(stripe.lock_stripe_mu_);
  void GrantWaiters(const Stripe& stripe, const ResourceId& res,
                    LockQueue* queue)
      IVDB_REQUIRES(stripe.lock_stripe_mu_);
  void EraseRequest(Stripe& stripe, TxnId txn, const ResourceId& res,
                    LockQueue* queue)
      IVDB_REQUIRES(stripe.lock_stripe_mu_);
  // Withdraws a request that will not be granted (busy / deadlock /
  // timeout): conversions fall back to their original granted mode, fresh
  // requests are erased; either way waiters behind it are re-examined.
  void RollbackRequest(const Stripe& stripe, const ResourceId& res,
                       LockQueue* queue,
                       std::list<LockRequest>::iterator request,
                       bool is_conversion, LockMode restore_mode)
      IVDB_REQUIRES(stripe.lock_stripe_mu_);
  // Mode the txn holds on `res` via a granted request, kNL if none.
  LockMode HeldModeLocked(const Stripe& stripe, TxnId txn,
                          const ResourceId& res) const
      IVDB_REQUIRES(stripe.lock_stripe_mu_);

  // Waits-for helpers: require graph_mu_; they take stripes one at a time
  // internally to read live queue state.
  bool WouldDeadlockLocked(TxnId requester) const IVDB_REQUIRES(graph_mu_);
  std::vector<TxnId> BlockersOfLocked(TxnId txn) const
      IVDB_REQUIRES(graph_mu_);

  // Post-grant bookkeeping (txn_locks_ / key_counts_ / escalation), run
  // after the stripe is released; safe because a transaction's own entries
  // only change under its engine owner latch.
  void FinishGrant(TxnId txn, const ResourceId& res, bool fresh_request,
                   bool is_conversion);
  // Attempts to replace the txn's key locks on `object_id` with one
  // object-level lock; silently does nothing if that lock cannot be
  // granted immediately. Takes stripes one at a time under graph_mu_.
  void TryEscalateLocked(TxnId txn, uint32_t object_id)
      IVDB_REQUIRES(graph_mu_);
  // One lock event on the calling thread's flight lane (a = txn, b =
  // object id); no-op without a recorder.
  void EmitFlight(obs::FlightEventType type, uint64_t start_micros,
                  uint64_t dur_micros, TxnId txn, uint32_t object_id) {
    if (options_.flight != nullptr) {
      options_.flight->Emit(type, start_micros, dur_micros, txn, object_id);
    }
  }

  Options options_;
  // Private fallback registry (standalone use); the handles in metrics_
  // point into either this or the caller-provided registry.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  LockManagerMetrics metrics_;
  Clock* const clock_;

  // Striped lock table (fixed size after construction).
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Cross-resource bookkeeping; ranked below the stripes so the deadlock
  // DFS and escalation may take stripes while holding it, never the
  // reverse.
  mutable RankedMutex graph_mu_{LockRank::kLockGraph, "graph_mu_"};
  // Resources each txn has granted requests in.
  std::map<TxnId, std::set<ResourceId>> txn_locks_
      IVDB_GUARDED_BY(graph_mu_);
  // Resource each txn is currently waiting on (at most one).
  std::map<TxnId, ResourceId> waiting_on_ IVDB_GUARDED_BY(graph_mu_);
  // Granted key-lock counts per (txn, object): escalation trigger.
  std::map<std::pair<TxnId, uint32_t>, size_t> key_counts_
      IVDB_GUARDED_BY(graph_mu_);
};

}  // namespace ivdb

#endif  // IVDB_LOCK_LOCK_MANAGER_H_
