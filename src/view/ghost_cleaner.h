#ifndef IVDB_VIEW_GHOST_CLEANER_H_
#define IVDB_VIEW_GHOST_CLEANER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.h"
#include "lock/lock_manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/version_store.h"
#include "txn/txn_manager.h"
#include "view/maintenance.h"

namespace ivdb {

// Per-view ghost-reclamation instruments, labeled `{view="<name>"}`; see
// docs/OBSERVABILITY.md.
struct GhostCleanerMetrics {
  obs::Counter* passes;
  obs::Counter* candidates_seen;
  obs::Counter* reclaimed;
  obs::Counter* skipped_locked;   // E/X holder present; try later
  obs::Counter* skipped_revived;  // count rose again before lock
  // Reclamation attempts that failed on an error (I/O failure, engine
  // degraded, ...) rather than a busy row. The cleaner presses on — ghosts
  // are logically absent, so a failed cleanup costs space, not correctness.
  obs::Counter* errors;

  GhostCleanerMetrics(obs::MetricsRegistry* registry,
                      const std::string& view_name);
};

// Asynchronous reclamation of ghost aggregate rows (count == 0).
//
// Escrow updates can decrement a group's count to zero, but the holder of an
// E lock must not delete the row: a concurrent E holder may be about to
// increment it, and deletion does not commute. So the row is left behind as
// a ghost and reclaimed here by short system transactions, each deleting a
// batch of up to kReclaimBatch rows:
//
//   TryLock X (instant)  — succeeds only when *no* transaction holds E/S/X,
//                          i.e. every contributor has committed or aborted
//   re-check count == 0  — it may have been revived in the meantime
//   log DELETE, remove   — batch commits once, amortizing the WAL flush
//
// Rows that are busy are simply skipped (a failed TryLock leaves nothing to
// undo); a row whose delete fails mid-batch is rolled back to its own
// savepoint, so one bad row never poisons its batchmates. A later pass gets
// the skipped rows. This is the paper's "asynchronous ghost cleanup" system
// transaction, batched so a big backlog (e.g. the post-checkpoint piggyback
// pass) costs one commit per ~hundred ghosts, not per ghost.
class GhostCleaner {
 public:
  // Ghost deletions per system transaction (one WAL commit per batch).
  static constexpr size_t kReclaimBatch = 128;

  struct Options {
    // Unified metrics registry (`ivdb_ghost_*{view="..."}` instruments);
    // nullptr => the cleaner owns a private registry.
    obs::MetricsRegistry* metrics = nullptr;
    // Label value for this cleaner's instruments (normally the view name).
    std::string view_name;
    // Time source for the pass-freshness stamp (last_pass_end_micros);
    // nullptr => Clock::Default().
    Clock* clock = nullptr;
    // Engine flight recorder: every pass records one span on the calling
    // thread's lane. nullptr disables.
    obs::FlightRecorder* flight = nullptr;
    // Per-view lag gauge, set LIVE at the end of every pass to the interval
    // since the previous pass (0 on the first). DumpMetrics() additionally
    // ages the same gauge to now - last_pass_end, so a view nobody cleans
    // reads as growing lag. nullptr disables the live update.
    obs::Gauge* lag_gauge = nullptr;
  };

  GhostCleaner(ObjectId view_id, size_t count_column, IndexResolver* resolver,
               LockManager* locks, TransactionManager* txns,
               VersionStore* versions, Options options);
  GhostCleaner(ObjectId view_id, size_t count_column, IndexResolver* resolver,
               LockManager* locks, TransactionManager* txns,
               VersionStore* versions)
      : GhostCleaner(view_id, count_column, resolver, locks, txns, versions,
                     Options()) {}
  GhostCleaner(const GhostCleaner&) = delete;
  GhostCleaner& operator=(const GhostCleaner&) = delete;

  // One full pass; *reclaimed (optional) receives the rows removed and
  // *errors (optional) the rows that failed to reclaim. Per-row failures
  // are absorbed (counted in `errors`, row skipped) when transient — a busy
  // lock, an I/O hiccup — so one bad row never strands the rest of the
  // pass. The pass itself fails only on non-transient errors (corruption)
  // or a degraded engine (kUnavailable — every further row would fail
  // identically, so the pass stops early). The engine's housekeeper runs
  // one pass per view every DatabaseOptions::ghost_cleaner_interval_micros.
  Status RunOnce(uint64_t* reclaimed = nullptr, uint64_t* errors = nullptr);

  const GhostCleanerMetrics& metrics() const { return metrics_; }

  // Clock-seam timestamp of the most recent completed pass (0 before the
  // first one). DumpMetrics turns `now - this` into the per-view
  // ghost-cleaner lag gauge.
  uint64_t last_pass_end_micros() const {
    return last_pass_end_micros_.load(std::memory_order_relaxed);
  }

 private:
  const ObjectId view_id_;
  const size_t count_column_;
  IndexResolver* const resolver_;
  LockManager* const locks_;
  TransactionManager* const txns_;
  VersionStore* const versions_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  GhostCleanerMetrics metrics_;

  Clock* const clock_;
  obs::FlightRecorder* const flight_;
  obs::Gauge* const lag_gauge_;

  std::atomic<uint64_t> last_pass_end_micros_{0};
};

}  // namespace ivdb

#endif  // IVDB_VIEW_GHOST_CLEANER_H_
