#ifndef IVDB_VIEW_MAINTENANCE_H_
#define IVDB_VIEW_MAINTENANCE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "lock/lock_manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/increment.h"
#include "storage/version_store.h"
#include "txn/txn_manager.h"
#include "view/view_def.h"

namespace ivdb {

// Resolves object ids to their storage trees. Implemented by the engine.
class IndexResolver {
 public:
  virtual ~IndexResolver() = default;
  virtual BTree* GetIndex(ObjectId id) = 0;
};

// One net aggregate-row change derived from a batch of base-table changes.
struct AggregateDelta {
  std::vector<Value> group;          // group-by values (view key)
  std::vector<ColumnDelta> deltas;   // indexes into the stored view row
};

// Per-view maintenance instruments, labeled `{view="<name>"}` so several
// maintainers can share one registry; see docs/OBSERVABILITY.md.
struct ViewMaintainerMetrics {
  obs::Counter* increments_applied;
  obs::Counter* ghosts_created;
  obs::Counter* ghost_create_races;  // lost creation race, retried
  obs::Counter* deferred_batches;
  obs::Counter* deferred_changes_coalesced;

  ViewMaintainerMetrics(obs::MetricsRegistry* registry,
                        const std::string& view_name);
};

// Maintains one indexed view inside user transactions.
//
// Aggregate path (the paper's contribution):
//   1. derive net per-group deltas from the base-table change(s);
//   2. for a missing group row, a *system transaction* inserts a ghost row
//      (count = 0) and commits immediately — creation is a representation
//      change, logically a no-op, so it needs no serialization against user
//      transactions;
//   3. the user transaction takes an E (escrow) lock on the view key, logs a
//      logical INCREMENT, and applies the delta in place under the tree
//      latch. Concurrent transactions incrementing the same row proceed in
//      parallel;
//   4. a group whose count reaches zero stays behind as a ghost; the
//      GhostCleaner reclaims it asynchronously (see ghost_cleaner.h).
//
// With Options::use_escrow = false the maintainer instead takes X locks and
// logs physical before/after UPDATE images — the conventional scheme the
// paper improves on; kept as the benchmark baseline.
class ViewMaintainer {
 public:
  struct Options {
    bool use_escrow = true;
    // Attempts of the ghost-creation/lock/recheck loop before giving up
    // with Busy (forces the caller to abort and retry the transaction).
    int max_apply_attempts = 16;
    // Unified metrics registry (`ivdb_view_*{view="..."}` instruments);
    // nullptr => the maintainer owns a private registry.
    obs::MetricsRegistry* metrics = nullptr;
    // Time source for the stabilize-loop backoff and flight-event
    // timestamps; nullptr => Clock::Default().
    Clock* clock = nullptr;
    // Engine flight recorder: view_maintain and ghost_create spans land on
    // the maintaining thread's lane. nullptr disables.
    obs::FlightRecorder* flight = nullptr;
  };

  ViewMaintainer(ViewDefinition definition, ObjectId view_id,
                 Schema fact_schema, std::optional<Schema> dimension_schema,
                 IndexResolver* resolver, LockManager* locks,
                 TransactionManager* txns, VersionStore* versions,
                 Options options);

  const ViewDefinition& definition() const { return def_; }
  ObjectId view_id() const { return view_id_; }
  const Schema& view_schema() const { return view_schema_; }
  const Schema& joined_schema() const { return joined_schema_; }
  const Options& options() const { return options_; }
  const ViewMaintainerMetrics& metrics() const { return metrics_; }

  // Maintains the view for one base-table change inside `txn` (immediate
  // timing). The caller must already hold the base-table locks.
  Status ApplyBaseChange(Transaction* txn, const DeferredChange& change);

  // Maintains the view for a whole transaction's changes at once (deferred
  // timing): per-group deltas are coalesced first, so k updates hitting one
  // group produce a single E lock + one INCREMENT record.
  Status ApplyBatch(Transaction* txn, const std::vector<DeferredChange>& batch);

  // Full evaluation of the view from current base-table contents (dirty
  // read). Used for initial population and as the consistency oracle in
  // tests. Ghosts (count == 0) do not appear. Streams the fact table one
  // chunk at a time through ApplyBatchOffline, so the caller must keep the
  // base tables still (a quiescent section) for a consistent result.
  Status Recompute(std::map<std::string, Row>* out) const;

  // Expands one base change into net aggregate deltas (visible for tests).
  Status ComputeAggregateDeltas(const std::vector<DeferredChange>& batch,
                                std::vector<AggregateDelta>* out) const;

  // Applies base-table changes to an *offline* view state (online build's
  // snapshot-scan accumulator and WAL-tail catch-up target): a plain
  // key → stored-row map instead of the live index. No locks, no logging,
  // no version store — the state is private to the build until the flip.
  // Join probes read the dimension tree dirtily, which is exact because
  // joined dimension tables reject DML. Aggregate groups driven to net
  // count 0 stay in the map as ghost rows (the flip installs them too; the
  // ghost cleaner reclaims them the same as after live maintenance).
  Status ApplyBatchOffline(const std::vector<DeferredChange>& batch,
                           std::map<std::string, Row>* state) const;

 private:
  Status ComputeAggregateDeltasImpl(const std::vector<DeferredChange>& batch,
                                    Transaction* txn,
                                    std::vector<AggregateDelta>* out) const;

  // (joined row, +1/-1) pairs produced by a change after join + filter.
  Status ExpandChange(const DeferredChange& change,
                      std::vector<std::pair<Row, int>>* out,
                      Transaction* txn) const;
  Status JoinAndFilter(const Row& fact_row, Transaction* txn,
                       std::optional<Row>* joined) const;

  Status ApplyAggregateDelta(Transaction* txn, const AggregateDelta& delta);
  Status ApplyProjectionChange(Transaction* txn, const DeferredChange& change);
  // Creates a committed ghost row for `key` via a system transaction, on
  // behalf of user transaction `owner`.
  Status CreateGhost(TxnId owner, const std::string& key,
                     const std::vector<Value>& group_values);
  Row GhostRow(const std::vector<Value>& group_values) const;

  const ViewDefinition def_;
  const ObjectId view_id_;
  const Schema fact_schema_;
  const std::optional<Schema> dimension_schema_;
  const Schema joined_schema_;
  const Schema view_schema_;

  IndexResolver* const resolver_;
  LockManager* const locks_;
  TransactionManager* const txns_;
  VersionStore* const versions_;
  const Options options_;
  Clock* const clock_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  mutable ViewMaintainerMetrics metrics_;
  // Escrow constraints derived from AggregateSpec::min_value.
  std::vector<VersionStore::ColumnBound> escrow_bounds_;
};

}  // namespace ivdb

#endif  // IVDB_VIEW_MAINTENANCE_H_
