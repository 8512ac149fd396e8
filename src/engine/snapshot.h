#ifndef IVDB_ENGINE_SNAPSHOT_H_
#define IVDB_ENGINE_SNAPSHOT_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "view/view_def.h"
#include "wal/log_record.h"

namespace ivdb {

// A full, transactionally-consistent image of the database taken by a
// fuzzy checkpoint: catalog, view definitions, id/timestamp high-water
// marks, and every index's contents as of the capture timestamp. Restart
// loads the newest image and replays the WAL from `redo_start_lsn`,
// skipping records at or below `checkpoint_lsn` unless their transaction
// is listed in `active_txns` (a transaction still in flight — or committed
// but not yet version-flipped — at capture time: none of its effects are
// in the image, so all of its records must replay).
struct SnapshotImage {
  Lsn checkpoint_lsn = kInvalidLsn;
  uint64_t clock_ts = 0;
  TxnId next_txn_id = 1;

  // MVCC timestamp the index images were captured at. Zero in images
  // written by pre-fuzzy builds (informational; recovery keys off
  // checkpoint_lsn + active_txns).
  uint64_t capture_ts = 0;

  // Lowest LSN recovery must read: min over active_txns' first LSNs, or
  // checkpoint_lsn + 1 when none were active. Segments entirely below this
  // are dead and retired after the checkpoint publishes.
  Lsn redo_start_lsn = kInvalidLsn;

  // Write-transactions whose effects are excluded from the image (see
  // above). Empty for a quiesced (DDL) checkpoint.
  std::vector<TxnId> active_txns;

  struct TableImage {
    ObjectId id = kInvalidObjectId;
    std::string name;
    Schema schema;
    std::vector<int> key_columns;
  };
  std::vector<TableImage> tables;

  struct ViewImage {
    ObjectId id = kInvalidObjectId;
    ViewDefinition def;
  };
  std::vector<ViewImage> views;

  std::vector<SecondaryIndexInfo> secondary_indexes;

  // (object id, BTree::SerializeTo payload) for every index.
  std::vector<std::pair<ObjectId, std::string>> indexes;

  // Online view builds in flight (or abandoned, awaiting recovery GC) at
  // capture time. Restart re-registers them so recovery's marker scan and
  // the offline tools (ivdb_dump) see the same build-state records the
  // running engine had.
  std::vector<ViewBuildState> view_builds;
};

// The checkpoint-horizon rule, shared by restart recovery (against the
// checkpoint image) and the online build's WAL-tail catch-up (against its
// snapshot scan): a record at or below `lsn` is already in the image unless
// its transaction was in flight at capture — those replay in full, even
// below it.
struct ImageHorizon {
  Lsn lsn = kInvalidLsn;
  std::set<TxnId> in_flight;

  bool Covers(const LogRecord& rec) const {
    return rec.lsn <= lsn && in_flight.count(rec.txn_id) == 0;
  }
};

// CRC-framed snapshot file codec.
Status EncodeSnapshot(const SnapshotImage& image, std::string* out);
Status DecodeSnapshot(const Slice& data, SnapshotImage* out);

}  // namespace ivdb

#endif  // IVDB_ENGINE_SNAPSHOT_H_
