#ifndef IVDB_STORAGE_INCREMENT_H_
#define IVDB_STORAGE_INCREMENT_H_

#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/btree.h"
#include "wal/log_record.h"

namespace ivdb {

// Shared physical application of escrow increments. Every code path that
// touches aggregate rows — maintenance, rollback compensation, restart
// redo — funnels through these, so the arithmetic is identical everywhere.

// row[delta.column] += delta.delta, for every delta.
Status ApplyIncrementToRow(Row* row, const std::vector<ColumnDelta>& deltas);

// Decodes `value` into *row and strips every delta set in `subtract` (the
// increments a snapshot must not see; VersionStore::SnapshotView).
Status DecodeVisibleRow(const Slice& value,
                        const std::vector<std::vector<ColumnDelta>>& subtract,
                        Row* row);

// Atomic (tree-latched) in-place increment of an encoded row.
Status ApplyIncrementToTree(BTree* tree, const Slice& key,
                            const std::vector<ColumnDelta>& deltas);

}  // namespace ivdb

#endif  // IVDB_STORAGE_INCREMENT_H_
