#include "storage/increment.h"

#include "common/invariant.h"

namespace ivdb {

Status ApplyIncrementToRow(Row* row, const std::vector<ColumnDelta>& deltas) {
  for (const ColumnDelta& d : deltas) {
    if (d.column >= row->size()) {
      return Status::Corruption("increment column out of range");
    }
    Value& cell = (*row)[d.column];
#if IVDB_CHECKS_ENABLED
    const TypeId type_before = cell.type();
    if (type_before == TypeId::kInt64 && !cell.is_null() &&
        !d.delta.is_null() && d.delta.type() == TypeId::kInt64) {
      // Escrow arithmetic must stay in range: a wrapped aggregate silently
      // corrupts every later bound check and snapshot reconstruction.
      int64_t sum_unused;
      IVDB_INVARIANT(!__builtin_add_overflow(cell.AsInt64(),
                                             d.delta.AsInt64(), &sum_unused),
                     "escrow increment overflows int64 aggregate");
    }
#endif
    IVDB_RETURN_NOT_OK(cell.AccumulateAdd(d.delta));
#if IVDB_CHECKS_ENABLED
    // Increments change magnitudes, never shape: type is preserved and the
    // result is non-null (AccumulateAdd rejects NULL operands).
    IVDB_INVARIANT(cell.type() == type_before,
                   "escrow increment changed the column type");
    IVDB_INVARIANT(!cell.is_null(), "escrow increment produced NULL");
#endif
  }
  return Status::OK();
}

Status DecodeVisibleRow(const Slice& value,
                        const std::vector<std::vector<ColumnDelta>>& subtract,
                        Row* row) {
  IVDB_RETURN_NOT_OK(DecodeRow(value, row));
  for (const auto& deltas : subtract) {
    for (const ColumnDelta& d : deltas) {
      IVDB_RETURN_NOT_OK((*row)[d.column].AccumulateAdd(d.delta.Negated()));
    }
  }
  return Status::OK();
}

Status ApplyIncrementToTree(BTree* tree, const Slice& key,
                            const std::vector<ColumnDelta>& deltas) {
  Status status;
  bool found = tree->ModifyInPlace(key, [&](std::string* value) {
    Row row;
    status = DecodeRow(*value, &row);
    if (!status.ok()) return;
    status = ApplyIncrementToRow(&row, deltas);
    if (!status.ok()) return;
    *value = EncodeRow(row);
  });
  if (!found) {
    return Status::NotFound("increment target row missing");
  }
  return status;
}

}  // namespace ivdb
