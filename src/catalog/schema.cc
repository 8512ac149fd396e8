#include "catalog/schema.h"

#include "common/coding.h"

namespace ivdb {

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); i++) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch: expected " +
                                   std::to_string(columns_.size()) + ", got " +
                                   std::to_string(row.size()));
  }
  for (size_t i = 0; i < row.size(); i++) {
    if (row[i].type() != columns_[i].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     columns_[i].name + "'");
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); i++) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += TypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

std::string EncodeRow(const Row& row) {
  std::string out;
  PutVarint64(&out, row.size());
  for (const Value& v : row) {
    v.EncodeTo(&out);
  }
  return out;
}

Status DecodeRow(const Slice& data, Row* out) {
  Slice input = data;
  uint64_t n;
  if (!GetVarint64(&input, &n)) return Status::Corruption("row header");
  // Every value costs at least 2 bytes; a count beyond that is corrupt.
  // Validating before resize() keeps hostile headers from forcing a huge
  // allocation. Each value then decodes straight into its slot, so a reused
  // row keeps its allocation.
  if (n > input.size() / 2) return Status::Corruption("row count implausible");
  out->resize(n);
  for (Value& v : *out) IVDB_RETURN_NOT_OK(Value::DecodeFrom(&input, &v));
  if (!input.empty()) return Status::Corruption("trailing bytes after row");
  return Status::OK();
}

std::string EncodeKey(const Row& row, const std::vector<int>& key_columns) {
  std::string out;
  for (int idx : key_columns) {
    row[static_cast<size_t>(idx)].EncodeOrderedTo(&out);
  }
  return out;
}

std::string EncodeKeyValues(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    v.EncodeOrderedTo(&out);
  }
  return out;
}

Status DecodeKeyValues(const Slice& data, const std::vector<TypeId>& types,
                       std::vector<Value>* out) {
  Slice input = data;
  out->clear();
  out->reserve(types.size());
  for (TypeId t : types) {
    Value v;
    IVDB_RETURN_NOT_OK(Value::DecodeOrderedFrom(&input, t, &v));
    out->push_back(std::move(v));
  }
  if (!input.empty()) return Status::Corruption("trailing bytes after key");
  return Status::OK();
}

std::string RowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); i++) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace ivdb
