// S1 (substrate benchmark): access-path costs. Not a paper table — this
// characterizes the storage engine the reproduction is built on, so the
// E1–E7 numbers can be interpreted (how much of a transaction is lock/log
// protocol vs raw storage work).
//
//   * point reads by primary key vs secondary-index lookups vs full scans,
//     across table sizes;
//   * the read-mode tax: dirty vs locking vs snapshot scans.
#include "bench_util.h"

#include "common/random.h"

using namespace ivdb;
using namespace ivdb::bench;

namespace {

std::unique_ptr<Database> BuildTable(int64_t rows, int64_t groups) {
  DatabaseOptions options;  // no commit latency: measuring storage, not log
  auto db = std::move(Database::Open(std::move(options))).value();
  Schema schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"payload", TypeId::kString}});
  IVDB_CHECK(db->CreateTable("t", schema, {0}).ok());
  IVDB_CHECK(db->CreateSecondaryIndex("t_by_grp", "t", {"grp"}).ok());
  Transaction* txn = db->Begin();
  for (int64_t i = 0; i < rows; i++) {
    Row row = {Value::Int64(i), Value::Int64(i % groups),
               Value::String("payload-" + std::to_string(i))};
    IVDB_CHECK(db->Insert(txn, "t", row).ok());
    if (i % 2000 == 1999) {
      IVDB_CHECK(db->Commit(txn).ok());
      db->Forget(txn);
      txn = db->Begin();
    }
  }
  IVDB_CHECK(db->Commit(txn).ok());
  db->Forget(txn);
  return db;
}

double MicrosPerOp(const std::function<void()>& op, int iters) {
  uint64_t start = NowMicros();
  for (int i = 0; i < iters; i++) op();
  return double(NowMicros() - start) / iters;
}

}  // namespace

int main() {
  PrintHeader("S1 bench_scan — access-path micro-costs of the substrate",
              "rows: table size; cells: µs per operation (dirty reads)");
  const std::vector<int> widths = {10, 12, 14, 14, 14};
  PrintRow({"rows", "pk-get-us", "idx-lookup-us", "full-scan-us",
            "range-1%-us"},
           widths);

  for (int64_t rows : {1000, 10000, 100000}) {
    const int64_t groups = 100;
    auto db = BuildTable(rows, groups);
    Random rng(7);
    Transaction* txn = db->Begin(ReadMode::kDirty);

    double pk = MicrosPerOp(
        [&] {
          int64_t id = static_cast<int64_t>(rng.Uniform(rows));
          auto row = db->Get(txn, "t", {Value::Int64(id)});
          IVDB_CHECK(row.ok() && row->has_value());
        },
        5000);
    double idx = MicrosPerOp(
        [&] {
          int64_t grp = static_cast<int64_t>(rng.Uniform(groups));
          auto hits = db->GetByIndex(txn, "t_by_grp", {Value::Int64(grp)});
          IVDB_CHECK(hits.ok() &&
                     hits->size() == static_cast<size_t>(rows / groups));
        },
        200);
    double scan = MicrosPerOp(
        [&] {
          auto all = db->ScanTable(txn, "t");
          IVDB_CHECK(all.ok() && all->size() == static_cast<size_t>(rows));
        },
        10);
    double range = MicrosPerOp(
        [&] {
          int64_t lo = static_cast<int64_t>(rng.Uniform(rows - rows / 100));
          auto some = db->ScanTableRange(txn, "t", {Value::Int64(lo)},
                                         {Value::Int64(lo + rows / 100)});
          IVDB_CHECK(some.ok());
        },
        200);
    (void)db->Commit(txn);

    PrintRow({std::to_string(rows), Fmt(pk, 2), Fmt(idx, 1), Fmt(scan, 0),
              Fmt(range, 1)},
             widths);
  }
  std::printf(
      "\nexpected shape: pk gets stay ~constant (B-tree depth), index\n"
      "lookups track selectivity, scans scale linearly.\n");

  PrintHeader("S1b — read-mode tax on scans of a 10k-row table",
              "locking adds one object lock; snapshot adds the version-store\n"
              "consultation: per chained key, plus per chunk a range-limited\n"
              "chain listing. 'loaded' = right after the bulk load, every key\n"
              "still chained (version GC is off by default); 'collected' =\n"
              "after GarbageCollectVersions(). 1% = a 100-key range scan;\n"
              "vs-dirty compares with the dirty scan of the same size");
  const std::vector<int> widths2 = {13, 12, 10, 14, 10};
  PrintRow({"mode", "loaded-us", "vs-dirty", "collected-us", "vs-dirty"},
           widths2);
  constexpr int64_t kS1bRows = 10000;
  constexpr int64_t kRangeRows = kS1bRows / 100;
  auto db = BuildTable(kS1bRows, 100);
  Random rng(11);
  // µs per scan of the whole table (range_rows 0) or of range_rows keys.
  auto time_scan = [&](ReadMode mode, int64_t range_rows) {
    return MicrosPerOp(
        [&] {
          Transaction* txn = db->Begin(mode);
          if (range_rows == 0) {
            auto all = db->ScanTable(txn, "t");
            IVDB_CHECK(all.ok() &&
                       all->size() == static_cast<size_t>(kS1bRows));
          } else {
            int64_t lo =
                static_cast<int64_t>(rng.Uniform(kS1bRows - range_rows));
            auto some = db->ScanTableRange(txn, "t", {Value::Int64(lo)},
                                           {Value::Int64(lo + range_rows)});
            IVDB_CHECK(some.ok() &&
                       some->size() == static_cast<size_t>(range_rows));
          }
          (void)db->Commit(txn);
          db->Forget(txn);
        },
        range_rows == 0 ? 10 : 200);
  };
  struct Cell {
    const char* name;
    ReadMode mode;
    int64_t range_rows;
  };
  const std::vector<Cell> cells = {
      {"dirty", ReadMode::kDirty, 0},
      {"locking", ReadMode::kLocking, 0},
      {"snapshot", ReadMode::kSnapshot, 0},
      {"dirty-1%", ReadMode::kDirty, kRangeRows},
      {"snapshot-1%", ReadMode::kSnapshot, kRangeRows}};
  std::vector<double> loaded, collected;
  for (const Cell& c : cells) loaded.push_back(time_scan(c.mode, c.range_rows));
  db->GarbageCollectVersions();
  IVDB_CHECK(db->version_store_entries() == 0);
  for (const Cell& c : cells) {
    collected.push_back(time_scan(c.mode, c.range_rows));
  }
  for (size_t i = 0; i < cells.size(); i++) {
    const size_t base = cells[i].range_rows == 0 ? 0 : 3;  // dirty, same size
    PrintRow({cells[i].name, Fmt(loaded[i], 0),
              Fmt(loaded[i] / loaded[base], 2), Fmt(collected[i], 0),
              Fmt(collected[i] / collected[base], 2)},
             widths2);
  }
  std::printf(
      "\nexpected shape: locking ~= dirty (one extra lock per scan);\n"
      "snapshot costs a few x while every key is chained (one consistent\n"
      "version lookup per key) and close to dirty once the chains are\n"
      "collected (leaf copies, one chain listing per chunk).\n");
  return 0;
}
