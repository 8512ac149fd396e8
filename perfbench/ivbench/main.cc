// ivbench: one seeded run of one workload against the public Database API.
//
//   ivbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--spans-out FILE] [--rows N] [--log-txns N]
//
// A run sets the database up several times (setup_s is the median), runs
// the workload's measured phase, and checks the engine's outputs against a
// shadow model of the acknowledged commits. It prints one JSON
// report line (fingerprint, every timing with its sample count, per-layer
// metrics with their bases, checks) and, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// ROUNDS AND PROBES. The measured phase is cut into kRounds rounds and
// every metric is the median over rounds, so that host noise lasting part
// of a run moves few rounds. Every workload reports every end-to-end
// metric; where the workload itself does not produce one, a fixed-size
// probe in each round does:
//   - escrow_* (no readers): after each round's writers stop, a chunk of
//     the read probe (kProbeReaders snapshot readers run view scans, then
//     range scans);
//   - every write workload ends each round with the restart probe: the
//     durable ones checkpoint, crash (drop the engine) and reopen in place;
//     the in-memory one reopens empty and reloads the acknowledged rows;
//   - restart runs a chunk of the commit probe and of the read probe on the
//     last copy each round recovered.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "engine/database.h"
#include "layers.h"
#include "trace.h"
#include "wal/log_manager.h"
#include "workload.h"

namespace ivbench {
namespace {

using ivdb::Database;
using ivdb::DatabaseOptions;
using ivdb::ReadMode;
using ivdb::Row;
using ivdb::Status;
using ivdb::Transaction;
using ivdb::Value;
namespace fs = std::filesystem;

// The repo's standard flush policy for durable workloads: a simulated
// stable-storage latency per WAL flush and a group-commit window worth a
// fraction of it, with SyncMode::kNone (no real fsync).
constexpr uint64_t kDeviceMicros = 1000;
constexpr uint64_t kGroupCommitWindowMicros = 50;
constexpr uint64_t kVersionGcIntervalMicros = 20000;
constexpr uint64_t kRestartSegmentBytes = 1ull << 20;
constexpr int kSetups = 3;
// The measured phase is cut into rounds; a trace run traces the odd ones.
constexpr int kRounds = 6;
constexpr int kProbeReaders = 2;
// Enough view scans per round that rare preemptions stay below 1% of them.
constexpr int kProbeViewScans = 120000;
constexpr int kProbeRangeScans = 6000;
constexpr uint64_t kProbeTxnsPerClient = 1500;
constexpr int kLoadBatch = 1000;
constexpr int kMaxRetries = 3;
constexpr int64_t kLoserAmount = 1000000;
constexpr int64_t kLoserIdBase = int64_t{1} << 50;
const char* const kTable = "sales";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string spans_out;
  int64_t rows = 100000;
  int64_t log_txns = 16000;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--spans-out") a->spans_out = v;
    else if (k == "--rows") a->rows = std::atoll(v.c_str());
    else if (k == "--log-txns") a->log_txns = std::atoll(v.c_str());
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->rows >= 4 * kRangeKeys && a->log_txns >= 2;
}

// --- JSON output -----------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Json {
 public:
  Json& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + Str(key) + ":" + raw;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Timings ---------------------------------------------------------------

struct Timing {
  size_t samples = 0;
  double p50_us = 0;
  double high_us = 0;    // the highest percentile the sample supports, <= 99
  double high_q = 0;
};

// p99 when at least ten of `n` samples lie beyond it, else the highest
// percentile that has ten (p50 for tiny samples).
double HighPercentile(size_t n) {
  const double d = static_cast<double>(n);
  return n > 20 ? std::min(99.0, 100.0 * (1.0 - 10.0 / d)) : 50.0;
}

// Nearest-rank percentiles.
Timing Summarize(std::vector<int64_t> ns) {
  Timing t;
  t.samples = ns.size();
  if (ns.empty()) return t;
  std::sort(ns.begin(), ns.end());
  const double n = static_cast<double>(ns.size());
  auto at = [&](double q) {
    size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, ns.size());
    return static_cast<double>(ns[rank - 1]) / 1000.0;
  };
  t.high_q = HighPercentile(ns.size());
  t.p50_us = at(50);
  t.high_us = at(t.high_q);
  return t;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// What one round of client threads (or one probe chunk) produced.
struct Tally {
  std::vector<int64_t> commit_ns;
  std::vector<int64_t> view_ns;
  std::vector<int64_t> range_ns;
  int64_t commit_wall_ns = 0;  // start to the writers' last commit
  int64_t view_wall_ns = 0;    // wall time the view scans ran in
};

// --- The run's shared state -------------------------------------------------

struct Run {
  Run(const Spec& s, Args a) : spec(s), args(std::move(a)) {}

  const Spec& spec;
  Args args;
  std::vector<FactRow> preload;
  std::vector<ClientStream> clients;
  // Newest id each writer has committed: readers place their ranges inside
  // the part of the key space every writer still holds.
  std::unique_ptr<std::atomic<int64_t>[]> tops;
  Tracer tracer;

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> retries{0};

  std::mutex mu;
  std::vector<std::string> check_failures;  // guarded by mu
  std::vector<std::string> op_failures;     // guarded by mu, first few only
  std::vector<std::string> checks_passed;   // guarded by mu

  void CheckFailed(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    check_failures.push_back(what);
  }
  void CheckPassed(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    checks_passed.push_back(what);
  }
  void OpFailed(const std::string& what) {
    failed++;
    std::lock_guard<std::mutex> g(mu);
    if (op_failures.size() < 8) op_failures.push_back(what);
  }
  SpanBuffer* Buffer(bool traced) {
    return traced ? tracer.NewBuffer() : nullptr;
  }

  void RestoreClients(const std::vector<ClientStream>& saved) {
    clients = saved;
    for (int c = 0; c < spec.writers; c++) tops[c].store(clients[c].top_id());
  }

  void ResetClients() {
    clients.clear();
    clients.reserve(spec.writers);
    tops = std::make_unique<std::atomic<int64_t>[]>(spec.writers);
    for (int c = 0; c < spec.writers; c++) {
      clients.emplace_back(spec, args.seed, c, spec.writers, args.rows,
                           preload);
      tops[c].store(clients.back().top_id());
    }
  }
};

// --- Database set-up --------------------------------------------------------

// Destroys an engine and hands its freed heap back to the OS, so that
// peak_rss_mb measures the engines a run holds at once, not what earlier
// instances left in the allocator.
void Drop(std::unique_ptr<Database>* db) {
  db->reset();
  malloc_trim(0);
}

Row RowOf(const FactRow& r) {
  return {Value::Int64(r.id), Value::Int64(r.grp), Value::Int64(r.region),
          Value::Int64(r.amount)};
}

DatabaseOptions OptionsFor(const Spec& spec, const std::string& dir) {
  DatabaseOptions o;
  if (spec.durable) {
    o.dir = dir;
    o.sync = ivdb::SyncMode::kNone;
    o.flush_delay_micros = kDeviceMicros;
    o.group_commit_window_micros = kGroupCommitWindowMicros;
    o.checkpoint_wal_bytes = spec.checkpoint_wal_bytes;
  }
  if (spec.kind == Kind::kRestart) o.wal_segment_bytes = kRestartSegmentBytes;
  o.start_ghost_cleaner = true;
  o.version_gc_interval_micros = kVersionGcIntervalMicros;
  return o;
}

std::string FlushPolicy(const Spec& spec) {
  if (!spec.durable) {
    return "in-memory (dir empty), flush_delay_micros=0, "
           "group_commit_window_micros=0";
  }
  return "durable: flush_delay_micros=" + std::to_string(kDeviceMicros) +
         " (simulated device), group_commit_window_micros=" +
         std::to_string(kGroupCommitWindowMicros) + ", SyncMode::kNone";
}

// Set-up and probe steps that must succeed for the run to mean anything.
void Must(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "ivbench: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

std::unique_ptr<Database> OpenOrDie(DatabaseOptions o) {
  auto db = Database::Open(std::move(o));
  Must(db.status(), "Database::Open");
  return std::move(db).value();
}

ivdb::ViewDefinition AggregateView(const char* name, ivdb::ObjectId fact,
                                   int group_column) {
  ivdb::ViewDefinition def;
  def.name = name;
  def.kind = ivdb::ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {group_column};
  def.aggregates = {{ivdb::AggregateFunction::kSum, 3, "total"}};
  return def;
}

// Creates the fact table, bulk-loads `rows` and builds both views.
void CreateSchema(Database* db, const std::vector<FactRow>& rows) {
  ivdb::Schema schema({{"id", ivdb::TypeId::kInt64},
                       {"grp", ivdb::TypeId::kInt64},
                       {"region", ivdb::TypeId::kInt64},
                       {"amount", ivdb::TypeId::kInt64}});
  auto table = db->CreateTable(kTable, std::move(schema), {0});
  Must(table.status(), "CreateTable");
  const ivdb::ObjectId fact = table.value()->id;
  for (size_t i = 0; i < rows.size(); i += kLoadBatch) {
    Transaction* txn = db->Begin();
    for (size_t j = i; j < std::min(rows.size(), i + kLoadBatch); j++) {
      Must(db->Insert(txn, kTable, RowOf(rows[j])), "preload insert");
    }
    Must(db->Commit(txn), "preload commit");
    db->Forget(txn);
  }
  Must(db->CreateIndexedView(AggregateView("by_grp", fact, 1)).status(),
       "CreateIndexedView by_grp");
  Must(db->CreateIndexedView(AggregateView("by_region", fact, 2)).status(),
       "CreateIndexedView by_region");
}

// --- Requests ---------------------------------------------------------------

struct Outcome {
  Status status;
  int64_t ns = 0;  // Begin to the return of Commit
};

Outcome RunWrite(Database* db, const WriteTxn& t, SpanBuffer* buf) {
  Request req(buf, SpanName::kWriteTxn);
  const Row ins = RowOf(t.insert);
  const std::vector<Value> del = {Value::Int64(t.delete_id)};
  const Row upd = RowOf(t.update);
  const int64_t start = NowNanos();
  Transaction* txn = req.Call(SpanName::kBegin, [&] { return db->Begin(); });
  Status s = req.Call(SpanName::kInsert,
                      [&] { return db->Insert(txn, kTable, ins); });
  if (s.ok()) {
    s = req.Call(SpanName::kDelete,
                 [&] { return db->Delete(txn, kTable, del); });
  }
  if (s.ok()) {
    s = req.Call(SpanName::kUpdate,
                 [&] { return db->Update(txn, kTable, upd); });
  }
  if (s.ok() && t.churn.has_value()) {
    const Row churn = RowOf(*t.churn);
    const std::vector<Value> churn_key = {Value::Int64(t.churn->id)};
    s = req.Call(SpanName::kInsert,
                 [&] { return db->Insert(txn, kTable, churn); });
    if (s.ok()) {
      s = req.Call(SpanName::kDelete,
                   [&] { return db->Delete(txn, kTable, churn_key); });
    }
  }
  if (s.ok()) s = req.Call(SpanName::kCommit, [&] { return db->Commit(txn); });
  const int64_t end = NowNanos();
  if (!s.ok() && txn->state() == ivdb::TxnState::kActive) {
    Status aborted = req.Call(SpanName::kAbort, [&] { return db->Abort(txn); });
    if (!aborted.ok()) s = aborted;
  }
  db->Forget(txn);
  return {s, end - start};
}

// A snapshot scan of by_grp. Every write transaction keeps the fact table
// at exactly `rows` rows, so the groups' counts of any snapshot add up to
// it.
Outcome ViewScan(Run& run, Database* db, SpanBuffer* buf) {
  Request req(buf, SpanName::kViewScanReq);
  const int64_t start = NowNanos();
  Transaction* txn = req.Call(SpanName::kBegin,
                              [&] { return db->Begin(ReadMode::kSnapshot); });
  auto rows = req.Call(SpanName::kScanView,
                       [&] { return db->ScanView(txn, "by_grp"); });
  Status s = req.Call(SpanName::kCommit, [&] { return db->Commit(txn); });
  const int64_t end = NowNanos();
  db->Forget(txn);
  if (!rows.ok()) return {rows.status(), end - start};
  int64_t count = 0;
  for (const Row& r : rows.value()) count += r[1].AsInt64();
  if (count != run.args.rows) {
    run.CheckFailed("view scan: group counts add up to " +
                    std::to_string(count) + ", expected " +
                    std::to_string(run.args.rows));
  }
  return {s, end - start};
}

// Picks a range of kRangeKeys ids that every writer's live window covers,
// with a margin on both sides, so the snapshot must return all of them.
int64_t PickRange(Run& run, ivdb::Random* rng) {
  int64_t lo_top = INT64_MAX, hi_top = INT64_MIN;
  for (int c = 0; c < run.spec.writers; c++) {
    int64_t t = run.tops[c].load();
    lo_top = std::min(lo_top, t);
    hi_top = std::max(hi_top, t);
  }
  const int64_t margin = run.args.rows / 10;
  const int64_t low = hi_top - run.args.rows + run.spec.writers + margin;
  const int64_t high = lo_top - margin - kRangeKeys;
  if (high <= low) return std::max<int64_t>(0, low);
  return low + static_cast<int64_t>(rng->Uniform(high - low + 1));
}

Outcome RangeScan(Run& run, Database* db, SpanBuffer* buf, int64_t lo) {
  Request req(buf, SpanName::kRangeScanReq);
  const std::vector<Value> low = {Value::Int64(lo)};
  const std::vector<Value> high = {Value::Int64(lo + kRangeKeys)};
  const int64_t start = NowNanos();
  Transaction* txn = req.Call(SpanName::kBegin,
                              [&] { return db->Begin(ReadMode::kSnapshot); });
  auto rows = req.Call(SpanName::kScanRange, [&] {
    return db->ScanTableRange(txn, kTable, low, high);
  });
  Status s = req.Call(SpanName::kCommit, [&] { return db->Commit(txn); });
  const int64_t end = NowNanos();
  db->Forget(txn);
  if (!rows.ok()) return {rows.status(), end - start};
  const std::vector<Row>& got = rows.value();
  bool ordered = static_cast<int64_t>(got.size()) == kRangeKeys;
  for (size_t i = 0; ordered && i < got.size(); i++) {
    ordered = got[i][0].AsInt64() == lo + static_cast<int64_t>(i);
  }
  if (!ordered) {
    run.CheckFailed("range scan [" + std::to_string(lo) + ", +" +
                    std::to_string(kRangeKeys) + "): got " +
                    std::to_string(got.size()) +
                    " rows, not every key in order");
  }
  return {s, end - start};
}

// --- Client threads ---------------------------------------------------------

void WriterLoop(Run& run, Database* db, int c, SpanBuffer* buf,
                const std::atomic<bool>& stop, uint64_t max_txns, Tally* out,
                int64_t start_ns) {
  ClientStream& stream = run.clients[c];
  for (uint64_t done = 0; done < max_txns && !stop.load();) {
    WriteTxn t = stream.Next();
    for (int attempt = 0;; attempt++) {
      Outcome o = RunWrite(db, t, buf);
      run.attempted++;
      if (o.status.ok()) {
        stream.Ack(t);
        run.tops[c].store(t.insert.id);
        out->commit_ns.push_back(o.ns);
        out->commit_wall_ns = NowNanos() - start_ns;
        done++;
        break;
      }
      run.OpFailed("write txn: " + o.status.ToString());
      if (attempt >= kMaxRetries || !(o.status.IsTransient() ||
                                      o.status.RequiresRollback())) {
        break;
      }
      run.retries++;
    }
  }
}

// Dashboard reader: alternates a view scan and a range scan.
void ReaderLoop(Run& run, Database* db, int r, SpanBuffer* buf,
                const std::atomic<bool>& stop, Tally* out, int64_t start_ns) {
  ivdb::Random rng(StreamSeed(run.args.seed, 1000 + r));
  for (uint64_t i = 0; !stop.load(); i++) {
    const bool view = i % 2 == 0;
    Outcome o = view ? ViewScan(run, db, buf)
                     : RangeScan(run, db, buf, PickRange(run, &rng));
    run.attempted++;
    if (!o.status.ok()) {
      run.OpFailed(std::string(view ? "view" : "range") +
                   " scan: " + o.status.ToString());
      continue;
    }
    (view ? out->view_ns : out->range_ns).push_back(o.ns);
    out->view_wall_ns = NowNanos() - start_ns;
  }
}

void Append(std::vector<int64_t>* to, const std::vector<int64_t>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// Runs the spec's writers (and `readers` dashboard readers) for `seconds`,
// or until every writer has committed `max_txns`.
Tally RunClients(Run& run, Database* db, double seconds, uint64_t max_txns,
                 int readers, bool traced) {
  std::atomic<bool> stop{false};
  const int writers = run.spec.writers;
  std::vector<Tally> tallies(writers + readers);
  std::vector<std::thread> threads;
  const int64_t start = NowNanos();
  for (int c = 0; c < writers; c++) {
    threads.emplace_back([&, c, buf = run.Buffer(traced)] {
      WriterLoop(run, db, c, buf, stop, max_txns, &tallies[c], start);
    });
  }
  for (int r = 0; r < readers; r++) {
    threads.emplace_back([&, r, buf = run.Buffer(traced)] {
      ReaderLoop(run, db, r, buf, stop, &tallies[writers + r], start);
    });
  }
  if (max_txns == UINT64_MAX) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
  } else {
    // Fixed work: the readers (if any) stop once the writers are done.
    for (int c = 0; c < writers; c++) threads[c].join();
    stop = true;
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  Tally all;
  for (const Tally& t : tallies) {
    Append(&all.commit_ns, t.commit_ns);
    Append(&all.view_ns, t.view_ns);
    Append(&all.range_ns, t.range_ns);
    all.commit_wall_ns = std::max(all.commit_wall_ns, t.commit_wall_ns);
    all.view_wall_ns = std::max(all.view_wall_ns, t.view_wall_ns);
  }
  return all;
}

double RoundTps(const Tally& t) {
  return t.commit_wall_ns > 0 ? 1e9 * static_cast<double>(t.commit_ns.size()) /
                                    static_cast<double>(t.commit_wall_ns)
                              : 0;
}

double RoundViewRate(const Tally& t) {
  return t.view_wall_ns > 0 ? 1e9 * static_cast<double>(t.view_ns.size()) /
                                  static_cast<double>(t.view_wall_ns)
                            : 0;
}

double MedianOver(const std::vector<Tally>& rounds,
                  const std::function<double(const Tally&)>& stat) {
  std::vector<double> v;
  for (const Tally& t : rounds) v.push_back(stat(t));
  return Median(v);
}

// --- Checks -----------------------------------------------------------------

// Both views, read in one snapshot, against the shadow of acknowledged
// commits: same groups, same COUNT and SUM per group.
void CompareShadow(Run& run, Database* db, const std::string& when) {
  const ShadowViews shadow = ShadowOf(run.clients);
  Transaction* txn = db->Begin(ReadMode::kSnapshot);
  const std::pair<const char*, const Aggregates*> views[] = {
      {"by_grp", &shadow.by_grp}, {"by_region", &shadow.by_region}};
  bool ok = true;
  for (const auto& [view, expected] : views) {
    auto rows = db->ScanView(txn, view);
    if (!rows.ok()) {
      run.CheckFailed(when + ": ScanView(" + view +
                      "): " + rows.status().ToString());
      ok = false;
      continue;
    }
    Aggregates got;
    for (const Row& r : rows.value()) {
      got[r[0].AsInt64()] = {r[1].AsInt64(), r[2].AsInt64()};
    }
    if (got != *expected) {
      run.CheckFailed(when + ": " + view +
                      " differs from the shadow of acknowledged commits (" +
                      std::to_string(got.size()) + " groups vs " +
                      std::to_string(expected->size()) + ")");
      ok = false;
    }
  }
  (void)db->Commit(txn);
  db->Forget(txn);
  for (const char* view : {"by_grp", "by_region"}) {
    Status s = db->VerifyViewConsistency(view);
    if (!s.ok()) {
      run.CheckFailed(when + ": VerifyViewConsistency(" + view +
                      "): " + s.ToString());
      ok = false;
    }
  }
  if (ok) run.CheckPassed(when + ": views match shadow and recompute");
}

// After a restart: each writer's newest acknowledged row is present and
// neither loser's row is.
void CheckRestartRows(Run& run, Database* db, const std::string& when) {
  Transaction* txn = db->Begin(ReadMode::kSnapshot);
  bool ok = true;
  for (const ClientStream& c : run.clients) {
    const FactRow& newest = c.live().back();
    auto row = db->Get(txn, kTable, {Value::Int64(newest.id)});
    if (!row.ok() || !row.value().has_value() ||
        (*row.value())[3].AsInt64() != newest.amount) {
      run.CheckFailed(when + ": acknowledged row " +
                      std::to_string(newest.id) + " missing");
      ok = false;
    }
  }
  for (int64_t id : {kLoserIdBase, kLoserIdBase + 1}) {
    auto row = db->Get(txn, kTable, {Value::Int64(id)});
    if (!row.ok() || row.value().has_value()) {
      run.CheckFailed(when + ": loser row " + std::to_string(id) +
                      " survived recovery");
      ok = false;
    }
  }
  (void)db->Commit(txn);
  db->Forget(txn);
  if (ok) run.CheckPassed(when + ": acknowledged rows present, losers absent");
}

// --- Phases -----------------------------------------------------------------

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

// Writes the restart workload's fixed log: the preload, then log_txns
// seeded transactions from the writers (each its own stream), a quiescent
// checkpoint half way, and two losers left in flight. The directory is then
// frozen through FaultInjectionEnv, which keeps only synced bytes, and the
// engine dropped without shutdown work.
void WriteRestartLog(Run& run, const std::string& dir) {
  ivdb::FaultInjectionEnv env(run.args.seed);
  DatabaseOptions o = OptionsFor(run.spec, dir);
  o.env = &env;
  // Sync() through FaultInjectionEnv only advances its durable watermark, so
  // the freeze below keeps exactly what each commit flushed.
  o.sync = ivdb::SyncMode::kFsync;
  o.flush_delay_micros = 0;  // the log's content matters here, not its pace
  std::unique_ptr<Database> db = OpenOrDie(o);
  CreateSchema(db.get(), run.preload);
  run.ResetClients();
  const uint64_t per_client = run.args.log_txns / (2 * run.spec.writers);
  (void)RunClients(run, db.get(), 0, per_client, 0, false);
  Must(db->Checkpoint(), "mid-log checkpoint");
  (void)RunClients(run, db.get(), 0, per_client, 0, false);
  for (int64_t k = 0; k < 2; k++) {
    Transaction* loser = db->Begin();
    FactRow r{kLoserIdBase + k, k, k, kLoserAmount};
    Must(db->Insert(loser, kTable, RowOf(r)), "loser insert");
  }
  Must(db->FlushWal(), "FlushWal");
  env.CrashAtOp(env.ops_issued());
  (void)env.EnsureDirectory(dir);  // the next mutation freezes the files
  Drop(&db);
}

// One timed Database::Open (recovery) of `dir`, under `req`'s span.
struct Opened {
  std::unique_ptr<Database> db;
  double seconds = 0;
  RecoverySample sample;
};

Opened OpenTimed(Run& run, Request& req, const std::string& dir) {
  Opened out;
  auto segments = ivdb::LogManager::ListSegmentFiles(dir);
  Must(segments.status(), "ListSegmentFiles");
  out.sample.segments = segments.value().size();
  for (const std::string& name : segments.value()) {
    out.sample.wal_bytes += fs::file_size(fs::path(dir) / name);
  }
  const int64_t start = NowNanos();
  auto db = req.Call(SpanName::kOpen,
                     [&] { return Database::Open(OptionsFor(run.spec, dir)); });
  out.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  run.attempted++;
  Must(db.status(), "recovery Open");
  out.db = std::move(db).value();
  out.sample.segment_micros = out.db->metrics_registry()
                                  ->GetHistogram("ivdb_recovery_segment_micros")
                                  ->Snap();
  return out;
}

// The restart probe of a write workload, run at the end of every round: a
// durable database (checkpointed when its writers stopped) crashes, i.e.
// the engine is dropped with no shutdown work, and is reopened in place; an
// in-memory one is reopened empty and reloaded with the acknowledged rows
// and both views. The next round runs on the restarted database. Returns
// the seconds the restart took.
double Restart(Run& run, std::unique_ptr<Database>* db, const std::string& dir,
               bool traced, LayerInputs* layers) {
  Request req(run.Buffer(traced), SpanName::kRestartReq);
  if (run.spec.durable) {
    Drop(db);
    Opened o = OpenTimed(run, req, dir);
    layers->recoveries.push_back(o.sample);
    *db = std::move(o.db);
    return o.seconds;
  }
  Drop(db);
  std::vector<FactRow> rows;
  for (const ClientStream& c : run.clients) {
    rows.insert(rows.end(), c.live().begin(), c.live().end());
  }
  std::sort(rows.begin(), rows.end(),
            [](const FactRow& a, const FactRow& b) { return a.id < b.id; });
  const int64_t start = NowNanos();
  *db = req.Call(SpanName::kOpen,
                 [&] { return OpenOrDie(OptionsFor(run.spec, "")); });
  CreateSchema(db->get(), rows);
  run.attempted++;
  return static_cast<double>(NowNanos() - start) / 1e9;
}

// One chunk of the read probe: kProbeReaders snapshot readers, each
// running its share of the chunk's view scans, then of its range scans,
// while no writer runs. The probe is cut into one chunk per round so that
// it samples the whole run, and runs one reader per core so that a core
// that is briefly slow moves only its share of the samples.
void RunReadChunk(Run& run, Database* db, bool traced, Tally* out) {
  std::vector<Tally> parts(kProbeReaders);
  std::vector<std::thread> readers;
  const int64_t start = NowNanos();
  std::atomic<int> views_left{kProbeReaders};
  std::atomic<int64_t> views_done_ns{0};
  for (int k = 0; k < kProbeReaders; k++) {
    readers.emplace_back([&, k, buf = run.Buffer(traced)] {
      Tally& part = parts[k];
      ivdb::Random rng(
          StreamSeed(run.args.seed, 2000 + k + out->range_ns.size()));
      for (int i = 0; i < kProbeViewScans / kRounds / kProbeReaders; i++) {
        Outcome o = ViewScan(run, db, buf);
        run.attempted++;
        if (!o.status.ok()) run.OpFailed("view scan: " + o.status.ToString());
        else part.view_ns.push_back(o.ns);
      }
      if (--views_left == 0) views_done_ns = NowNanos() - start;
      for (int i = 0; i < kProbeRangeScans / kRounds / kProbeReaders; i++) {
        Outcome o = RangeScan(run, db, buf, PickRange(run, &rng));
        run.attempted++;
        if (!o.status.ok()) run.OpFailed("range scan: " + o.status.ToString());
        else part.range_ns.push_back(o.ns);
      }
    });
  }
  for (auto& r : readers) r.join();
  for (const Tally& part : parts) {
    Append(&out->view_ns, part.view_ns);
    Append(&out->range_ns, part.range_ns);
  }
  out->view_wall_ns = views_done_ns.load();
}

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string extra;  // report-only JSON fields, e.g. sample counts
};

struct SpanStats {
  size_t spans = 0;
  size_t malformed = 0;
  double begin_us = 0;
  double commit_us = 0;
  double stmt_us = 0;
};

// Means of the write transactions' engine calls, and a well-formedness
// check: every span ends at or after its start, and every parent exists
// and belongs to the same request.
SpanStats AnalyzeSpans(const Tracer& tracer) {
  SpanStats st;
  std::vector<const Span*> all = tracer.All();
  st.spans = all.size();
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(all.size());
  for (const Span* s : all) by_id[s->id] = s;
  double sum[3] = {0, 0, 0};
  uint64_t n[3] = {0, 0, 0};
  for (const Span* s : all) {
    bool ok = s->end_ns >= s->start_ns;
    if (s->parent != 0) {
      auto it = by_id.find(s->parent);
      ok = ok && it != by_id.end() && it->second->request == s->request;
      if (ok && it->second->name == SpanName::kWriteTxn) {
        int k = s->name == SpanName::kBegin    ? 0
                : s->name == SpanName::kCommit ? 1
                : (s->name == SpanName::kInsert ||
                   s->name == SpanName::kUpdate ||
                   s->name == SpanName::kDelete)
                    ? 2
                    : -1;
        if (k >= 0) {
          sum[k] += static_cast<double>(s->end_ns - s->start_ns) / 1000.0;
          n[k]++;
        }
      }
    } else {
      ok = ok && s->request == s->id;
    }
    if (!ok) st.malformed++;
  }
  st.begin_us = n[0] > 0 ? sum[0] / n[0] : 0;
  st.commit_us = n[1] > 0 ? sum[1] / n[1] : 0;
  st.stmt_us = n[2] > 0 ? sum[2] / n[2] : 0;
  return st;
}

// Per-round values behind the round medians, to show the spread inside
// one run.
std::string RoundsJson(const std::vector<Tally>& rounds) {
  auto series = [&](const std::function<double(const Tally&)>& stat) {
    std::string out = "[";
    for (const Tally& t : rounds) {
      if (out.size() > 1) out += ',';
      out += Num(stat(t));
    }
    return out + "]";
  };
  return Json()
      .Add("commit_tps", series(RoundTps))
      .Add("commit_p50_us",
           series([](const Tally& t) { return Summarize(t.commit_ns).p50_us; }))
      .Add("commit_p99_us",
           series([](const Tally& t) { return Summarize(t.commit_ns).high_us; }))
      .Add("view_scan_per_s", series(RoundViewRate))
      .Add("view_scan_p50_us",
           series([](const Tally& t) { return Summarize(t.view_ns).p50_us; }))
      .Add("view_scan_p99_us",
           series([](const Tally& t) { return Summarize(t.view_ns).high_us; }))
      .Add("range_scan_p50_us",
           series([](const Tally& t) { return Summarize(t.range_ns).p50_us; }))
      .Done();
}

std::string Fingerprint(const Spec& spec) {
  return Json()
      .Add("nproc", Num(std::thread::hardware_concurrency()))
      .Add("compiler", Str(std::string("g++ ") + __VERSION__))
      .Add("cmake_build_type", Str(IVBENCH_BUILD_TYPE))
      .Add("ivdb_checks", IVBENCH_CHECKS ? "true" : "false")
      .Add("flush_policy", Str(FlushPolicy(spec)))
      .Done();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ivbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans-out FILE] "
                 "[--rows N>=%lld] [--log-txns N]\n",
                 static_cast<long long>(4 * kRangeKeys));
    return 2;
  }
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "ivbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Run run(*spec, args);
  const bool traced = args.trace;
  const std::string base =
      (fs::path(args.work_dir) / (std::string(spec->name) + "-" +
                                  std::to_string(::getpid())))
          .string();
  fs::remove_all(base);
  fs::create_directories(base);
  const std::string dir = base + "/db";
  run.preload = PreloadRows(*spec, args.seed, args.rows);

  // Set-up, kSetups times; the last instance is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  for (int i = 0; i < kSetups; i++) {
    Drop(&db);
    fs::remove_all(dir);
    const int64_t start = NowNanos();
    if (spec->kind == Kind::kRestart) {
      WriteRestartLog(run, dir);
    } else {
      db = OpenOrDie(OptionsFor(*spec, dir));
      CreateSchema(db.get(), run.preload);
    }
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  if (spec->kind == Kind::kWrite) run.ResetClients();
  // Only the measured phases count as attempted operations.
  if (run.failed.load() > 0) {
    run.CheckFailed("set-up: " + std::to_string(run.failed.load()) +
                    " failed transactions");
  }
  run.attempted = 0;
  run.failed = 0;
  run.retries = 0;

  LayerInputs layers;
  std::vector<Tally> rounds;         // untraced rounds of the measured phase
  std::vector<Tally> traced_rounds;  // traced rounds (trace runs only)
  std::vector<double> recovery_s;
  const uint64_t kNoLimit = UINT64_MAX;

  if (spec->kind == Kind::kWrite) {
    // The measured window, in rounds. A readerless workload runs one chunk
    // of the read probe after each round's writers stop; every round ends
    // with the restart probe.
    for (int r = 0; r < kRounds; r++) {
      const bool round_traced = traced && r % 2 == 1;
      const EngineSample before = TakeSample(db.get());
      Tally t = RunClients(run, db.get(), args.seconds / kRounds, kNoLimit,
                           spec->readers, round_traced);
      if (spec->durable) {
        // Before the read chunk, so that no background checkpoint overlaps
        // it, and so that the restart below replays a short WAL tail.
        Request req(run.Buffer(round_traced), SpanName::kCheckpointReq);
        Must(req.Call(SpanName::kCheckpoint, [&] { return db->Checkpoint(); }),
             "Checkpoint");
      }
      if (spec->readers == 0) RunReadChunk(run, db.get(), round_traced, &t);
      if (r == kRounds - 1) layers.gauges = ReadStorageGauges(db.get());
      AddDelta(before, TakeSample(db.get()), &layers.delta);
      (round_traced ? traced_rounds : rounds).push_back(std::move(t));
      const bool check = r == 0 || r == kRounds - 1;
      if (check) CompareShadow(run, db.get(), "before restart");
      const double seconds = Restart(run, &db, dir, round_traced, &layers);
      if (!round_traced) recovery_s.push_back(seconds);
      if (check) CompareShadow(run, db.get(), "after restart");
    }
  } else {
    // restart: each round recovers pristine copies of the frozen directory
    // for its share of the time, then runs one chunk of the commit probe
    // and one of the read probe on its last recovered copy. Every round
    // starts from the same log, so the shadow is rewound after each.
    const std::vector<ClientStream> logged = run.clients;
    const int64_t start = NowNanos();
    for (int r = 0; r < kRounds; r++) {
      const bool round_traced = traced && r % 2 == 1;
      const double until_ns = args.seconds * 1e9 * (r + 1) / kRounds;
      Opened o;
      for (int i = 0; i == 0 || NowNanos() - start < until_ns; i++) {
        Drop(&o.db);  // its directory is the copy about to be replaced
        CopyDir(dir, base + "/copy");
        Request req(run.Buffer(round_traced), SpanName::kRestartReq);
        o = OpenTimed(run, req, base + "/copy");
        if (!round_traced) recovery_s.push_back(o.seconds);
        layers.recoveries.push_back(o.sample);
        if (r == 0 && i == 0) CompareShadow(run, o.db.get(), "after recovery");
        CheckRestartRows(run, o.db.get(), "after recovery");
      }
      const EngineSample before = TakeSample(o.db.get());
      Tally t = RunClients(run, o.db.get(), 0, kProbeTxnsPerClient / kRounds,
                           0, round_traced);
      RunReadChunk(run, o.db.get(), round_traced, &t);
      if (r == kRounds - 1) layers.gauges = ReadStorageGauges(o.db.get());
      AddDelta(before, TakeSample(o.db.get()), &layers.delta);
      if (r == 0) CompareShadow(run, o.db.get(), "after commit probe");
      (round_traced ? traced_rounds : rounds).push_back(std::move(t));
      Drop(&o.db);
      run.RestoreClients(logged);
    }
  }
  Drop(&db);
  fs::remove_all(base);
  for (const auto* group : {&rounds, &traced_rounds}) {
    for (const Tally& t : *group) layers.txns += t.commit_ns.size();
  }

  // --- Report ---
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // Every round is a complete measurement; a run reports the median round,
  // so a host that is slow for part of the run moves few rounds.
  const double commit_tps = MedianOver(rounds, RoundTps);
  auto p50 = [](std::vector<int64_t> Tally::*field) {
    return [field](const Tally& t) { return Summarize(t.*field).p50_us; };
  };
  auto high = [](std::vector<int64_t> Tally::*field) {
    return [field](const Tally& t) { return Summarize(t.*field).high_us; };
  };
  // Sample counts, and the percentile the "p99" of the smallest round
  // really is (p99 needs 1000 samples in a round).
  auto samples = [&](std::vector<int64_t> Tally::*field) {
    size_t total = 0, least = SIZE_MAX;
    for (const Tally& t : rounds) {
      total += (t.*field).size();
      least = std::min(least, (t.*field).size());
    }
    return Json()
        .Add("samples", Num(static_cast<double>(total)))
        .Add("rounds", Num(static_cast<double>(rounds.size())))
        .Add("high_percentile", Num(HighPercentile(total > 0 ? least : 0)))
        .Done();
  };
  const std::string commits = samples(&Tally::commit_ns);
  const std::string views = samples(&Tally::view_ns);
  const std::string ranges = samples(&Tally::range_ns);
  const std::vector<Metric> e2e = {
      {"setup_s", "s", Median(setup_s),
       Json().Add("samples", Num(setup_s.size())).Done()},
      {"commit_tps", "1/s", commit_tps, commits},
      {"commit_p50_us", "us", MedianOver(rounds, p50(&Tally::commit_ns)),
       commits},
      {"commit_p99_us", "us", MedianOver(rounds, high(&Tally::commit_ns)),
       commits},
      {"view_scan_per_s", "1/s", MedianOver(rounds, RoundViewRate), views},
      {"view_scan_p50_us", "us", MedianOver(rounds, p50(&Tally::view_ns)),
       views},
      {"view_scan_p99_us", "us", MedianOver(rounds, high(&Tally::view_ns)),
       views},
      {"range_scan_p50_us", "us", MedianOver(rounds, p50(&Tally::range_ns)),
       ranges},
      {"range_scan_p99_us", "us", MedianOver(rounds, high(&Tally::range_ns)),
       ranges},
      {"recovery_s", "s", Median(recovery_s),
       Json().Add("samples", Num(recovery_s.size())).Done()},
      {"peak_rss_mb", "MB", peak_rss_mb, "{}"},
  };

  const SpanStats spans = AnalyzeSpans(run.tracer);
  if (spans.malformed > 0) {
    run.CheckFailed(std::to_string(spans.malformed) + " malformed spans");
  }
  layers.retries = run.retries.load();
  layers.begin_us = spans.begin_us;
  layers.commit_call_us = spans.commit_us;
  layers.stmt_us = spans.stmt_us;
  layers.trace_overhead_ratio =
      traced && commit_tps > 0 ? MedianOver(traced_rounds, RoundTps) /
                                     commit_tps
                               : 0;
  const std::vector<LayerMetric> per_layer = DeriveLayerMetrics(layers);
  if (!args.spans_out.empty() && traced &&
      !run.tracer.WriteTsv(args.spans_out)) {
    run.CheckFailed("could not write spans to " + args.spans_out);
  }

  const uint64_t attempted = run.attempted.load();
  const uint64_t failed = run.failed.load();
  Json e2e_json, layer_json, result_metrics;
  for (const Metric& m : e2e) {
    std::string extra = m.extra.substr(1, m.extra.size() - 2);
    e2e_json.Add(m.name, "{\"value\":" + Num(m.value) + ",\"unit\":" +
                             Str(m.unit) + (extra.empty() ? "" : ",") + extra +
                             "}");
    if (!traced) {
      result_metrics.Add(m.name, Json()
                                     .Add("value", Num(m.value))
                                     .Add("unit", Str(m.unit))
                                     .Done());
    }
  }
  for (const LayerMetric& m : per_layer) {
    layer_json.Add(m.name, Json()
                               .Add("value", Num(m.value))
                               .Add("unit", Str(m.unit))
                               .Add("base", Str(m.base))
                               .Done());
    if (traced) {
      result_metrics.Add(m.name, Json()
                                     .Add("value", Num(m.value))
                                     .Add("unit", Str(m.unit))
                                     .Done());
    }
  }
  auto list = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (const std::string& e : v) {
      if (out.size() > 1) out += ',';
      out += Str(e);
    }
    return out + "]";
  };
  const bool correct = run.check_failures.empty();
  std::printf(
      "%s\n",
      Json()
          .Add("report",
               Json()
                   .Add("workload", Str(spec->name))
                   .Add("why", Str(spec->why))
                   .Add("seed", Num(static_cast<double>(args.seed)))
                   .Add("seconds", Num(args.seconds))
                   .Add("trace", traced ? "1" : "0")
                   .Add("rows", Num(static_cast<double>(args.rows)))
                   .Add("fingerprint", Fingerprint(*spec))
                   .Add("end_to_end", e2e_json.Done())
                   .Add("op_fail_ratio",
                        Json()
                            .Add("value", Num(attempted > 0
                                                  ? double(failed) / attempted
                                                  : 0))
                            .Add("unit", Str("ratio"))
                            .Add("base", Str("attempted=" +
                                             std::to_string(attempted)))
                            .Done())
                   .Add("rounds", RoundsJson(rounds))
                   .Add("per_layer", layer_json.Done())
                   .Add("spans", Json()
                                     .Add("count", Num(double(spans.spans)))
                                     .Add("malformed",
                                          Num(double(spans.malformed)))
                                     .Done())
                   .Add("checks_passed", list(run.checks_passed))
                   .Add("check_failures", list(run.check_failures))
                   .Add("op_failures", list(run.op_failures))
                   .Done())
          .Done()
          .c_str());
  std::printf("%s\n", Json()
                          .Add("correct", correct ? "true" : "false")
                          .Add("attempted", std::to_string(attempted))
                          .Add("failed", std::to_string(failed))
                          .Add("metrics", result_metrics.Done())
                          .Done()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ivbench

int main(int argc, char** argv) { return ivbench::Main(argc, argv); }
