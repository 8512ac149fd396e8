#ifndef IVDB_BENCH_BENCH_UTIL_H_
#define IVDB_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/logging.h"
#include "engine/database.h"
#include "obs/metrics.h"

namespace ivdb {
namespace bench {

// Simulated stable-storage latency per WAL flush. This is the knob that
// makes lock-hold-time effects visible regardless of host hardware: a
// transaction that holds a hot lock across its commit flush serializes all
// waiters behind ~this latency, while escrow holders overlap their flushes
// through group commit.
inline constexpr uint64_t kCommitLatencyMicros = 1000;

struct RunResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double seconds = 0;
  // Per-commit latency distribution (one committed body() call each), in
  // microseconds. Zero when nothing committed.
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  double max_micros = 0;

  double Tps() const { return seconds > 0 ? committed / seconds : 0; }
  double AbortsPer1k() const {
    return committed > 0 ? 1000.0 * aborted / committed : 0;
  }
};

// Drives `body(thread_idx)` on `threads` threads for `duration_ms`.
// body returns true if its transaction committed, false if it aborted
// (after rolling back). The caller's body must not throw.
//
// Every committed call's latency lands in a histogram (p50/p95/p99 in the
// result). The clock stops at the *last completed* body() call, not at the
// stop flag: in-flight transactions that finish during the drain are real
// measurements, and counting them in the numerator but not the window used
// to inflate Tps by up to one transaction per thread on short runs.
// `thread_begin(thread_idx)`, when provided, runs once on each worker
// thread before its first body() call (e.g. to name the thread's
// flight-recorder lane).
inline RunResult RunFor(int threads, int duration_ms,
                        const std::function<bool(int)>& body,
                        const std::function<void(int)>& thread_begin = {}) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> last_done{0};
  obs::Histogram latency;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  uint64_t start = NowMicros();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      if (thread_begin) thread_begin(t);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t begin = NowMicros();
        bool ok = body(t);
        uint64_t end = NowMicros();
        if (ok) {
          committed.fetch_add(1, std::memory_order_relaxed);
          latency.Record(end - begin);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t prev = last_done.load(std::memory_order_relaxed);
        while (prev < end && !last_done.compare_exchange_weak(
                                 prev, end, std::memory_order_relaxed)) {
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop = true;
  for (auto& w : workers) w.join();
  RunResult result;
  uint64_t finish = last_done.load();
  result.seconds = (finish > start ? finish - start : 0) / 1e6;
  result.committed = committed.load();
  result.aborted = aborted.load();
  obs::Histogram::Snapshot snap = latency.Snap();
  result.p50_micros = snap.P50();
  result.p95_micros = snap.P95();
  result.p99_micros = snap.P99();
  result.max_micros = double(snap.max);
  return result;
}

// Benchmark duration override (CI smoke runs set IVDB_BENCH_DURATION_MS to
// a small value; the default is each bench's own choice).
inline int BenchDurationMs(int default_ms) {
  const char* v = std::getenv("IVDB_BENCH_DURATION_MS");
  if (v == nullptr || *v == '\0') return default_ms;
  int ms = std::atoi(v);
  return ms > 0 ? ms : default_ms;
}

// With IVDB_METRICS_OUT set, writes the database's full Prometheus metrics
// dump there (atomic replace; the last call wins). CI's bench smoke job
// uses this to assert the engine actually exposes metrics.
inline void MaybeDumpMetrics(Database* db) {
  const char* path = std::getenv("IVDB_METRICS_OUT");
  if (path == nullptr || *path == '\0' || db == nullptr) return;
  Status s = Env::Default()->WriteStringToFileAtomic(path, db->DumpMetrics());
  if (!s.ok()) {
    std::fprintf(stderr, "metrics dump to %s failed: %s\n", path,
                 s.ToString().c_str());
  }
}

// With IVDB_FLIGHT_OUT set, writes the engine's flight-recorder snapshot
// JSON there (atomic replace; the last call wins). CI feeds this to
// tools/ivdb_trace and asserts the export is valid Chrome trace JSON.
inline void MaybeDumpFlight(Database* db) {
  const char* path = std::getenv("IVDB_FLIGHT_OUT");
  if (path == nullptr || *path == '\0' || db == nullptr) return;
  Status s = Env::Default()->WriteStringToFileAtomic(
      path, db->flight_recorder()->Snap().ToJson());
  if (!s.ok()) {
    std::fprintf(stderr, "flight dump to %s failed: %s\n", path,
                 s.ToString().c_str());
  }
}

// One self-contained JSON line per configuration, machine-diffable across
// runs: {"bench":...,<config fields>,"committed":...,"p99_micros":...}.
// Config values are emitted verbatim — pass numbers as digits and strings
// pre-quoted via Jstr().
inline std::string Jstr(const std::string& s) { return "\"" + s + "\""; }

inline void PrintResultJson(
    const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& config,
    const RunResult& r) {
  std::string line = "{\"bench\":" + Jstr(bench);
  for (const auto& [key, value] : config) {
    line += ",\"" + key + "\":" + value;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"committed\":%llu,\"aborted\":%llu,\"seconds\":%.3f,"
                "\"tps\":%.1f,\"p50_micros\":%.1f,\"p95_micros\":%.1f,"
                "\"p99_micros\":%.1f,\"max_micros\":%.0f}",
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.aborted), r.seconds, r.Tps(),
                r.p50_micros, r.p95_micros, r.p99_micros, r.max_micros);
  line += buf;
  std::printf("%s\n", line.c_str());
}

// The standard benchmark workload: a `sales` fact table and one aggregate
// indexed view grouping into `groups` buckets.
struct SalesBench {
  std::unique_ptr<Database> db;
  std::atomic<int64_t> next_id{1};
  int64_t groups = 1;

  SalesBench() = default;
  SalesBench(SalesBench&& other) noexcept
      : db(std::move(other.db)),
        next_id(other.next_id.load()),
        groups(other.groups) {}

  static Schema FactSchema() {
    return Schema({{"id", TypeId::kInt64},
                   {"grp", TypeId::kInt64},
                   {"amount", TypeId::kInt64}});
  }

  static SalesBench Create(DatabaseOptions options, int64_t groups,
                           bool with_view = true) {
    SalesBench bench;
    bench.groups = groups;
    auto opened = Database::Open(std::move(options));
    IVDB_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
    bench.db = std::move(opened).value();
    auto table = bench.db->CreateTable("sales", FactSchema(), {0});
    IVDB_CHECK(table.ok());
    if (with_view) {
      ViewDefinition def;
      def.name = "by_grp";
      def.kind = ViewKind::kAggregate;
      def.fact_table = table.value()->id;
      def.group_by = {1};
      def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
      auto view = bench.db->CreateIndexedView(def);
      IVDB_CHECK_MSG(view.ok(), view.status().ToString().c_str());
    }
    return bench;
  }

  // One insert transaction into group `grp`; true iff committed.
  bool InsertOne(int64_t grp) {
    int64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
    Transaction* txn = db->Begin();
    Row row = {Value::Int64(id), Value::Int64(grp), Value::Int64(1)};
    Status s = db->Insert(txn, "sales", row);
    if (s.ok()) s = db->Commit(txn);
    bool ok = s.ok();
    if (!ok && txn->state() == TxnState::kActive) (void)db->Abort(txn);
    db->Forget(txn);
    return ok;
  }
};

// A batching window worth a fraction of the device latency keeps the WAL
// writer from sealing its batch before concurrent committers have staged
// into it.
inline constexpr uint64_t kGroupCommitWindowMicros = 50;

// `env` routes all file I/O through a custom Env (e.g. FaultInjectionEnv to
// measure recovery under injected faults); nullptr means the real OS.
inline DatabaseOptions DurableOptions(const std::string& dir,
                                      Env* env = nullptr) {
  DatabaseOptions options;
  options.dir = dir;
  options.env = env;
  options.flush_delay_micros = kCommitLatencyMicros;
  options.group_commit_window_micros = kGroupCommitWindowMicros;
  return options;
}

inline DatabaseOptions InMemoryOptions() {
  DatabaseOptions options;
  options.flush_delay_micros = kCommitLatencyMicros;
  options.group_commit_window_micros = kGroupCommitWindowMicros;
  return options;
}

// --- Plain-text table printing (paper-style output). ---

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("%s\n\n", claim.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); i++) {
    std::printf("%-*s", widths[i], cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace bench
}  // namespace ivdb

#endif  // IVDB_BENCH_BENCH_UTIL_H_
