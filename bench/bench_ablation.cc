// Ablations for the design choices DESIGN.md calls out:
//
//   A1  group-commit batching window — the WAL writer's pre-seal sleep,
//       exactly the configured window, trades a little single-stream
//       latency for larger commit batches under concurrency (PostgreSQL's
//       commit_delay).
//   A2  escrow bound checks — admission control costs one extra row
//       materialization + pending-delta scan per increment; measure the tax
//       on the hot path.
//   A3  deadlock detection vs timeout-only — the waits-for search turns
//       multi-second timeout stalls into instant victim selection.
#include "bench_util.h"

#include "common/random.h"

using namespace ivdb;
using namespace ivdb::bench;

namespace {

void RunGroupCommitAblation() {
  PrintHeader("A1 group-commit window ablation",
              "rows: window µs; cells: txns/sec at 1 and 8 writer threads");
  const std::vector<int> widths = {12, 12, 12, 16};
  PrintRow({"window-us", "tps@1", "tps@8", "recs/flush@8"}, widths);
  for (uint64_t window : {0ull, 25ull, 50ull, 100ull, 200ull}) {
    double tps[2] = {0, 0};
    double batch = 0;
    for (int mode = 0; mode < 2; mode++) {
      int threads = mode == 0 ? 1 : 8;
      DatabaseOptions options;
      options.flush_delay_micros = kCommitLatencyMicros;
      options.group_commit_window_micros = window;
      SalesBench bench = SalesBench::Create(std::move(options), 8);
      for (int64_t g = 0; g < 8; g++) IVDB_CHECK(bench.InsertOne(g));
      std::atomic<uint64_t> seq{0};
      RunResult result = RunFor(threads, BenchDurationMs(300), [&](int) {
        return bench.InsertOne(static_cast<int64_t>(seq.fetch_add(1) % 8));
      });
      tps[mode] = result.Tps();
      if (threads == 8) {
        uint64_t flushes = bench.db->log_metrics().flushes->Value();
        batch = flushes > 0
                    ? double(bench.db->log_metrics()
                                 .records_appended->Value()) /
                          flushes
                    : 0;
      }
      PrintResultJson("ablation_group_commit",
                      {{"window_us", std::to_string(window)},
                       {"threads", std::to_string(threads)}},
                      result);
      MaybeDumpMetrics(bench.db.get());
    }
    PrintRow({std::to_string(window), Fmt(tps[0], 0), Fmt(tps[1], 0),
              Fmt(batch, 1)},
             widths);
  }
  std::printf(
      "expected shape: tps@1 declines slightly as the window grows (a lone\n"
      "committer sleeps it out on every commit); at 8 threads the convoy\n"
      "wait already gathers every committer (about 40 records per flush at\n"
      "any window), so tps@8 stays about flat.\n");
}

void RunBoundCheckAblation() {
  PrintHeader("A2 escrow bound-check overhead",
              "rows: bounds on/off; cells: insert txns/sec (8 threads)");
  const std::vector<int> widths = {10, 12, 12};
  PrintRow({"bounds", "tps", "rel-cost"}, widths);
  double base_tps = 0;
  for (bool bounded : {false, true}) {
    DatabaseOptions options;
    options.flush_delay_micros = kCommitLatencyMicros;
    options.group_commit_window_micros = kGroupCommitWindowMicros;
    auto db = std::move(Database::Open(std::move(options))).value();
    ObjectId fact =
        db->CreateTable("sales", SalesBench::FactSchema(), {0}).value()->id;
    ViewDefinition def;
    def.name = "by_grp";
    def.kind = ViewKind::kAggregate;
    def.fact_table = fact;
    def.group_by = {1};
    def.aggregates = {AggregateSpec(
        AggregateFunction::kSum, 2, "total",
        bounded ? std::optional<int64_t>(0) : std::nullopt)};
    IVDB_CHECK(db->CreateIndexedView(def).ok());

    std::atomic<int64_t> id{0};
    RunResult result = RunFor(8, BenchDurationMs(300), [&](int) {
      Transaction* txn = db->Begin();
      int64_t i = id.fetch_add(1);
      Status s = db->Insert(txn, "sales",
                            {Value::Int64(i), Value::Int64(i % 4),
                             Value::Int64(1)});
      if (s.ok()) s = db->Commit(txn);
      bool ok = s.ok();
      if (!ok && txn->state() == TxnState::kActive) (void)db->Abort(txn);
      db->Forget(txn);
      return ok;
    });
    if (!bounded) base_tps = result.Tps();
    PrintRow({bounded ? "on" : "off", Fmt(result.Tps(), 0),
              Fmt(base_tps > 0 ? base_tps / result.Tps() : 1.0, 2)},
             widths);
    PrintResultJson("ablation_bound_check",
                    {{"bounds", Jstr(bounded ? "on" : "off")}}, result);
    IVDB_CHECK(db->VerifyViewConsistency("by_grp").ok());
  }
  std::printf(
      "expected shape: a small constant tax (extra row decode + pending\n"
      "scan per increment), not a cliff.\n");
}

void RunDeadlockAblation() {
  PrintHeader("A3 deadlock detection vs timeout-only",
              "xlock maintenance, 2 groups, 8 threads, 2-row transactions");
  const std::vector<int> widths = {12, 12, 13, 13, 12};
  PrintRow({"resolution", "tps", "deadlocks", "timeouts", "aborts/1k"},
           widths);
  for (bool detect : {true, false}) {
    DatabaseOptions options;
    options.flush_delay_micros = kCommitLatencyMicros;
    options.group_commit_window_micros = kGroupCommitWindowMicros;
    options.use_escrow_locks = false;  // provoke view-row deadlocks
    options.detect_deadlocks = detect;
    options.lock_wait_timeout = std::chrono::milliseconds(50);
    SalesBench bench = SalesBench::Create(std::move(options), 2);
    for (int64_t g = 0; g < 2; g++) IVDB_CHECK(bench.InsertOne(g));

    std::vector<Random> rngs;
    for (int t = 0; t < 8; t++) rngs.emplace_back(t * 37 + 1);
    RunResult result = RunFor(8, BenchDurationMs(300), [&](int t) {
      Random& rng = rngs[static_cast<size_t>(t)];
      int64_t g1 = static_cast<int64_t>(rng.Uniform(2));
      int64_t g2 = 1 - g1;
      int64_t id = bench.next_id.fetch_add(2);
      Transaction* txn = bench.db->Begin();
      Status s = bench.db->Insert(
          txn, "sales", {Value::Int64(id), Value::Int64(g1), Value::Int64(1)});
      if (s.ok()) {
        s = bench.db->Insert(txn, "sales",
                             {Value::Int64(id + 1), Value::Int64(g2),
                              Value::Int64(1)});
      }
      if (s.ok()) s = bench.db->Commit(txn);
      bool ok = s.ok();
      if (!ok && txn->state() == TxnState::kActive) (void)bench.db->Abort(txn);
      bench.db->Forget(txn);
      return ok;
    });
    IVDB_CHECK(bench.db->VerifyViewConsistency("by_grp").ok());
    PrintRow({detect ? "detect" : "timeout", Fmt(result.Tps(), 0),
              std::to_string(bench.db->lock_metrics().deadlocks->Value()),
              std::to_string(bench.db->lock_metrics().timeouts->Value()),
              Fmt(result.AbortsPer1k(), 1)},
             widths);
    PrintResultJson("ablation_deadlock",
                    {{"resolution", Jstr(detect ? "detect" : "timeout")}},
                    result);
  }
  std::printf(
      "expected shape: with detection, victims are chosen instantly and\n"
      "throughput stays up; timeout-only wastes a full wait per deadlock.\n");
}

}  // namespace

int main() {
  RunGroupCommitAblation();
  RunBoundCheckAblation();
  RunDeadlockAblation();
  return 0;
}
