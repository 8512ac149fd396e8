// E6 (paper Table 5 analog): ghost records and asynchronous cleanup.
//
// A churn workload repeatedly creates whole view groups and then empties
// them (count -> 0). Under escrow the emptied rows must remain as ghosts —
// the deleting transaction cannot remove them — so without cleanup the view
// index bloats with invisible rows and scans slow down. Claim: the
// asynchronous ghost cleaner (short system transactions with instant X
// probes) bounds the bloat without ever blocking user transactions.
//
// A second table measures what the background duties cost an idle engine:
// its threads and their wakeups per second, by aggregate-view count.
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "bench_util.h"

using namespace ivdb;
using namespace ivdb::bench;

namespace {

struct ChurnResult {
  uint64_t committed = 0;
  double tps = 0;
  uint64_t view_rows_physical = 0;
  uint64_t view_rows_visible = 0;
  double scan_micros = 0;
  uint64_t reclaimed = 0;
};

ChurnResult RunChurn(bool cleaner_on, int duration_ms) {
  DatabaseOptions options = InMemoryOptions();
  options.flush_delay_micros = 0;  // churn is lock/structure bound
  options.start_ghost_cleaner = cleaner_on;
  options.ghost_cleaner_interval_micros = 2000;
  SalesBench bench = SalesBench::Create(std::move(options), 0);

  // Each committed op creates a singleton group then deletes it, leaving a
  // ghost behind. Group keys keep advancing so ghosts accumulate.
  std::atomic<int64_t> group_seq{0};
  RunResult result = RunFor(4, duration_ms, [&](int) {
    int64_t grp = group_seq.fetch_add(1);
    int64_t id = bench.next_id.fetch_add(1);
    Transaction* txn = bench.db->Begin();
    Status s = bench.db->Insert(
        txn, "sales", {Value::Int64(id), Value::Int64(grp), Value::Int64(1)});
    if (s.ok()) s = bench.db->Delete(txn, "sales", {Value::Int64(id)});
    if (s.ok()) s = bench.db->Commit(txn);
    bool ok = s.ok();
    if (!ok && txn->state() == TxnState::kActive) (void)bench.db->Abort(txn);
    bench.db->Forget(txn);
    return ok;
  });

  ChurnResult out;
  out.committed = result.committed;
  out.tps = result.Tps();
  const ViewInfo* info = bench.db->GetView("by_grp").value();
  out.view_rows_physical = bench.db->GetIndex(info->id)->size();

  // Scan cost over the (possibly ghost-bloated) view.
  uint64_t start = NowMicros();
  Transaction* reader = bench.db->Begin(ReadMode::kDirty);
  auto rows = bench.db->ScanView(reader, "by_grp");
  IVDB_CHECK(rows.ok());
  out.view_rows_visible = rows->size();
  (void)bench.db->Commit(reader);
  out.scan_micros = static_cast<double>(NowMicros() - start);

  const GhostCleanerMetrics* metrics = bench.db->ghost_metrics("by_grp");
  out.reclaimed = metrics != nullptr ? metrics->reclaimed->Value() : 0;
  Status check = bench.db->VerifyViewConsistency("by_grp");
  IVDB_CHECK_MSG(check.ok(), check.ToString().c_str());
  PrintResultJson("ghosts", {{"cleaner", Jstr(cleaner_on ? "on" : "off")}},
                  result);
  MaybeDumpMetrics(bench.db.get());
  return out;
}

// Threads of this process and the voluntary context switches of every
// thread but the calling one, from /proc/self/task/*/status (Linux;
// threads stays -1 where /proc is unavailable).
struct ThreadCensus {
  int threads = -1;
  uint64_t wakeups = 0;
};

ThreadCensus TakeCensus() {
  ThreadCensus census;
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return census;
  census.threads = 0;
  const std::string self = std::to_string(::getpid());
  for (const auto& task : it) {
    census.threads++;
    if (task.path().filename() == self) continue;
    std::ifstream status(task.path() / "status");
    std::string line;
    while (std::getline(status, line)) {
      static const std::string kKey = "voluntary_ctxt_switches:";
      if (line.rfind(kKey, 0) == 0) {
        census.wakeups += std::strtoull(line.c_str() + kKey.size(), nullptr,
                                        10);
      }
    }
  }
  return census;
}

// An idle engine with `views` aggregate views and perfbench's background
// settings (durable, 1 MiB checkpoint trigger, ghost cleanup at its 50 ms
// default, version GC every 20 ms): its threads and their wakeups/s over
// `idle_ms`. Called on the main thread, which the census leaves out.
ThreadCensus IdleEngine(int views, int idle_ms) {
  const std::string dir = "/tmp/ivdb_bench_ghosts_idle";
  std::filesystem::remove_all(dir);
  const ThreadCensus process = TakeCensus();
  DatabaseOptions options = DurableOptions(dir);
  options.checkpoint_wal_bytes = 1 << 20;
  options.start_ghost_cleaner = true;
  options.version_gc_interval_micros = 20 * 1000;
  SalesBench bench = SalesBench::Create(options, 0, /*with_view=*/false);
  const ObjectId fact = bench.db->catalog().GetTable("sales").value()->id;
  for (int v = 0; v < views; v++) {
    ViewDefinition def;
    def.name = "v";
    def.name += std::to_string(v);
    def.kind = ViewKind::kAggregate;
    def.fact_table = fact;
    def.group_by = {1};
    def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
    IVDB_CHECK(bench.db->CreateIndexedView(def).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const ThreadCensus start = TakeCensus();
  std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
  const ThreadCensus end = TakeCensus();
  bench.db.reset();
  std::filesystem::remove_all(dir);
  ThreadCensus out;
  if (process.threads < 0) return out;
  out.threads = end.threads - process.threads;
  out.wakeups = (end.wakeups - start.wakeups) * 1000 / idle_ms;
  return out;
}

}  // namespace

int main() {
  PrintHeader(
      "E6 bench_ghosts — ghost bloat with and without the cleaner",
      "rows: cleaner on/off; cells: physical vs visible view rows, scan cost\n"
      "claim: async cleanup bounds ghost bloat at no user-txn cost");

  const std::vector<int> widths = {9, 10, 15, 14, 13, 12};
  PrintRow({"cleaner", "tps", "physical-rows", "visible-rows", "scan-us",
            "reclaimed"},
           widths);

  const int duration_ms = BenchDurationMs(500);
  ChurnResult runs[2];  // cleaner off, on
  for (bool cleaner_on : {false, true}) {
    ChurnResult r = RunChurn(cleaner_on, duration_ms);
    runs[cleaner_on] = r;
    PrintRow({cleaner_on ? "on" : "off", Fmt(r.tps, 0),
              std::to_string(r.view_rows_physical),
              std::to_string(r.view_rows_visible), Fmt(r.scan_micros, 0),
              std::to_string(r.reclaimed)},
             widths);
  }
  std::printf(
      "\nexpected shape: visible rows ~0 in both; physical rows grow with\n"
      "every churned group when the cleaner is off and stay bounded when\n"
      "on; scan cost tracks physical rows. User throughput is unaffected.\n");
  // Rows left per committed churn transaction: every commit leaves a ghost
  // with the cleaner off, so comparing rates keeps the check independent
  // of how fast each short run happened to go.
  const ChurnResult& off = runs[0];
  const ChurnResult& on = runs[1];
  IVDB_CHECK_MSG(on.view_rows_physical * off.committed * 4 <
                     off.view_rows_physical * on.committed,
                 "background ghost cleanup left a quarter or more of the "
                 "cleaner-off run's physical view rows per commit");

  std::printf(
      "\nidle engine, perfbench background settings (durable, 1 MiB "
      "checkpoint\ntrigger, ghost cleanup every 50 ms, version GC every 20 "
      "ms):\n");
  const std::vector<int> idle_widths = {7, 16, 10};
  PrintRow({"views", "engine-threads", "wakeups/s"}, idle_widths);
  for (int views : {0, 2, 8}) {
    ThreadCensus idle = IdleEngine(views, 2 * duration_ms);
    if (idle.threads < 0) {
      std::printf("(no /proc/self/task: thread census skipped)\n");
      break;
    }
    PrintRow({std::to_string(views), std::to_string(idle.threads),
              std::to_string(idle.wakeups)},
             idle_widths);
  }
  return 0;
}
