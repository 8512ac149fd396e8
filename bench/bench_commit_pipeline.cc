// Scaling of the parallel group-commit pipeline (docs/INTERNALS.md,
// "Commit pipeline"): committer threads stage commit records into per-core
// shards and a dedicated WAL writer coalesces everything staged into one
// append and a single fsync per batch. The paper's claim is that commit
// durability cost amortizes across concurrent committers; the observable
// signatures are
//
//   * fsyncs-per-commit falling well below 1 as committers are added
//     (the acceptance bar is < 0.25 at 8+ threads),
//   * per-batch record counts (ivdb_wal_batch_records p50/p99) growing
//     with load, as every committer a batch releases rides the next one
//     (the writer's convoy wait),
//   * throughput scaling with threads while per-commit p99 stays near the
//     simulated device latency.
//
// Each thread-count cell runs against a fresh durable database with the
// standard simulated stable-storage latency, so the numbers are
// host-independent.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"

namespace ivdb {
namespace bench {
namespace {

struct StageStats {
  double p50 = 0;
  double mean = 0;
};

struct CellResult {
  RunResult run;
  double fsyncs_per_commit = 0;
  double batch_p50 = 0;
  double batch_p99 = 0;
  uint64_t staging_stalls = 0;
  // Commit-stage attribution (ivdb_commit_stage_micros{stage=...}). The
  // four stages partition each commit's latency exactly, so their means
  // sum to commit_mean to the microsecond; p50s sum only approximately
  // (quantiles are not additive), which is what the reconciliation check
  // tolerates.
  StageStats staging_wait;
  StageStats batch_assembly;
  StageStats fsync;
  StageStats flip_wait;
  double commit_mean = 0;
  double commit_p50 = 0;
};

StageStats SnapStage(const obs::Histogram* h) {
  obs::Histogram::Snapshot snap = h->Snap();
  StageStats s;
  s.p50 = snap.P50();
  s.mean = snap.Mean();
  return s;
}

CellResult RunCell(const std::string& dir, int threads, int duration_ms,
                   bool recorder_on = true) {
  std::filesystem::remove_all(dir);
  SalesBench bench = SalesBench::Create(DurableOptions(dir), /*groups=*/64);
  bench.db->flight_recorder()->SetEnabled(recorder_on);

  // Schema DDL above committed through the same WAL; measure deltas so the
  // ratio reflects only the benchmark window.
  const uint64_t base_flushes = bench.db->log_metrics().flushes->Value();

  CellResult cell;
  cell.run = RunFor(
      threads, duration_ms,
      [&](int t) { return bench.InsertOne(t % bench.groups); },
      [&](int t) {
        bench.db->flight_recorder()->SetThreadName("committer-" +
                                                   std::to_string(t));
      });

  const LogManagerMetrics& wal = bench.db->log_metrics();
  const uint64_t flushes = wal.flushes->Value() - base_flushes;
  cell.fsyncs_per_commit =
      cell.run.committed > 0 ? double(flushes) / double(cell.run.committed) : 0;
  obs::Histogram::Snapshot batches = wal.batch_records->Snap();
  cell.batch_p50 = batches.P50();
  cell.batch_p99 = batches.P99();
  cell.staging_stalls = wal.staging_stalls->Value();
  const TxnManagerMetrics& txn = bench.db->txn_metrics();
  cell.staging_wait = SnapStage(txn.stage_staging_wait);
  cell.batch_assembly = SnapStage(txn.stage_batch_assembly);
  cell.fsync = SnapStage(txn.stage_fsync);
  cell.flip_wait = SnapStage(txn.stage_flip_wait);
  obs::Histogram::Snapshot commits = txn.commit_latency->Snap();
  cell.commit_mean = commits.Mean();
  cell.commit_p50 = commits.P50();
  MaybeDumpMetrics(bench.db.get());
  if (recorder_on) MaybeDumpFlight(bench.db.get());
  bench.db.reset();
  std::filesystem::remove_all(dir);
  return cell;
}

}  // namespace
}  // namespace bench
}  // namespace ivdb

int main() {
  using namespace ivdb;
  using namespace ivdb::bench;

  const int duration_ms = BenchDurationMs(600);
  const std::string dir = "/tmp/ivdb_bench_commit_pipeline";
  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};

  PrintHeader(
      "Group-commit pipeline scaling",
      "Staged commit records coalesce into one fsync per batch: fsyncs per "
      "commit should collapse and batch size grow as committers are added.");
  const std::vector<int> widths = {9, 10, 12, 12, 14, 10, 10};
  PrintRow({"threads", "tps", "p50_us", "p99_us", "fsync/commit", "batch_p50",
            "batch_p99"},
           widths);

  std::map<int, CellResult> cells;
  for (int threads : thread_counts) {
    CellResult cell = RunCell(dir, threads, duration_ms);
    cells[threads] = cell;
    PrintRow({std::to_string(threads), Fmt(cell.run.Tps(), 0),
              Fmt(cell.run.p50_micros, 0), Fmt(cell.run.p99_micros, 0),
              Fmt(cell.fsyncs_per_commit, 3), Fmt(cell.batch_p50, 1),
              Fmt(cell.batch_p99, 1)},
             widths);
    PrintResultJson(
        "commit_pipeline",
        {{"threads", std::to_string(threads)},
         {"fsyncs_per_commit", Fmt(cell.fsyncs_per_commit, 4)},
         {"batch_p50", Fmt(cell.batch_p50, 1)},
         {"batch_p99", Fmt(cell.batch_p99, 1)},
         {"staging_stalls", std::to_string(cell.staging_stalls)},
         {"stage_staging_wait_p50", Fmt(cell.staging_wait.p50, 1)},
         {"stage_batch_assembly_p50", Fmt(cell.batch_assembly.p50, 1)},
         {"stage_fsync_p50", Fmt(cell.fsync.p50, 1)},
         {"stage_flip_wait_p50", Fmt(cell.flip_wait.p50, 1)},
         {"stage_staging_wait_mean", Fmt(cell.staging_wait.mean, 1)},
         {"stage_batch_assembly_mean", Fmt(cell.batch_assembly.mean, 1)},
         {"stage_fsync_mean", Fmt(cell.fsync.mean, 1)},
         {"stage_flip_wait_mean", Fmt(cell.flip_wait.mean, 1)},
         {"commit_mean", Fmt(cell.commit_mean, 1)},
         {"commit_p50", Fmt(cell.commit_p50, 1)}},
        cell.run);
  }

  // Stage-attribution reconciliation at 8 threads: the four stages
  // partition every commit's latency, so their means must sum to the
  // measured end-to-end commit mean (within tolerance — histogram
  // bucketing rounds each stage independently).
  {
    const CellResult& cell = cells[8];
    const double stage_mean_sum = cell.staging_wait.mean +
                                  cell.batch_assembly.mean + cell.fsync.mean +
                                  cell.flip_wait.mean;
    std::printf(
        "\nstage breakdown @8t (mean us): staging_wait %.1f + "
        "batch_assembly %.1f + fsync %.1f + flip_wait %.1f = %.1f "
        "(commit mean %.1f)\n",
        cell.staging_wait.mean, cell.batch_assembly.mean, cell.fsync.mean,
        cell.flip_wait.mean, stage_mean_sum, cell.commit_mean);
    if (cell.commit_mean > 0) {
      const double ratio = stage_mean_sum / cell.commit_mean;
      IVDB_CHECK_MSG(ratio > 0.75 && ratio < 1.25,
                     "stage means do not reconcile with commit latency");
    }
  }

  // Flight-recorder overhead A/B at 8 threads: same cell with the recorder
  // enabled vs disabled. The Emit fast path is a handful of
  // relaxed/release stores per commit, so the throughput delta must stay
  // within the acceptance bar (<= 3%) plus run-to-run noise.
  {
    const CellResult on = RunCell(dir, 8, duration_ms, /*recorder_on=*/true);
    const CellResult off =
        RunCell(dir, 8, duration_ms, /*recorder_on=*/false);
    const double overhead_pct =
        off.run.Tps() > 0
            ? 100.0 * (off.run.Tps() - on.run.Tps()) / off.run.Tps()
            : 0;
    std::printf(
        "flight recorder overhead @8t: on %.0f tps, off %.0f tps "
        "(%.2f%% overhead)\n",
        on.run.Tps(), off.run.Tps(), overhead_pct);
    PrintResultJson("flight_overhead",
                    {{"threads", "8"},
                     {"recorder", Jstr("on")},
                     {"overhead_pct", Fmt(overhead_pct, 2)}},
                    on.run);
    PrintResultJson("flight_overhead",
                    {{"threads", "8"},
                     {"recorder", Jstr("off")},
                     {"overhead_pct", Fmt(overhead_pct, 2)}},
                    off.run);
  }

  // Headline numbers the acceptance bar cares about, spelled out so a human
  // (or CI grep) can read them off the tail of the run.
  const CellResult& one = cells[1];
  const CellResult& eight = cells[8];
  const CellResult& sixteen = cells[16];
  const double scaling =
      one.run.Tps() > 0 ? sixteen.run.Tps() / one.run.Tps() : 0;
  std::printf(
      "\npipeline summary: fsyncs/commit %.3f @8t, %.3f @16t; "
      "16-thread scaling %.2fx over 1 thread\n",
      eight.fsyncs_per_commit, sixteen.fsyncs_per_commit, scaling);
  IVDB_CHECK_MSG(eight.fsyncs_per_commit < 1.0 &&
                     sixteen.fsyncs_per_commit < 1.0,
                 "pipeline failed to amortize fsyncs across committers");
  return 0;
}
