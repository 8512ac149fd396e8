// E7 (paper Table 6 analog): restart cost and checkpoint stalls.
//
// Phase A — fuzzy checkpoint stall: the same insert workload runs once
// undisturbed and once with a background thread issuing fuzzy checkpoints
// back to back. The checkpoint is non-blocking by design (short
// snapshot-acquire critical section, image built from the MVCC version
// store while commits flow), so commit p99 during checkpointing must stay
// within ~2x of the no-checkpoint baseline.
//
// Phase B — segmented replay: a maintained workload is crashed (engine
// dropped without checkpoint, losers left in flight), then the frozen
// directory is recovered under a sweep of replay thread counts and two
// segment geometries (one big segment vs many small ones). Parallel redo
// decodes and CRC-checks segments concurrently and applies in LSN order, so
// recovery wall time should fall as replay threads rise on the many-segment
// log — while recovered state stays exact: every run re-verifies the
// paper's correctness claim that logical redo/undo of INCREMENT records
// reconstructs views consistent with their base table. Each cell also
// prints the engine's own restart phases (ivdb_recovery_phase_micros:
// image_load, log_read, analysis, redo, undo), which partition the
// recovery inside the timed Database::Open, and the open's overhead outside
// recovery, timed on an empty directory.
#include <algorithm>
#include <filesystem>
#include <iterator>

#include "bench_util.h"
#include "wal/log_manager.h"

using namespace ivdb;
using namespace ivdb::bench;

namespace {

// Restart phases as `ivdb_recovery_phase_micros{phase=...}` names them;
// together they partition the engine's recovery time.
constexpr const char* kRecoveryPhases[] = {"image_load", "log_read",
                                           "analysis", "redo", "undo"};
constexpr size_t kNumRecoveryPhases = std::size(kRecoveryPhases);

struct RecoveryResult {
  uint64_t log_records = 0;
  uint64_t segments = 0;
  double recovery_ms = 0;
  double replay_krecs_per_sec = 0;
  // Mean of each phase histogram after the open (one sample each).
  double phase_ms[kNumRecoveryPhases] = {};
  // The part of recovery_ms spent outside Recover (engine construction,
  // thread start-up), measured on an empty directory.
  double open_overhead_ms = 0;
  bool view_consistent = false;
};

// Opens `dir` as phase B does and reports the open's wall time.
std::unique_ptr<Database> OpenTimed(const std::string& dir,
                                    unsigned replay_threads, Env* env,
                                    double* open_ms) {
  uint64_t start = NowMicros();
  DatabaseOptions options = DurableOptions(dir, env);
  options.flush_delay_micros = 0;
  options.recovery_threads = replay_threads;
  auto opened = Database::Open(std::move(options));
  IVDB_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
  *open_ms = (NowMicros() - start) / 1000.0;
  return std::move(opened).value();
}

// The engine's restart phases of its one open, in ms.
void ReadRecoveryPhases(Database* db, double* phase_ms) {
  for (size_t i = 0; i < kNumRecoveryPhases; i++) {
    const std::string name = obs::WithLabel("ivdb_recovery_phase_micros",
                                            "phase", kRecoveryPhases[i]);
    phase_ms[i] =
        db->metrics_registry()->GetHistogram(name)->Snap().Mean() / 1000.0;
  }
}

// Median over a few opens of an empty directory of the open's wall time
// minus its recovery phases: what every timed open pays outside Recover.
double OpenOverheadMs(const std::string& dir, unsigned replay_threads,
                      Env* env) {
  std::vector<double> samples;
  for (int i = 0; i < 5; i++) {
    std::filesystem::remove_all(dir);
    double open_ms = 0;
    double phase_ms[kNumRecoveryPhases] = {};
    std::unique_ptr<Database> db =
        OpenTimed(dir, replay_threads, env, &open_ms);
    ReadRecoveryPhases(db.get(), phase_ms);
    for (double p : phase_ms) open_ms -= p;
    samples.push_back(open_ms);
  }
  std::filesystem::remove_all(dir);
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Runs `txns` insert transactions on 4 threads over the given segment
// geometry, then crashes: two losers left in flight, WAL flushed, engine
// dropped without checkpoint. A mid-run checkpoint makes replay start from
// a fuzzy image + segment suffix rather than the whole log.
void BuildCrashedDir(int txns, const std::string& dir, uint64_t segment_bytes,
                     Env* env = nullptr) {
  std::filesystem::remove_all(dir);
  DatabaseOptions options = DurableOptions(dir, env);
  options.flush_delay_micros = 0;  // measure replay, not commit latency
  options.wal_segment_bytes = segment_bytes;
  SalesBench bench = SalesBench::Create(std::move(options), 16);
  std::atomic<int> remaining{txns};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++) {
    workers.emplace_back([&] {
      while (true) {
        int left = remaining.fetch_sub(1);
        if (left <= 0) break;
        if (left == txns / 2) IVDB_CHECK(bench.db->Checkpoint().ok());
        bench.InsertOne(bench.next_id.load() % 16);
      }
    });
  }
  for (auto& w : workers) w.join();
  // Leave losers in flight, flushed to disk.
  Transaction* a = bench.db->Begin();
  Transaction* b = bench.db->Begin();
  IVDB_CHECK(bench.db
                 ->Insert(a, "sales",
                          {Value::Int64(10000000), Value::Int64(1),
                           Value::Int64(100)})
                 .ok());
  IVDB_CHECK(bench.db
                 ->Insert(b, "sales",
                          {Value::Int64(10000001), Value::Int64(1),
                           Value::Int64(200)})
                 .ok());
  IVDB_CHECK(bench.db->FlushWal().ok());
  // Crash: destructor without checkpoint.
}

RecoveryResult RecoverOnce(const std::string& dir, unsigned replay_threads,
                           Env* env = nullptr) {
  RecoveryResult out;
  std::vector<LogRecord> records;
  IVDB_CHECK(LogManager::ReadLog(dir, &records, env).ok());
  out.log_records = records.size();
  auto segments = LogManager::ListSegmentFiles(dir, env);
  IVDB_CHECK(segments.ok());
  out.segments = segments.value().size();
  out.open_overhead_ms = OpenOverheadMs(dir + "_empty", replay_threads, env);

  std::unique_ptr<Database> db =
      OpenTimed(dir, replay_threads, env, &out.recovery_ms);
  out.replay_krecs_per_sec =
      out.recovery_ms > 0 ? out.log_records / out.recovery_ms : 0;
  ReadRecoveryPhases(db.get(), out.phase_ms);
  out.view_consistent = db->VerifyViewConsistency("by_grp").ok();
  return out;
}

void CopyDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

// Phase A: commit latency with and without a concurrent checkpoint storm.
RunResult MeasureCommitLatency(const std::string& dir, int duration_ms,
                               bool with_checkpoints, uint64_t* checkpoints) {
  std::filesystem::remove_all(dir);
  DatabaseOptions options = DurableOptions(dir);
  options.wal_segment_bytes = 256 << 10;  // rotate under the workload
  SalesBench bench = SalesBench::Create(std::move(options), 16);
  *checkpoints = 0;

  std::atomic<bool> stop{false};
  std::thread checkpointer;
  if (with_checkpoints) {
    checkpointer = std::thread([&] {
      while (!stop.load()) {
        IVDB_CHECK(bench.db->Checkpoint().ok());
        (*checkpoints)++;
      }
    });
  }
  RunResult r =
      RunFor(4, duration_ms, [&](int t) { return bench.InsertOne(t); });
  stop = true;
  if (checkpointer.joinable()) checkpointer.join();
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

int main() {
  const int duration_ms = BenchDurationMs(1000);
  const std::string dir = "/tmp/ivdb_bench_recovery";

  PrintHeader(
      "E7 bench_recovery — fuzzy checkpoint stalls and segmented replay",
      "phase A: commit p99 while background checkpoints run (claim: <2x\n"
      "baseline — the checkpoint never stops the world). phase B: recovery\n"
      "wall time vs replay threads and segment count (claim: parallel redo\n"
      "scales with segments; recovered views stay exact under escrow)");

  // --- Phase A: checkpoint stall ---
  uint64_t ignored = 0, checkpoints = 0;
  RunResult base =
      MeasureCommitLatency(dir, duration_ms, /*with_checkpoints=*/false,
                           &ignored);
  RunResult ckpt =
      MeasureCommitLatency(dir, duration_ms, /*with_checkpoints=*/true,
                           &checkpoints);

  const std::vector<int> awidths = {20, 12, 12, 12, 12, 14};
  PrintRow({"mode", "tps", "p50-us", "p95-us", "p99-us", "checkpoints"},
           awidths);
  PrintRow({"baseline", Fmt(base.Tps(), 0), Fmt(base.p50_micros, 0),
            Fmt(base.p95_micros, 0), Fmt(base.p99_micros, 0), "0"},
           awidths);
  PrintRow({"fuzzy-checkpoints", Fmt(ckpt.Tps(), 0), Fmt(ckpt.p50_micros, 0),
            Fmt(ckpt.p95_micros, 0), Fmt(ckpt.p99_micros, 0),
            std::to_string(checkpoints)},
           awidths);
  PrintResultJson("recovery_ckpt_stall", {{"mode", Jstr("baseline")}}, base);
  PrintResultJson("recovery_ckpt_stall",
                  {{"mode", Jstr("fuzzy_checkpoint")},
                   {"checkpoints", std::to_string(checkpoints)},
                   {"baseline_p99_micros", Fmt(base.p99_micros, 1)},
                   {"ckpt_stall_p99_micros", Fmt(ckpt.p99_micros, 1)}},
                  ckpt);

  // --- Phase B: segments x replay-threads recovery sweep ---
  std::printf("\n");
  const std::vector<int> bwidths = {12, 10, 14, 13, 14, 16, 12};
  PrintRow({"geometry", "segments", "replay-thr", "log-records", "recovery-ms",
            "krecs/s-replay", "view-exact"},
           bwidths);

  const int replay_txns = duration_ms * 8;
  struct Geometry {
    const char* name;
    uint64_t segment_bytes;
  };
  for (const Geometry& g : {Geometry{"1-segment", 0},
                            Geometry{"segmented", uint64_t{16} << 10}}) {
    BuildCrashedDir(replay_txns, dir, g.segment_bytes);
    for (unsigned threads : {1u, 2u, 4u}) {
      // Recover a fresh copy each time: recovery itself appends to the log,
      // so reusing the directory would change the workload across cells.
      const std::string copy = dir + "_replay";
      CopyDir(dir, copy);
      RecoveryResult r = RecoverOnce(copy, threads);
      PrintRow({g.name, std::to_string(r.segments), std::to_string(threads),
                std::to_string(r.log_records), Fmt(r.recovery_ms, 1),
                Fmt(r.replay_krecs_per_sec, 1),
                r.view_consistent ? "yes" : "NO"},
               bwidths);
      std::string phases;
      for (size_t i = 0; i < kNumRecoveryPhases; i++) {
        phases += ",\"phase_" + std::string(kRecoveryPhases[i]) +
                  "_ms\":" + Fmt(r.phase_ms[i], 3);
      }
      std::printf(
          "{\"bench\":\"recovery_replay\",\"geometry\":\"%s\","
          "\"segments\":%llu,\"replay_threads\":%u,\"log_records\":%llu,"
          "\"recovery_ms\":%.3f,\"open_overhead_ms\":%.3f,"
          "\"krecs_per_sec\":%.1f%s,\"view_exact\":%s}\n",
          g.name, static_cast<unsigned long long>(r.segments), threads,
          static_cast<unsigned long long>(r.log_records), r.recovery_ms,
          r.open_overhead_ms, r.replay_krecs_per_sec, phases.c_str(),
          r.view_consistent ? "true" : "false");
      IVDB_CHECK_MSG(r.view_consistent, "recovered view inconsistent");
      std::filesystem::remove_all(copy);
    }
    std::filesystem::remove_all(dir);
  }

  std::printf(
      "\nexpected shape: phase A p99 within ~2x of baseline (fuzzy\n"
      "checkpoints never stop the world); phase B recovery-ms falls as\n"
      "replay threads rise on the segmented log and view-exact is 'yes' on\n"
      "every row.\n");
  return 0;
}
