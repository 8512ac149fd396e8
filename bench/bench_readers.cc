// E2 (paper Table 2 analog): readers vs escrow writers.
//
// Section 1 — point reads. W writer threads continuously increment one hot
// aggregate row while R reader threads query it at a fixed, modest rate (a
// dashboard refresh, not a busy loop). Locking readers take S key locks,
// which conflict with the writers' E locks — each read waits for every
// in-flight incrementer to commit, and while the S lock is held the writers
// stall behind it. Snapshot readers use the multiversion store: they
// reconstruct the newest committed state and never touch the lock manager.
// Claim: snapshot mode keeps writer throughput intact and read latency
// flat; locking mode inflates read latency by orders of magnitude and
// throttles the writers.
//
// Section 2 — snapshot scans. Readers repeatedly read every group of a
// view with many groups while 8 writers hammer a few hot ones. Four cells
// isolate the mechanisms:
//
//   per-key reads, gc=on    the baseline of the 1.5x gate: one snapshot
//                           transaction does GetViewRow for each group, so
//                           every key resolves through the version store
//                           under its chain stripe;
//   scan_cache=off, gc=on   ScanView's leaf walk: chunked copies of the
//                           view's leaves, chained keys resolved one by
//                           one (printed with its ratio to the cache, not
//                           gated);
//   scan_cache=on,  gc=off  the last-committed-row cache alone, version
//                           chains growing unchecked for the whole run;
//   scan_cache=on,  gc=on   the shipped configuration: cached cold keys +
//                           epoch-based background GC every 2ms.
//
// In-binary acceptance: the shipped cell's read throughput must be >= 1.5x
// the per-key baseline, and the version-chain p99 sampled during the run
// (the GC passes publish it as a live gauge) must stay flat — no unbounded
// growth while readers hold snapshots. Every JSON line carries
// chain-length max/p99, GC lag, and the scan-cache hit rate so the CI
// bench-smoke job can validate the same claims from the outside.
#include <algorithm>

#include "bench_util.h"

using namespace ivdb;
using namespace ivdb::bench;

namespace {

constexpr uint64_t kReadIntervalMicros = 2000;  // ~500 reads/s per reader

// Section 2 geometry: plenty of cold groups so the cache has something to
// serve, a few hot ones so escrow commits invalidate keys continuously.
constexpr int64_t kScanGroups = 64;
constexpr int64_t kHotGroups = 2;
constexpr int kScanWriters = 8;  // the ISSUE pins the gate at 8 writers
constexpr int kScanReaders = 2;
constexpr uint64_t kGcIntervalMicros = 2000;
// Sampled chain p99 beyond this means GC stopped keeping up; the steady
// state is 1-2 (most chains are single-version sales inserts).
constexpr int64_t kChainP99Bound = 64;

// Reads the live observability fields every JSON line must carry. The
// chain/gc gauges are refreshed by GC passes; DumpMetrics() additionally
// recomputes the point-in-time ones so cells that never ran a pass (gc=off)
// still report the end-of-run truth.
struct Observed {
  int64_t chain_max = 0;
  int64_t chain_p99 = 0;
  int64_t gc_lag_micros = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
};

Observed ObserveEngine(Database* db) {
  (void)db->DumpMetrics();
  Observed o;
  obs::MetricsRegistry* reg = db->metrics_registry();
  o.chain_max = reg->GetGauge("ivdb_storage_version_chain_max")->Value();
  o.chain_p99 = reg->GetGauge("ivdb_storage_version_chain_p99")->Value();
  o.gc_lag_micros = reg->GetGauge("ivdb_storage_gc_lag_micros")->Value();
  ScanCache::Stats cache = db->scan_cache()->GetStats();
  o.cache_hits = cache.hits;
  o.cache_misses = cache.misses;
  uint64_t keys = cache.hits + cache.misses;
  o.cache_hit_rate = keys > 0 ? double(cache.hits) / keys : 0;
  return o;
}

std::vector<std::pair<std::string, std::string>> ObservedJson(
    const Observed& o) {
  return {{"chain_max", std::to_string(o.chain_max)},
          {"chain_p99", std::to_string(o.chain_p99)},
          {"gc_lag_micros", std::to_string(o.gc_lag_micros)},
          {"cache_hits", std::to_string(o.cache_hits)},
          {"cache_misses", std::to_string(o.cache_misses)},
          {"cache_hit_rate", Fmt(o.cache_hit_rate, 3)}};
}

struct ReaderResult {
  double writer_tps = 0;
  double read_avg_micros = 0;
  double read_max_micros = 0;
  double read_timeouts_per_1k = 0;
};

ReaderResult RunMix(ReadMode reader_mode, int writers, int readers,
                    int duration_ms) {
  DatabaseOptions options = InMemoryOptions();
  options.lock_wait_timeout = std::chrono::milliseconds(100);
  SalesBench bench = SalesBench::Create(std::move(options), 1);
  IVDB_CHECK(bench.InsertOne(0));

  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_micros_total{0};
  std::atomic<uint64_t> read_micros_max{0};
  std::atomic<uint64_t> read_timeouts{0};

  RunResult result = RunFor(writers + readers, duration_ms, [&](int t) {
    if (t < writers) {
      bool ok = bench.InsertOne(0);
      if (ok) writes.fetch_add(1, std::memory_order_relaxed);
      return ok;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kReadIntervalMicros));
    uint64_t start = NowMicros();
    Transaction* txn = bench.db->Begin(reader_mode);
    auto row = bench.db->GetViewRow(txn, "by_grp", {Value::Int64(0)});
    uint64_t elapsed = NowMicros() - start;
    bool ok = row.ok();
    if (ok) {
      (void)bench.db->Commit(txn);
      reads.fetch_add(1, std::memory_order_relaxed);
      read_micros_total.fetch_add(elapsed, std::memory_order_relaxed);
      uint64_t prev = read_micros_max.load(std::memory_order_relaxed);
      while (elapsed > prev &&
             !read_micros_max.compare_exchange_weak(prev, elapsed)) {
      }
    } else {
      (void)bench.db->Abort(txn);
      read_timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    bench.db->Forget(txn);
    if (reads.load(std::memory_order_relaxed) % 256 == 0) {
      bench.db->GarbageCollectVersions();
    }
    return ok;
  });

  Status check = bench.db->VerifyViewConsistency("by_grp");
  IVDB_CHECK_MSG(check.ok(), check.ToString().c_str());
  std::vector<std::pair<std::string, std::string>> config = {
      {"writers", std::to_string(writers)},
      {"readers", std::to_string(readers)},
      {"mode", Jstr(reader_mode == ReadMode::kLocking ? "locking"
                                                      : "snapshot")}};
  for (auto& field : ObservedJson(ObserveEngine(bench.db.get()))) {
    config.push_back(std::move(field));
  }
  PrintResultJson("readers", config, result);
  MaybeDumpMetrics(bench.db.get());

  ReaderResult out;
  out.writer_tps = writes.load() / result.seconds;
  uint64_t n = reads.load();
  out.read_avg_micros = n > 0 ? double(read_micros_total.load()) / n : 0;
  out.read_max_micros = static_cast<double>(read_micros_max.load());
  uint64_t attempts = n + read_timeouts.load();
  out.read_timeouts_per_1k =
      attempts > 0 ? 1000.0 * read_timeouts.load() / attempts : 0;
  return out;
}

struct ScanResult {
  double scan_tps = 0;
  double writer_tps = 0;
  double scan_avg_micros = 0;
  double scan_max_micros = 0;
  int64_t chain_p99_peak = 0;  // max live-gauge sample during the run
  Observed observed;
};

// How a reader reads the whole view: one ScanView, or one GetViewRow per
// group (the per-key baseline).
enum class ReadPath { kScan, kPerKeyReads };

// Reads every group of by_grp in `txn`; false unless all kScanGroups rows
// come back.
bool ReadAllGroups(Database* db, Transaction* txn, ReadPath path) {
  if (path == ReadPath::kScan) {
    auto rows = db->ScanView(txn, "by_grp");
    return rows.ok() && rows.value().size() == kScanGroups;
  }
  for (int64_t g = 0; g < kScanGroups; g++) {
    auto row = db->GetViewRow(txn, "by_grp", {Value::Int64(g)});
    if (!row.ok() || !row.value().has_value()) return false;
  }
  return true;
}

ScanResult RunScanMix(int duration_ms, bool cache_on, bool gc_on,
                      ReadPath path) {
  DatabaseOptions options = InMemoryOptions();
  options.lock_wait_timeout = std::chrono::milliseconds(100);
  options.scan_cache = cache_on;
  if (gc_on) options.version_gc_interval_micros = kGcIntervalMicros;
  SalesBench bench = SalesBench::Create(std::move(options), kScanGroups);
  for (int64_t g = 0; g < kScanGroups; g++) {
    IVDB_CHECK(bench.InsertOne(g));
  }
  // Warm-up scan: the first full scan publishes the cache population, so
  // the timed window measures steady state in every cell.
  {
    Transaction* txn = bench.db->Begin(ReadMode::kSnapshot);
    auto rows = bench.db->ScanView(txn, "by_grp");
    IVDB_CHECK(rows.ok() && rows.value().size() == kScanGroups);
    (void)bench.db->Commit(txn);
    bench.db->Forget(txn);
  }

  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> scan_micros_total{0};
  std::atomic<uint64_t> scan_micros_max{0};
  std::atomic<int64_t> chain_p99_peak{0};
  obs::Gauge* live_p99 =
      bench.db->metrics_registry()->GetGauge("ivdb_storage_version_chain_p99");

  RunResult result =
      RunFor(kScanWriters + kScanReaders, duration_ms, [&](int t) {
        if (t < kScanWriters) {
          bool ok = bench.InsertOne(t % kHotGroups);
          if (ok) writes.fetch_add(1, std::memory_order_relaxed);
          return ok;
        }
        uint64_t start = NowMicros();
        Transaction* txn = bench.db->Begin(ReadMode::kSnapshot);
        bool ok = ReadAllGroups(bench.db.get(), txn, path);
        uint64_t elapsed = NowMicros() - start;
        if (ok) {
          (void)bench.db->Commit(txn);
        } else {
          (void)bench.db->Abort(txn);
        }
        bench.db->Forget(txn);
        if (!ok) return false;
        uint64_t n = scans.fetch_add(1, std::memory_order_relaxed) + 1;
        scan_micros_total.fetch_add(elapsed, std::memory_order_relaxed);
        uint64_t prev = scan_micros_max.load(std::memory_order_relaxed);
        while (elapsed > prev &&
               !scan_micros_max.compare_exchange_weak(prev, elapsed)) {
        }
        // The GC passes publish chain stats as live gauges; sampling them
        // mid-run is how "p99 stays flat" is judged (an end-of-run read
        // would only see the last pass's already-collected state).
        if (t == kScanWriters && n % 64 == 0) {
          int64_t sample = live_p99->Value();
          int64_t peak = chain_p99_peak.load(std::memory_order_relaxed);
          while (sample > peak &&
                 !chain_p99_peak.compare_exchange_weak(peak, sample)) {
          }
        }
        return true;
      });

  Status check = bench.db->VerifyViewConsistency("by_grp");
  IVDB_CHECK_MSG(check.ok(), check.ToString().c_str());

  ScanResult out;
  out.scan_tps = scans.load() / result.seconds;
  out.writer_tps = writes.load() / result.seconds;
  uint64_t n = scans.load();
  out.scan_avg_micros = n > 0 ? double(scan_micros_total.load()) / n : 0;
  out.scan_max_micros = static_cast<double>(scan_micros_max.load());
  out.chain_p99_peak = chain_p99_peak.load();
  out.observed = ObserveEngine(bench.db.get());

  std::vector<std::pair<std::string, std::string>> config = {
      {"writers", std::to_string(kScanWriters)},
      {"readers", std::to_string(kScanReaders)},
      {"groups", std::to_string(kScanGroups)},
      {"hot_groups", std::to_string(kHotGroups)},
      {"scan_cache", Jstr(cache_on ? "on" : "off")},
      {"gc", Jstr(gc_on ? "on" : "off")},
      {"path", Jstr(path == ReadPath::kScan ? "scan" : "per_key_reads")},
      {"scan_tps", Fmt(out.scan_tps, 1)},
      {"writer_tps", Fmt(out.writer_tps, 1)},
      {"scan_avg_micros", Fmt(out.scan_avg_micros, 1)},
      {"scan_max_micros", Fmt(out.scan_max_micros, 0)},
      {"chain_p99_peak", std::to_string(out.chain_p99_peak)}};
  for (auto& field : ObservedJson(out.observed)) {
    config.push_back(std::move(field));
  }
  PrintResultJson("readers_scan", config, result);
  MaybeDumpMetrics(bench.db.get());
  return out;
}

}  // namespace

int main() {
  PrintHeader(
      "E2 bench_readers — locking vs snapshot readers on a hot aggregate",
      "rows: (writers, readers, reader mode); readers poll every 2ms\n"
      "claim: snapshot readers neither block nor stall escrow writers");

  const std::vector<int> widths = {9, 9, 11, 13, 13, 13, 17};
  PrintRow({"writers", "readers", "mode", "writer-tps", "rd-avg-us",
            "rd-max-us", "rd-timeouts/1k"},
           widths);

  const int duration_ms = BenchDurationMs(400);
  for (int writers : {1, 2, 4}) {
    for (int readers : {1, 4}) {
      for (ReadMode mode : {ReadMode::kLocking, ReadMode::kSnapshot}) {
        ReaderResult r = RunMix(mode, writers, readers, duration_ms);
        PrintRow({std::to_string(writers), std::to_string(readers),
                  mode == ReadMode::kLocking ? "locking" : "snapshot",
                  Fmt(r.writer_tps, 0), Fmt(r.read_avg_micros, 0),
                  Fmt(r.read_max_micros, 0), Fmt(r.read_timeouts_per_1k, 1)},
                 widths);
      }
    }
  }
  std::printf(
      "\nexpected shape: locking read latency ~= a full commit latency (the\n"
      "reader waits out every in-flight incrementer) and writer tps dips;\n"
      "snapshot latency stays in low microseconds at full writer speed.\n");

  PrintHeader(
      "E2b bench_readers — snapshot reads of a whole view: per-key reads, "
      "the leaf walk, the scan cache + epoch GC",
      "8 escrow writers on 2 hot groups of 64; 2 readers busy-read the view\n"
      "claim: the last-committed-row cache + epoch GC read the view >= 1.5x\n"
      "faster than per-key snapshot reads while chain p99 stays flat");

  const std::vector<int> scan_widths = {15, 12, 5, 11, 12, 13, 13, 11, 10};
  PrintRow({"path", "scan-cache", "gc", "scan-tps", "writer-tps",
            "scan-avg-us", "scan-max-us", "hit-rate", "p99-peak"},
           scan_widths);

  // Throughput-ratio gates need a real measurement window; the smoke
  // duration knob only shortens the E2 sweep above.
  const int scan_duration_ms = std::max(duration_ms, 2500);
  ScanResult baseline =
      RunScanMix(scan_duration_ms, false, true, ReadPath::kPerKeyReads);
  ScanResult leaf_walk =
      RunScanMix(scan_duration_ms, false, true, ReadPath::kScan);
  ScanResult cache_only =
      RunScanMix(scan_duration_ms, true, false, ReadPath::kScan);
  ScanResult shipped =
      RunScanMix(scan_duration_ms, true, true, ReadPath::kScan);
  struct ScanCell {
    const char* path;
    const char* cache;
    const char* gc;
    const ScanResult* r;
  };
  for (const ScanCell& cell :
       {ScanCell{"per-key-reads", "-", "on", &baseline},
        ScanCell{"scan", "off", "on", &leaf_walk},
        ScanCell{"scan", "on", "off", &cache_only},
        ScanCell{"scan", "on", "on", &shipped}}) {
    PrintRow({cell.path, cell.cache, cell.gc, Fmt(cell.r->scan_tps, 0),
              Fmt(cell.r->writer_tps, 0), Fmt(cell.r->scan_avg_micros, 0),
              Fmt(cell.r->scan_max_micros, 0),
              Fmt(cell.r->observed.cache_hit_rate, 3),
              std::to_string(cell.r->chain_p99_peak)},
             scan_widths);
  }

  char msg[256];
  double speedup =
      baseline.scan_tps > 0 ? shipped.scan_tps / baseline.scan_tps : 0;
  std::printf(
      "\nscan cache + gc over per-key reads: %.2fx (gate: >= 1.5x)\n"
      "scan cache + gc over the leaf walk: %.2fx (not gated)\n",
      speedup, leaf_walk.scan_tps > 0 ? shipped.scan_tps / leaf_walk.scan_tps
                                      : 0);
  std::snprintf(msg, sizeof(msg),
                "scan throughput regressed: cache+gc %.0f/s vs per-key "
                "baseline %.0f/s (%.2fx < 1.5x)",
                shipped.scan_tps, baseline.scan_tps, speedup);
  IVDB_CHECK_MSG(speedup >= 1.5, msg);
  std::snprintf(msg, sizeof(msg),
                "version-chain p99 grew unbounded under GC: peak sample %lld "
                "(bound %lld)",
                static_cast<long long>(shipped.chain_p99_peak),
                static_cast<long long>(kChainP99Bound));
  IVDB_CHECK_MSG(shipped.chain_p99_peak <= kChainP99Bound, msg);
  return 0;
}
