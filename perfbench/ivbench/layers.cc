#include "layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ivbench {

namespace {

using ivdb::obs::Histogram;
using ivdb::obs::WithLabel;

const char* const kViews[] = {"by_grp", "by_region"};

// Adds the samples recorded between two snapshots of one histogram to
// *total; min and max are bounded by the buckets the window touched.
void AddHist(const HistSnap& before, const HistSnap& after, HistSnap* total) {
  total->count += after.count - before.count;
  total->sum += after.sum - before.sum;
  total->buckets.resize(after.buckets.size(), 0);
  size_t first = total->buckets.size();
  size_t last = 0;
  for (size_t b = 0; b < total->buckets.size(); b++) {
    uint64_t prev = b < before.buckets.size() ? before.buckets[b] : 0;
    total->buckets[b] += after.buckets[b] - prev;
    if (total->buckets[b] != 0) {
      first = std::min(first, b);
      last = b;
    }
  }
  if (total->count > 0 && first < total->buckets.size()) {
    total->min = Histogram::BucketLowerBound(first);
    total->max = std::max<uint64_t>(
        total->min, Histogram::BucketLowerBound(last + 1) - 1);
  }
}

HistSnap Snap(ivdb::obs::MetricsRegistry* r, const std::string& name) {
  return r->GetHistogram(name)->Snap();
}

double PerTxn(uint64_t n, uint64_t txns) {
  return txns > 0 ? static_cast<double>(n) / static_cast<double>(txns) : 0;
}

double Per1k(uint64_t n, uint64_t txns) { return 1000.0 * PerTxn(n, txns); }

double Ratio(uint64_t n, uint64_t d) {
  return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0;
}

std::string Base(const char* what, uint64_t n) {
  return std::string(what) + "=" + std::to_string(n);
}

}  // namespace

EngineSample TakeSample(ivdb::Database* db) {
  EngineSample s;
  ivdb::obs::MetricsRegistry* r = db->metrics_registry();
  const ivdb::LockManagerMetrics& lock = db->lock_metrics();
  s.lock_acquisitions = lock.acquisitions->Value();
  s.lock_waits = lock.waits->Value();
  s.lock_wait_micros = lock.wait_micros->Value();
  s.lock_deadlocks = lock.deadlocks->Value();
  s.lock_timeouts = lock.timeouts->Value();
  s.lock_wait = lock.wait_latency->Snap();

  const ivdb::LogManagerMetrics& wal = db->log_metrics();
  s.wal_flushes = wal.flushes->Value();
  s.wal_bytes = wal.bytes_appended->Value();
  s.wal_records = wal.records_appended->Value();
  s.wal_staging_stalls = wal.staging_stalls->Value();
  s.wal_batch_records = wal.batch_records->Snap();

  const ivdb::TxnManagerMetrics& txn = db->txn_metrics();
  s.txn_system_committed = txn.system_committed->Value();
  s.stage_staging_wait = txn.stage_staging_wait->Snap();
  s.stage_batch_assembly = txn.stage_batch_assembly->Snap();
  s.stage_fsync = txn.stage_fsync->Snap();
  s.stage_flip_wait = txn.stage_flip_wait->Snap();

  for (const char* view : kViews) {
    if (const ivdb::ViewMaintainerMetrics* v = db->view_metrics(view)) {
      s.view_increments += v->increments_applied->Value();
      s.view_ghosts_created += v->ghosts_created->Value();
      s.view_ghost_create_races += v->ghost_create_races->Value();
    }
    if (const ivdb::GhostCleanerMetrics* g = db->ghost_metrics(view)) {
      s.ghost_candidates_seen += g->candidates_seen->Value();
      s.ghost_reclaimed += g->reclaimed->Value();
      s.ghost_skipped_locked += g->skipped_locked->Value();
    }
  }

  s.ckpt_total = r->GetCounter("ivdb_ckpt_total")->Value();
  s.ckpt_duration = Snap(r, "ivdb_ckpt_duration_micros");
  s.ckpt_capture_stall = Snap(r, "ivdb_ckpt_capture_stall_micros");
  s.ckpt_build = Snap(r, WithLabel("ivdb_ckpt_phase_micros", "phase", "build"));
  s.ckpt_write = Snap(r, WithLabel("ivdb_ckpt_phase_micros", "phase", "write"));

  s.scan_cache = db->scan_cache()->GetStats();
  return s;
}

void AddDelta(const EngineSample& b, const EngineSample& a,
              EngineSample* t) {
  t->lock_acquisitions += a.lock_acquisitions - b.lock_acquisitions;
  t->lock_waits += a.lock_waits - b.lock_waits;
  t->lock_wait_micros += a.lock_wait_micros - b.lock_wait_micros;
  t->lock_deadlocks += a.lock_deadlocks - b.lock_deadlocks;
  t->lock_timeouts += a.lock_timeouts - b.lock_timeouts;
  AddHist(b.lock_wait, a.lock_wait, &t->lock_wait);
  t->wal_flushes += a.wal_flushes - b.wal_flushes;
  t->wal_bytes += a.wal_bytes - b.wal_bytes;
  t->wal_records += a.wal_records - b.wal_records;
  t->wal_staging_stalls += a.wal_staging_stalls - b.wal_staging_stalls;
  AddHist(b.wal_batch_records, a.wal_batch_records, &t->wal_batch_records);
  t->txn_system_committed += a.txn_system_committed - b.txn_system_committed;
  AddHist(b.stage_staging_wait, a.stage_staging_wait, &t->stage_staging_wait);
  AddHist(b.stage_batch_assembly, a.stage_batch_assembly,
          &t->stage_batch_assembly);
  AddHist(b.stage_fsync, a.stage_fsync, &t->stage_fsync);
  AddHist(b.stage_flip_wait, a.stage_flip_wait, &t->stage_flip_wait);
  t->view_increments += a.view_increments - b.view_increments;
  t->view_ghosts_created += a.view_ghosts_created - b.view_ghosts_created;
  t->view_ghost_create_races +=
      a.view_ghost_create_races - b.view_ghost_create_races;
  t->ghost_candidates_seen += a.ghost_candidates_seen - b.ghost_candidates_seen;
  t->ghost_reclaimed += a.ghost_reclaimed - b.ghost_reclaimed;
  t->ghost_skipped_locked += a.ghost_skipped_locked - b.ghost_skipped_locked;
  t->ckpt_total += a.ckpt_total - b.ckpt_total;
  AddHist(b.ckpt_duration, a.ckpt_duration, &t->ckpt_duration);
  AddHist(b.ckpt_capture_stall, a.ckpt_capture_stall, &t->ckpt_capture_stall);
  AddHist(b.ckpt_build, a.ckpt_build, &t->ckpt_build);
  AddHist(b.ckpt_write, a.ckpt_write, &t->ckpt_write);
  t->scan_cache.hits += a.scan_cache.hits - b.scan_cache.hits;
  t->scan_cache.misses += a.scan_cache.misses - b.scan_cache.misses;
  t->scan_cache.full_scans += a.scan_cache.full_scans - b.scan_cache.full_scans;
  t->scan_cache.served_scans +=
      a.scan_cache.served_scans - b.scan_cache.served_scans;
  t->scan_cache.invalidations +=
      a.scan_cache.invalidations - b.scan_cache.invalidations;
}

StorageGauges ReadStorageGauges(ivdb::Database* db) {
  (void)db->DumpMetrics();  // refreshes the point-in-time gauges
  ivdb::obs::MetricsRegistry* r = db->metrics_registry();
  StorageGauges g;
  g.version_entries = r->GetGauge("ivdb_storage_version_entries")->Value();
  g.version_chain_p99 = r->GetGauge("ivdb_storage_version_chain_p99")->Value();
  g.version_chain_max = r->GetGauge("ivdb_storage_version_chain_max")->Value();
  g.gc_lag_micros = r->GetGauge("ivdb_storage_gc_lag_micros")->Value();
  return g;
}

std::vector<LayerMetric> DeriveLayerMetrics(const LayerInputs& in) {
  const EngineSample& d = in.delta;
  const uint64_t txns = in.txns;
  const std::string per_txn = Base("txns", txns);
  std::vector<LayerMetric> out;
  auto add = [&](const char* name, const char* unit, double value,
                 std::string base) {
    out.push_back({name, unit, std::isfinite(value) ? value : 0, base});
  };

  // lock
  add("lock.acquisitions_per_txn", "1/txn", PerTxn(d.lock_acquisitions, txns),
      per_txn);
  add("lock.waits_per_txn", "1/txn", PerTxn(d.lock_waits, txns), per_txn);
  add("lock.wait_us_per_txn", "us/txn", PerTxn(d.lock_wait_micros, txns),
      per_txn);
  add("lock.wait_p99_us", "us", d.lock_wait.P99(),
      Base("waits", d.lock_wait.count));
  add("lock.deadlocks_per_1k", "1/1k_txn", Per1k(d.lock_deadlocks, txns),
      per_txn);
  add("lock.timeouts_per_1k", "1/1k_txn", Per1k(d.lock_timeouts, txns),
      per_txn);

  // wal
  add("wal.fsyncs_per_commit", "1/txn", PerTxn(d.wal_flushes, txns), per_txn);
  add("wal.bytes_per_txn", "B/txn", PerTxn(d.wal_bytes, txns), per_txn);
  add("wal.records_per_txn", "1/txn", PerTxn(d.wal_records, txns), per_txn);
  add("wal.batch_records_p50", "count", d.wal_batch_records.P50(),
      Base("batches", d.wal_batch_records.count));
  add("wal.staging_stalls_per_1k", "1/1k_txn",
      Per1k(d.wal_staging_stalls, txns), per_txn);
  const std::pair<const char*, const HistSnap*> stages[] = {
      {"wal.stage_staging_wait_us", &d.stage_staging_wait},
      {"wal.stage_batch_assembly_us", &d.stage_batch_assembly},
      {"wal.stage_fsync_us", &d.stage_fsync},
      {"wal.stage_flip_wait_us", &d.stage_flip_wait},
  };
  for (const auto& [name, h] : stages) {
    add(name, "us", h->Mean(), Base("commits", h->count));
  }

  // txn
  add("txn.begin_us", "us", in.begin_us, "traced engine.begin spans");
  add("txn.commit_call_us", "us", in.commit_call_us,
      "traced engine.commit spans");
  add("txn.retries_per_1k", "1/1k_txn", Per1k(in.retries, txns), per_txn);
  add("txn.system_commits_per_txn", "1/txn",
      PerTxn(d.txn_system_committed, txns), per_txn);

  // view
  add("view.increments_per_txn", "1/txn", PerTxn(d.view_increments, txns),
      per_txn);
  add("view.ghosts_created_per_1k", "1/1k_txn",
      Per1k(d.view_ghosts_created, txns), per_txn);
  add("view.ghost_create_races_per_1k", "1/1k_txn",
      Per1k(d.view_ghost_create_races, txns), per_txn);
  add("view.ghost_reclaimed_per_1k", "1/1k_txn",
      Per1k(d.ghost_reclaimed, txns), per_txn);
  add("view.ghost_reclaim_ratio", "ratio",
      Ratio(d.ghost_reclaimed, d.ghost_candidates_seen),
      Base("candidates", d.ghost_candidates_seen));
  add("view.ghost_skipped_locked_per_1k", "1/1k_txn",
      Per1k(d.ghost_skipped_locked, txns), per_txn);

  // storage
  const ivdb::ScanCache::Stats& cache = d.scan_cache;
  const char* const at_end = "gauge at window end";
  add("storage.version_entries", "count",
      static_cast<double>(in.gauges.version_entries), at_end);
  add("storage.version_chain_p99", "count",
      static_cast<double>(in.gauges.version_chain_p99), at_end);
  add("storage.version_chain_max", "count",
      static_cast<double>(in.gauges.version_chain_max), at_end);
  add("storage.gc_lag_us", "us", static_cast<double>(in.gauges.gc_lag_micros),
      at_end);
  add("storage.scan_cache_hit_ratio", "ratio",
      Ratio(cache.hits, cache.hits + cache.misses),
      Base("keys", cache.hits + cache.misses));
  add("storage.scan_cache_full_scan_ratio", "ratio",
      Ratio(cache.full_scans, cache.served_scans + cache.full_scans),
      Base("view_scans", cache.served_scans + cache.full_scans));
  add("storage.scan_cache_invalidations_per_txn", "1/txn",
      PerTxn(cache.invalidations, txns), per_txn);

  // engine
  add("engine.stmt_us", "us", in.stmt_us,
      "traced engine.insert/update/delete spans");
  add("engine.ckpt_count", "count", static_cast<double>(d.ckpt_total),
      "window");
  const std::pair<const char*, const HistSnap*> ckpt[] = {
      {"engine.ckpt_duration_us", &d.ckpt_duration},
      {"engine.ckpt_capture_stall_us", &d.ckpt_capture_stall},
      {"engine.ckpt_build_us", &d.ckpt_build},
      {"engine.ckpt_write_us", &d.ckpt_write},
  };
  for (const auto& [name, h] : ckpt) {
    add(name, "us", h->Mean(), Base("checkpoints", h->count));
  }
  double wal_bytes = 0, segments = 0;
  uint64_t segment_count = 0, segment_sum = 0;
  for (const RecoverySample& r : in.recoveries) {
    wal_bytes += static_cast<double>(r.wal_bytes);
    segments += static_cast<double>(r.segments);
    segment_count += r.segment_micros.count;
    segment_sum += r.segment_micros.sum;
  }
  const size_t opens = in.recoveries.size();
  add("engine.recovery_wal_bytes", "B",
      opens > 0 ? wal_bytes / static_cast<double>(opens) : 0,
      Base("opens", opens));
  add("engine.recovery_segments", "count",
      opens > 0 ? segments / static_cast<double>(opens) : 0,
      Base("opens", opens));
  add("engine.recovery_segment_us", "us", Ratio(segment_sum, segment_count),
      Base("segments", segment_count));

  // obs
  add("obs.trace_overhead_ratio", "ratio", in.trace_overhead_ratio,
      "traced commit_tps / untraced commit_tps");
  return out;
}

}  // namespace ivbench
