// Per-layer metrics read from outside the engine: before/after samples of
// the engine's own metrics registry, taken around the measured window, plus
// the benchmark's spans. Layer names follow the src/ modules.
#ifndef IVBENCH_LAYERS_H_
#define IVBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "storage/scan_cache.h"

namespace ivbench {

using HistSnap = ivdb::obs::Histogram::Snapshot;

// Monotonic engine counters and histograms; subtracting two samples gives
// the work done between them.
struct EngineSample {
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_micros = 0;
  uint64_t lock_deadlocks = 0;
  uint64_t lock_timeouts = 0;
  HistSnap lock_wait;

  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_staging_stalls = 0;
  HistSnap wal_batch_records;

  uint64_t txn_system_committed = 0;
  HistSnap stage_staging_wait;
  HistSnap stage_batch_assembly;
  HistSnap stage_fsync;
  HistSnap stage_flip_wait;

  // Summed over both views.
  uint64_t view_increments = 0;
  uint64_t view_ghosts_created = 0;
  uint64_t view_ghost_create_races = 0;
  uint64_t ghost_candidates_seen = 0;
  uint64_t ghost_reclaimed = 0;
  uint64_t ghost_skipped_locked = 0;

  uint64_t ckpt_total = 0;
  HistSnap ckpt_duration;
  HistSnap ckpt_capture_stall;
  HistSnap ckpt_build;
  HistSnap ckpt_write;

  ivdb::ScanCache::Stats scan_cache;
};

EngineSample TakeSample(ivdb::Database* db);

// Adds the work one engine did between two of its samples to *total. A
// window that spans several engine instances (the restart workload opens
// one per round) sums their deltas.
void AddDelta(const EngineSample& before, const EngineSample& after,
              EngineSample* total);

// Point-in-time storage gauges, refreshed through DumpMetrics().
struct StorageGauges {
  int64_t version_entries = 0;
  int64_t version_chain_p99 = 0;
  int64_t version_chain_max = 0;
  int64_t gc_lag_micros = 0;
};

StorageGauges ReadStorageGauges(ivdb::Database* db);

// What one Database::Open saw, measured from outside: the WAL it was handed
// and the per-segment replay histogram it recorded.
struct RecoverySample {
  uint64_t wal_bytes = 0;
  uint64_t segments = 0;
  HistSnap segment_micros;
};

struct LayerInputs {
  uint64_t txns = 0;     // acknowledged write transactions in the window
  uint64_t retries = 0;  // transactions the benchmark re-sent after a failure
  EngineSample delta;    // engine work during the window (AddDelta)
  StorageGauges gauges;
  // Benchmark-timed means from the traced run's spans, in microseconds.
  double begin_us = 0;
  double commit_call_us = 0;
  double stmt_us = 0;
  std::vector<RecoverySample> recoveries;
  double trace_overhead_ratio = 0;
};

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string base;  // the count a ratio or mean is taken over
};

std::vector<LayerMetric> DeriveLayerMetrics(const LayerInputs& in);

}  // namespace ivbench

#endif  // IVBENCH_LAYERS_H_
