#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>

namespace ivdb {
namespace obs {

namespace {

// Process-unique recorder ids so the thread-local slot cache can never hand
// back a slot of a destroyed recorder that happened to be reallocated at the
// same address (ids are never reused, so a stale entry just misses).
std::atomic<uint64_t> g_next_recorder_id{1};

struct SlotCacheEntry {
  uint64_t recorder_id = 0;
  const void* recorder = nullptr;
  void* slot = nullptr;
};

// Small per-thread cache of (recorder -> slot) bindings. A thread touching
// more recorders than the cache holds (test suites spin up many engines)
// falls back to the registration path, which reuses its existing lane.
constexpr size_t kSlotCacheSize = 8;
thread_local SlotCacheEntry g_slot_cache[kSlotCacheSize];
thread_local size_t g_slot_cache_next = 0;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void AppendJsonEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// The catalog: wire name and argument keys per FlightEventType, in enum
// order. An `a` key of "txn" marks the per-transaction types; a null `b`
// key means the type leaves `b` unused. tools/ivdb_trace mirrors these keys
// (it links no ivdb library).
struct CatalogEntry {
  const char* name;
  const char* a;
  const char* b;
};

constexpr CatalogEntry kCatalog[] = {
    {"none", "a", "b"},
    {"commit", "txn", "lsn"},
    {"stage_staging_wait", "txn", "lsn"},
    {"stage_batch_assembly", "txn", "lsn"},
    {"stage_fsync", "txn", "lsn"},
    {"stage_flip_wait", "txn", "lsn"},
    {"wal_batch", "first_lsn", "last_lsn"},
    {"wal_fsync", "lsn", "bytes"},
    {"ckpt_rotate", "lsn", "arg"},
    {"ckpt_capture", "lsn", "arg"},
    {"ckpt_build", "lsn", "arg"},
    {"ckpt_write", "lsn", "arg"},
    {"ckpt_retire", "lsn", "arg"},
    {"recovery_segment", "segment", "records"},
    {"ghost_pass", "view", "reclaimed"},
    {"watchdog_pass", "aborted", nullptr},
    {"degraded", "entered", nullptr},
    {"view_build", "view", "phase"},
    {"gc_pass", "unlinked", "freed"},
    {"txn_begin", "txn", "snapshot_ts"},
    {"txn_abort", "txn", "undone"},
    {"txn_retry", "txn", "attempt"},
    {"lock_wait", "txn", "obj"},
    {"lock_deadlock", "txn", "obj"},
    {"lock_timeout", "txn", "obj"},
    {"lock_escalation", "txn", "obj"},
    {"view_maintain", "txn", "deltas"},
    {"ghost_create", "txn", "sys_txn"},
};
static_assert(std::size(kCatalog) ==
                  static_cast<size_t>(FlightEventType::kGhostCreate) + 1,
              "one catalog entry per FlightEventType");

constexpr CatalogEntry kUnknown = {"unknown", "a", "b"};

const CatalogEntry& Entry(FlightEventType type) {
  const size_t i = static_cast<size_t>(type);
  return i < std::size(kCatalog) ? kCatalog[i] : kUnknown;
}

}  // namespace

const char* FlightEventName(FlightEventType type) { return Entry(type).name; }

bool IsTxnEvent(FlightEventType type) {
  return std::strcmp(Entry(type).a, "txn") == 0;
}

FlightRecorder::FlightRecorder(Options options)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      ring_len_(RoundUpPow2(std::max<size_t>(options.events_per_thread, 2))),
      max_threads_(std::max<size_t>(options.max_threads, 1)),
      clock_(options.clock != nullptr ? options.clock : Clock::Default()) {
  slots_.resize(max_threads_);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Slot* FlightRecorder::SlotForThisThread() {
  for (SlotCacheEntry& e : g_slot_cache) {
    if (e.recorder == this && e.recorder_id == id_) {
      return static_cast<Slot*>(e.slot);
    }
  }
  return RegisterThisThread();
}

FlightRecorder::Slot* FlightRecorder::RegisterThisThread() {
  const std::thread::id self = std::this_thread::get_id();
  Slot* slot = nullptr;
  {
    MutexLock guard(&flight_mu_);
    const size_t count = slot_count_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < count; i++) {
      if (slots_[i]->owner == self) {
        slot = slots_[i].get();
        break;
      }
    }
    if (slot == nullptr && count >= max_threads_) {
      dropped_threads_.fetch_add(1, std::memory_order_relaxed);
    } else if (slot == nullptr) {
      auto fresh = std::make_unique<Slot>();
      fresh->owner = self;
      fresh->ring = std::make_unique<Cell[]>(ring_len_);
      fresh->name = "thread-" + std::to_string(count);
      slot = fresh.get();
      slots_[count] = std::move(fresh);
      slot_count_.store(count + 1, std::memory_order_release);
    }
  }
  // A refusal is cached too (slot == nullptr): the thread is counted once
  // and its later emits drop without taking flight_mu_.
  SlotCacheEntry& e = g_slot_cache[g_slot_cache_next % kSlotCacheSize];
  g_slot_cache_next++;
  e.recorder_id = id_;
  e.recorder = this;
  e.slot = slot;
  return slot;
}

void FlightRecorder::SetThreadName(const std::string& name) {
  Slot* slot = SlotForThisThread();
  if (slot == nullptr) return;
  MutexLock guard(&flight_mu_);
  slot->name = name;
}

void FlightRecorder::Emit(FlightEventType type, uint64_t start_micros,
                          uint64_t dur_micros, uint64_t a, uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Slot* slot = SlotForThisThread();
  if (slot == nullptr) {
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t idx =
      slot->next.fetch_add(1, std::memory_order_relaxed) & (ring_len_ - 1);
  Cell& cell = slot->ring[idx];
  // Invalidate, fill, publish: a concurrent Snap() that observes the stamp
  // change across its field reads discards the cell instead of reporting a
  // half-written event.
  cell.stamp.store(0, std::memory_order_release);
  cell.start.store(start_micros, std::memory_order_relaxed);
  cell.dur.store(dur_micros, std::memory_order_relaxed);
  cell.type.store(static_cast<uint64_t>(type), std::memory_order_relaxed);
  cell.a.store(a, std::memory_order_relaxed);
  cell.b.store(b, std::memory_order_relaxed);
  cell.stamp.store(seq, std::memory_order_release);
}

FlightRecorder::Snapshot FlightRecorder::Snap() const {
  Snapshot snap;
  snap.now_micros = clock_->NowMicros();
  snap.dropped_events = dropped_events_.load(std::memory_order_relaxed);
  snap.dropped_threads = dropped_threads_.load(std::memory_order_relaxed);
  MutexLock guard(&flight_mu_);
  const size_t count = slot_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; i++) {
    const Slot& slot = *slots_[i];
    ThreadTrace lane;
    lane.tid = i;
    lane.name = slot.name;
    lane.events.reserve(ring_len_);
    for (size_t c = 0; c < ring_len_; c++) {
      const Cell& cell = slot.ring[c];
      const uint64_t s1 = cell.stamp.load(std::memory_order_acquire);
      if (s1 == 0) continue;
      Event e;
      e.start_micros = cell.start.load(std::memory_order_acquire);
      e.dur_micros = cell.dur.load(std::memory_order_acquire);
      e.type = static_cast<FlightEventType>(
          cell.type.load(std::memory_order_acquire));
      e.a = cell.a.load(std::memory_order_acquire);
      e.b = cell.b.load(std::memory_order_acquire);
      const uint64_t s2 = cell.stamp.load(std::memory_order_acquire);
      if (s1 != s2) continue;  // torn by a concurrent Emit; skip the cell
      e.seq = s1;
      lane.events.push_back(e);
    }
    std::sort(lane.events.begin(), lane.events.end(),
              [](const Event& x, const Event& y) { return x.seq < y.seq; });
    snap.threads.push_back(std::move(lane));
  }
  return snap;
}

std::string FlightRecorder::Snapshot::ToJson() const {
  std::string out;
  out.reserve(4096);
  out.append("{\"flight_recorder\":1");
  out.append(",\"now_micros\":").append(std::to_string(now_micros));
  out.append(",\"dropped_events\":").append(std::to_string(dropped_events));
  out.append(",\"dropped_threads\":").append(std::to_string(dropped_threads));
  out.append(",\"threads\":[");
  bool first_thread = true;
  for (const ThreadTrace& lane : threads) {
    if (!first_thread) out.push_back(',');
    first_thread = false;
    out.append("{\"tid\":").append(std::to_string(lane.tid));
    out.append(",\"name\":\"");
    AppendJsonEscaped(lane.name, &out);
    out.append("\",\"events\":[");
    bool first_event = true;
    for (const Event& e : lane.events) {
      if (!first_event) out.push_back(',');
      first_event = false;
      out.append("{\"type\":\"").append(FlightEventName(e.type));
      out.append("\",\"seq\":").append(std::to_string(e.seq));
      out.append(",\"start_micros\":").append(std::to_string(e.start_micros));
      out.append(",\"dur_micros\":").append(std::to_string(e.dur_micros));
      out.append(",\"a\":").append(std::to_string(e.a));
      out.append(",\"b\":").append(std::to_string(e.b));
      out.push_back('}');
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

std::string FlightRecorder::Snapshot::TxnTrace(uint64_t txn_id) const {
  struct Kept {
    const Event* event;
    const std::string* lane;
  };
  std::vector<Kept> kept;
  for (const ThreadTrace& lane : threads) {
    uint64_t first = 0;
    uint64_t last = 0;
    for (const Event& e : lane.events) {
      if (IsTxnEvent(e.type) && e.a == txn_id) {
        if (first == 0) first = e.seq;
        last = e.seq;
      }
    }
    if (first == 0) continue;
    for (const Event& e : lane.events) {
      if (e.seq < first || e.seq > last) continue;
      if (!IsTxnEvent(e.type) || e.a == txn_id) {
        kept.push_back({&e, &lane.name});
      }
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Kept& x, const Kept& y) {
    return x.event->seq < y.event->seq;
  });
  uint64_t origin = UINT64_MAX;
  for (const Kept& k : kept) origin = std::min(origin, k.event->start_micros);

  std::string out = "txn " + std::to_string(txn_id) + ": " +
                    std::to_string(kept.size()) + " event(s)\n";
  for (const Kept& k : kept) {
    const Event& e = *k.event;
    const CatalogEntry& entry = Entry(e.type);
    char head[48];
    std::snprintf(head, sizeof(head), "  +%8" PRIu64 "us %-20s",
                  e.start_micros - origin, entry.name);
    out.append(head).append(" [").append(*k.lane).append("]");
    if (!IsTxnEvent(e.type)) {
      out.append(" ").append(entry.a).append("=").append(std::to_string(e.a));
    }
    if (entry.b != nullptr) {
      out.append(" ").append(entry.b).append("=").append(std::to_string(e.b));
    }
    if (e.dur_micros > 0) {
      out.append(" dur=").append(std::to_string(e.dur_micros)).append("us");
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace obs
}  // namespace ivdb
