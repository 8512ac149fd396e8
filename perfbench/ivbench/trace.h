// Spans recorded from outside the engine: one span per call the benchmark
// makes into Database, under one root span per client request. Spans stay
// in per-thread memory while the run measures and are written out when it
// ends. Untraced calls cost one branch.
#ifndef IVBENCH_TRACE_H_
#define IVBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ivbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  // Root spans: one client request each.
  kWriteTxn,
  kViewScanReq,
  kRangeScanReq,
  kRestartReq,
  kCheckpointReq,
  // One per Database call.
  kBegin,
  kInsert,
  kUpdate,
  kDelete,
  kCommit,
  kAbort,
  kScanView,
  kScanRange,
  kCheckpoint,
  kOpen,
  kCount,
};

inline const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kWriteTxn: return "bench.write_txn";
    case SpanName::kViewScanReq: return "bench.view_scan";
    case SpanName::kRangeScanReq: return "bench.range_scan";
    case SpanName::kRestartReq: return "bench.restart";
    case SpanName::kCheckpointReq: return "bench.checkpoint";
    case SpanName::kBegin: return "engine.begin";
    case SpanName::kInsert: return "engine.insert";
    case SpanName::kUpdate: return "engine.update";
    case SpanName::kDelete: return "engine.delete";
    case SpanName::kCommit: return "engine.commit";
    case SpanName::kAbort: return "engine.abort";
    case SpanName::kScanView: return "engine.scan_view";
    case SpanName::kScanRange: return "engine.scan_range";
    case SpanName::kCheckpoint: return "engine.checkpoint";
    case SpanName::kOpen: return "engine.open";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;  // shared by every span of one request/transaction
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCount;
};

// One thread's span buffer. Ids are unique across buffers: the buffer's
// index sits in the high bits.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t index) : next_id_((index + 1) << 40) {}

  uint64_t NewId() { return ++next_id_; }
  void Add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// Owns every buffer of a run.
class Tracer {
 public:
  SpanBuffer* NewBuffer() {
    std::lock_guard<std::mutex> guard(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size()));
    return buffers_.back().get();
  }

  // Every span of the run (single-threaded use after the workers joined).
  std::vector<const Span*> All() const {
    std::vector<const Span*> out;
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans()) out.push_back(&s);
    }
    return out;
  }

  // Tab-separated: id, parent, request, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans()) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     SpanNameString(s.name),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// A client's view of one request: a root span plus one child span per
// Database call made through Call(). With a null buffer nothing is
// recorded.
class Request {
 public:
  Request(SpanBuffer* buffer, SpanName root) : buffer_(buffer), root_(root) {
    if (buffer_ == nullptr) return;
    id_ = buffer_->NewId();
    start_ns_ = NowNanos();
  }
  ~Request() {
    if (buffer_ == nullptr) return;
    buffer_->Add({id_, 0, id_, start_ns_, NowNanos(), root_});
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  template <typename F>
  auto Call(SpanName name, F&& f) {
    if (buffer_ == nullptr) return f();
    uint64_t id = buffer_->NewId();
    int64_t start = NowNanos();
    auto result = f();
    buffer_->Add({id, id_, id_, start, NowNanos(), name});
    return result;
  }

 private:
  SpanBuffer* buffer_;
  SpanName root_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace ivbench

#endif  // IVBENCH_TRACE_H_
