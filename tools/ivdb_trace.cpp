// ivdb_trace — convert a flight-recorder snapshot (the JSON written by
// FlightRecorder::Snapshot::ToJson: a `blackbox-<seq>.json` black-box dump,
// or a bench's IVDB_FLIGHT_OUT file) into Chrome trace-event JSON loadable
// by chrome://tracing and Perfetto (ui.perfetto.dev).
//
//   ivdb_trace <snapshot.json> [out.json]     # default out: stdout
//
// The export keeps one lane per engine thread (committers, wal-writer,
// housekeeper, view-builder), emits complete "X" spans with
// microsecond timestamps, and carries each event's arguments under
// type-aware keys — commit stage spans and WAL batch/fsync spans both carry
// the LSN, so a commit can be visually correlated with the exact writer
// batch that made it durable, and every per-transaction span (lock waits,
// view maintenance, ghost creation, abort, retry) carries the txn id it
// shares with that transaction's commit span.
//
// Self-contained on purpose (no ivdb libs): it must keep working on a
// snapshot file even when the engine that wrote it cannot be rebuilt.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// Minimal JSON document model + recursive-descent parser, sized for the
// snapshot format: all numbers are unsigned 64-bit integers.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  uint64_t number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  uint64_t FindNumber(const std::string& key, uint64_t fallback = 0) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  std::string FindString(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kString ? v->text : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : in_(input) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == in_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= in_.size()) return false;
    switch (in_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->text);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ConsumeWord("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ConsumeWord("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ConsumeWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Consume(*p)) return false;
    }
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::Kind::kNumber;
    bool any = false;
    uint64_t value = 0;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      value = value * 10 + static_cast<uint64_t>(in_[pos_] - '0');
      ++pos_;
      any = true;
    }
    out->number = value;
    return any;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      char esc = in_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          // The snapshot writer only emits \u00XX for control bytes.
          if (pos_ + 4 > in_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue item;
      if (!ParseValue(&item)) return false;
      out->items.push_back(std::move(item));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
      SkipWs();
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
      SkipWs();
    }
  }

  const std::string& in_;
  size_t pos_ = 0;
};

void AppendEscaped(const std::string& raw, std::string* out) {
  for (char c : raw) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// Type-aware argument keys: the generic (a, b) payload of each flight event
// named per the FlightEventType catalog (obs/flight_recorder.cc). A null
// `b` key means the type leaves b unused; unknown types keep "a"/"b".
struct ArgKeys {
  const char* type;
  const char* a;
  const char* b;
};

constexpr ArgKeys kArgKeys[] = {
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

void AppendArgs(const std::string& type, uint64_t a, uint64_t b,
                std::string* out) {
  ArgKeys keys = {nullptr, "a", "b"};
  for (const ArgKeys& entry : kArgKeys) {
    if (type == entry.type) {
      keys = entry;
      break;
    }
  }
  out->append("{\"");
  out->append(keys.a);
  out->append("\":");
  out->append(std::to_string(a));
  if (keys.b != nullptr) {
    out->append(",\"");
    out->append(keys.b);
    out->append("\":");
    out->append(std::to_string(b));
  }
  out->push_back('}');
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: %s <snapshot.json> [out.json]\n"
                 "  converts a flight-recorder snapshot (blackbox dump or\n"
                 "  IVDB_FLIGHT_OUT file) to Chrome trace-event JSON\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();

  JsonValue snapshot;
  if (!JsonParser(contents).Parse(&snapshot) ||
      snapshot.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "%s: not valid JSON\n", argv[1]);
    return 1;
  }
  if (snapshot.Find("flight_recorder") == nullptr) {
    std::fprintf(stderr, "%s: not a flight-recorder snapshot\n", argv[1]);
    return 1;
  }
  const JsonValue* threads = snapshot.Find("threads");
  if (threads == nullptr || threads->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "%s: snapshot has no threads array\n", argv[1]);
    return 1;
  }

  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  out.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ivdb\"}}");
  size_t span_count = 0;
  for (const JsonValue& lane : threads->items) {
    if (lane.kind != JsonValue::Kind::kObject) continue;
    const uint64_t tid = lane.FindNumber("tid");
    std::string name = lane.FindString("name");
    if (name.empty()) name = "thread-" + std::to_string(tid);
    out.append(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.append(std::to_string(tid));
    out.append(",\"args\":{\"name\":\"");
    AppendEscaped(name, &out);
    out.append("\"}}");
    const JsonValue* events = lane.Find("events");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray) continue;
    for (const JsonValue& ev : events->items) {
      if (ev.kind != JsonValue::Kind::kObject) continue;
      const std::string type = ev.FindString("type");
      const uint64_t start = ev.FindNumber("start_micros");
      const uint64_t dur = ev.FindNumber("dur_micros");
      out.append(",\n{\"name\":\"");
      AppendEscaped(type, &out);
      if (dur == 0) {
        // Zero-length markers (degraded-mode entry, empty passes) render as
        // thread-scoped instants rather than invisible slivers.
        out.append("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        out.append(std::to_string(start));
      } else {
        out.append("\",\"ph\":\"X\",\"ts\":");
        out.append(std::to_string(start));
        out.append(",\"dur\":");
        out.append(std::to_string(dur));
      }
      out.append(",\"pid\":1,\"tid\":");
      out.append(std::to_string(tid));
      out.append(",\"args\":");
      AppendArgs(type, ev.FindNumber("a"), ev.FindNumber("b"), &out);
      out.push_back('}');
      ++span_count;
    }
  }
  out.append("\n]}\n");

  if (argc == 3) {
    std::ofstream sink(argv[2], std::ios::binary | std::ios::trunc);
    if (!sink) {
      std::fprintf(stderr, "cannot write %s\n", argv[2]);
      return 1;
    }
    sink << out;
  } else {
    std::fputs(out.c_str(), stdout);
  }
  std::fprintf(stderr, "ivdb_trace: %zu events across %zu lanes\n", span_count,
               threads->items.size());
  return 0;
}
