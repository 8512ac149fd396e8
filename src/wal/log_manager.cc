#include "wal/log_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/invariant.h"
#include "common/lock_order.h"
#include "common/logging.h"

namespace ivdb {

namespace {

// Recognizes `wal-<digits>.log` and extracts the sequence number.
bool ParseSegmentSeqno(const std::string& name, uint64_t* seqno) {
  constexpr size_t kPrefixLen = 4;  // "wal-"
  constexpr size_t kSuffixLen = 4;  // ".log"
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  if (name.compare(0, kPrefixLen, "wal-") != 0) return false;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seqno = value;
  return true;
}

// Walks the frames of one segment. In strict mode (sealed segments) any
// torn frame, checksum mismatch, undecodable body, or trailing garbage is
// Corruption — rotation fsyncs before sealing, so nothing short of real
// damage explains it. In tolerant mode (the newest segment) decoding stops
// at the first bad frame: that is the crash tail. `valid_bytes` receives
// the length of the well-formed prefix either way.
Status DecodeSegment(const std::string& contents, bool strict,
                     std::vector<LogRecord>* out, uint64_t* valid_bytes) {
  out->clear();
  *valid_bytes = 0;
  Slice input(contents);
  while (input.size() >= 8) {
    Slice frame = input;
    uint32_t len = 0, crc = 0;
    GetFixed32(&frame, &len);
    GetFixed32(&frame, &crc);
    if (frame.size() < len) {
      if (strict) return Status::Corruption("torn record");
      return Status::OK();
    }
    Slice body(frame.data(), len);
    if (Crc32(body.data(), body.size()) != crc) {
      if (strict) return Status::Corruption("record checksum mismatch");
      return Status::OK();
    }
    LogRecord rec;
    if (!LogRecord::DecodeFrom(body, &rec).ok()) {
      if (strict) return Status::Corruption("undecodable record");
      return Status::OK();
    }
    out->push_back(std::move(rec));
    input.RemovePrefix(8 + len);
    *valid_bytes += 8 + len;
  }
  if (strict && input.size() != 0) {
    return Status::Corruption("trailing bytes after last record");
  }
  return Status::OK();
}

}  // namespace

LogManagerMetrics::LogManagerMetrics(obs::MetricsRegistry* registry)
    : records_appended(
          registry->GetCounter("ivdb_wal_records_appended_total")),
      bytes_appended(registry->GetCounter("ivdb_wal_bytes_appended_total")),
      flushes(registry->GetCounter("ivdb_wal_flushes_total")),
      flushed_records(registry->GetCounter("ivdb_wal_flushed_records_total")),
      rotations(registry->GetCounter("ivdb_wal_rotations_total")),
      segments_retired(
          registry->GetCounter("ivdb_wal_segments_retired_total")),
      segments(registry->GetGauge("ivdb_wal_segments")),
      flush_wait_latency(
          registry->GetHistogram("ivdb_wal_flush_wait_micros")),
      batch_records(registry->GetHistogram("ivdb_wal_batch_records")),
      batch_bytes(registry->GetHistogram("ivdb_wal_batch_bytes")),
      batch_window(registry->GetHistogram("ivdb_wal_batch_window_micros")),
      staging_stalls(registry->GetCounter("ivdb_wal_staging_stalls_total")),
      convoy_timeouts(
          registry->GetCounter("ivdb_wal_convoy_timeouts_total")) {}

LogManager::LogManager(LogManagerOptions options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : Env::Default()),
      owned_registry_(options_.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_registry_.get()),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Default()),
      flight_(options_.flight),
      policy_(options_.group_commit_window_micros,
              2 * options_.group_commit_window_micros) {
  uint32_t n = options_.staging_shards;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::min<uint32_t>(8, hw == 0 ? 1 : hw);
  }
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<StagingShard>());
  }
  // Started here rather than in Open() so fixtures that never Open (the
  // in-memory log) still get a writer; it parks until work arrives.
  writer_ = std::thread([this] { WriterLoop(); });
}

LogManager::~LogManager() {
  {
    MutexLock guard(&flush_mu_);
    writer_stop_ = true;
    writer_cv_.NotifyAll();
  }
  writer_.join();
  // Destructor: nowhere to surface a close error, and everything acked was
  // already fsynced — an error here cannot lose acknowledged data. (Staged
  // frames never flushed are dropped: no committer was told they landed.)
  if (file_ != nullptr) (void)file_->Close();
}

std::string LogManager::SegmentFileName(uint64_t seqno) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seqno));
  return buf;
}

std::string LogManager::SegmentPath(uint64_t seqno) const {
  return options_.dir + "/" + SegmentFileName(seqno);
}

Result<std::vector<std::string>> LogManager::ListSegmentFiles(
    const std::string& dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::vector<std::string> entries;
  IVDB_ASSIGN_OR_RETURN(entries, env->ListDirectory(dir));
  std::vector<std::pair<uint64_t, std::string>> found;
  for (auto& name : entries) {
    uint64_t seqno = 0;
    if (ParseSegmentSeqno(name, &seqno)) {
      found.emplace_back(seqno, std::move(name));
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (size_t i = 0; i < found.size(); ++i) {
    // Retirement deletes oldest-first and rotation appends at the end, so
    // live seqnos are always dense; a hole means a segment was lost.
    if (i > 0 && found[i].first != found[i - 1].first + 1) {
      return Status::Corruption("gap in WAL segment sequence at " +
                                found[i].second);
    }
    names.push_back(std::move(found[i].second));
  }
  return names;
}

Status LogManager::Open(std::vector<LogRecord>* records, unsigned threads,
                        std::vector<SegmentReadStats>* segment_stats) {
  std::vector<LogRecord> discarded;
  if (records == nullptr) records = &discarded;
  records->clear();
  if (segment_stats != nullptr) segment_stats->clear();
  if (options_.dir.empty()) return Status::OK();  // in-memory log
  IVDB_RETURN_NOT_OK(env_->EnsureDirectory(options_.dir));
  std::vector<std::string> names;
  IVDB_ASSIGN_OR_RETURN(names, ListSegmentFiles(options_.dir, env_));

  std::vector<Segment> segments;
  std::vector<SegmentReadStats> stats;
  if (names.empty()) {
    IVDB_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(
                                     SegmentPath(1),
                                     /*truncate_existing=*/true));
    Segment seg;
    seg.seqno = 1;
    segments.push_back(seg);
  } else {
    IVDB_RETURN_NOT_OK(ReadSegmentFiles(options_.dir, names, env_, threads,
                                        /*min_lsn=*/0, records, &stats));
    for (const SegmentReadStats& st : stats) {
      Segment seg;
      seg.seqno = st.seqno;
      seg.bytes = st.bytes;
      seg.end_lsn = st.last_lsn;
      segments.push_back(seg);
    }
    // The newest segment is the open one: no end LSN while appendable.
    // Crash-tail repair: drop any bytes past its last whole record so
    // appends resume exactly where the durable prefix ends. Without this
    // an append-mode reopen would write *after* the torn bytes, and every
    // record from here on would be unreachable to the next recovery.
    segments.back().end_lsn = kInvalidLsn;
    const std::string newest = options_.dir + "/" + names.back();
    if (stats.back().file_bytes > stats.back().bytes) {
      IVDB_RETURN_NOT_OK(env_->TruncateFile(newest, stats.back().bytes));
    }
    IVDB_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(
                                     newest, /*truncate_existing=*/false));
  }
  const Lsn last_lsn_on_disk = records->empty() ? 0 : records->back().lsn;

  {
    MutexLock seg_guard(&seg_mu_);
    segments_ = std::move(segments);
    metrics_.segments->Set(static_cast<int64_t>(segments_.size()));
  }
  next_lsn_.store(last_lsn_on_disk + 1, std::memory_order_relaxed);
  flushed_lsn_.store(last_lsn_on_disk, std::memory_order_relaxed);
  opened_.store(true, std::memory_order_release);
  if (segment_stats != nullptr) *segment_stats = std::move(stats);
  return Status::OK();
}

Status LogManager::WriteBatch(const std::string& batch) {
  // The whole device interaction — append, fsync, and the modelled device
  // latency — counts as the batch's sync time. Published before the durable
  // watermark advances so a committer waking from Flush() reads the duration
  // of the batch that made it durable (see last_batch_fsync_micros()).
  const uint64_t sync_start = clock_->NowMicros();
  if (!batch.empty() && file_ != nullptr) {
    IVDB_RETURN_NOT_OK(file_->Append(batch));
    if (options_.sync == SyncMode::kFsync) {
      IVDB_RETURN_NOT_OK(file_->Sync());
    }
  }
  clock_->SleepMicros(options_.flush_delay_micros);
  if (!batch.empty()) {
    last_batch_fsync_micros_.store(clock_->NowMicros() - sync_start,
                                   std::memory_order_relaxed);
  }
  return Status::OK();
}

Status LogManager::RotateLocked(Lsn seal_end_lsn) {
  // Seal the outgoing segment with an unconditional fsync — even under
  // SyncMode::kNone. From here on the segment is immutable, and recovery
  // is entitled to treat any damage in it as hard corruption rather than
  // a crash tail (only the newest segment can be torn).
  IVDB_RETURN_NOT_OK(file_->Sync());
  IVDB_RETURN_NOT_OK(file_->Close());
  uint64_t next_seqno;
  {
    MutexLock seg_guard(&seg_mu_);
    next_seqno = segments_.back().seqno + 1;
  }
  // Creating the file durably adds its directory entry (Env contract), so
  // the directory listing stays an accurate manifest across a crash here.
  IVDB_ASSIGN_OR_RETURN(file_,
                        env_->NewWritableFile(SegmentPath(next_seqno),
                                              /*truncate_existing=*/true));
  {
    MutexLock seg_guard(&seg_mu_);
    segments_.back().end_lsn = seal_end_lsn;
    Segment fresh;
    fresh.seqno = next_seqno;
    segments_.push_back(fresh);
    metrics_.segments->Set(static_cast<int64_t>(segments_.size()));
  }
  metrics_.rotations->Add();
  return Status::OK();
}

size_t LogManager::ShardIndex() const {
  // Stable per-thread shard pick; collisions only share a staging buffer.
  thread_local const size_t hashed =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return hashed % shards_.size();
}

Status LogManager::Append(LogRecord* rec) {
  if (poisoned()) {
    // Belt-and-braces: normally a Flush/RotateNow waiter claims the deferred
    // callback first, but an appender can be the first thread to observe
    // the poison.
    FirePendingPoisonCallback();
    return Status::Unavailable("WAL is poisoned; engine is read-only");
  }
  if (!options_.dir.empty() && !opened_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("WAL is not open");
  }
  StagingShard& shard = *shards_[ShardIndex()];
  // The LSN is drawn while holding the shard mutex, so a shard's staged
  // vector is internally LSN-sorted and the writer's cross-shard merge only
  // ever has *transient* head-of-line gaps (a committer caught between its
  // fetch_add and its emplace lives in some shard the writer has yet to
  // drain — and it cannot be THIS shard, which we hold).
  MutexLock guard(&shard.wal_shard_mu_);
  rec->lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  IVDB_INVARIANT(rec->lsn > flushed_lsn_.load(std::memory_order_relaxed),
                 "WAL LSN must advance past the flushed prefix");
  std::string body;
  rec->EncodeTo(&body);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed32(&frame, Crc32(body.data(), body.size()));
  frame.append(body);
  const uint64_t frame_bytes = frame.size();
  shard.staged.emplace_back(rec->lsn, std::move(frame));
  metrics_.records_appended->Add();
  metrics_.bytes_appended->Add(frame_bytes);
  appended_bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status LogManager::Flush(Lsn upto) {
  if (flushed_lsn_.load(std::memory_order_acquire) >= upto) {
    return Status::OK();  // already durable: not a flush wait
  }
  // Visible to the writer as "commit waiters this batch will serve" — the
  // adaptive policy's load signal.
  flush_waiters_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t flush_start = clock_->NowMicros();
  Status result = Status::OK();
  {
    UniqueMutexLock lock(&flush_mu_);
    // Counted by the convoy wait until the pass that covers `upto` sweeps
    // it out as it releases its batch (after a poison no pass does, and
    // nothing reads the count again).
    if (flushed_lsn_.load(std::memory_order_acquire) < upto) {
      flush_waiting_.push_back(upto);
    }
    while (flushed_lsn_.load(std::memory_order_acquire) < upto) {
      if (poisoned()) {
        // First waiter in claims the writer's root-cause I/O status; the
        // rest of the batch learns kUnavailable (the documented
        // failed-batch-fsync ambiguity: recovery is the arbiter of what
        // actually landed).
        result = ClaimPoisonStatusLocked();
        break;
      }
      // Re-requested on every iteration (not just the first) so a wakeup
      // raced by a concurrent pass can never strand this waiter: either the
      // watermark already covers us, or the writer has a fresh request.
      work_requested_ = true;
      writer_cv_.NotifyOne();
      flush_cv_.Wait(&lock);
    }
  }
  flush_waiters_.fetch_sub(1, std::memory_order_relaxed);
  if (!result.ok()) {
    // Fired here — on the failing committer's thread, not on the writer
    // thread — so the degraded-mode marker lands on the lane of the
    // transaction that surfaces the failure.
    FirePendingPoisonCallback();
  }
  IVDB_RETURN_NOT_OK(result);
  metrics_.flush_wait_latency->Record(clock_->NowMicros() - flush_start);
  return Status::OK();
}

Status LogManager::RotateNow() {
  if (options_.dir.empty()) return Status::OK();  // in-memory log
  Status result = Status::OK();
  {
    UniqueMutexLock lock(&flush_mu_);
    if (poisoned()) {
      result = ClaimPoisonStatusLocked();
    } else {
      // Sequence-numbered handshake (see the member comment): the writer
      // only acks seq values it sampled BEFORE draining, so our records —
      // staged before this call — are always part of the acking pass's
      // batch.
      const uint64_t seq = ++rotate_seq_;
      writer_cv_.NotifyOne();
      while (rotate_seq_done_ < seq) {
        if (poisoned()) {
          result = ClaimPoisonStatusLocked();
          break;
        }
        flush_cv_.Wait(&lock);
      }
    }
  }
  if (!result.ok()) FirePendingPoisonCallback();
  return result;
}

void LogManager::WriterLoop() {
  if (flight_ != nullptr) flight_->SetThreadName("wal-writer");
  for (;;) {
    bool do_rotate = false;
    uint64_t rotate_target = 0;
    {
      UniqueMutexLock lock(&flush_mu_);
      while (!work_requested_ && rotate_seq_done_ == rotate_seq_ &&
             !writer_stop_) {
        writer_cv_.Wait(&lock);
      }
      if (writer_stop_) break;
      work_requested_ = false;
      rotate_target = rotate_seq_;
      do_rotate = rotate_target > rotate_seq_done_;
    }
    const uint64_t wake = clock_->NowMicros();
    // Adaptive batching window: committers released by the previous
    // batch's completion re-commit nearly simultaneously, so the first
    // stager's wakeup races the rest of the convoy — sleeping a short
    // window here lets the whole convoy ride one fsync instead of
    // splitting across two. Through the Clock seam, so ManualClock
    // harnesses run the pipeline in deterministic virtual time. Skipped
    // when rotating — RotateNow is a checkpoint-path barrier, not a
    // commit.
    const uint64_t window = policy_.window_micros();
    if (window > 0 && !do_rotate) clock_->SleepMicros(window);
    // Committers slower than the window would otherwise settle into two
    // alternating half-batches, each waiting out the other's device write.
    // Only a simulated device has been measured to repay the wait.
    if (options_.flush_delay_micros > 0 && !do_rotate) AwaitConvoy();
    WriteStagedBatch(do_rotate, rotate_target, wake);
  }
}

void LogManager::AwaitConvoy() {
  UniqueMutexLock lock(&flush_mu_);
  if (convoy_ <= 1) return;  // a lone committer waits for nobody
  // Every Flush() caller joins flush_waiting_ and notifies writer_cv_
  // under flush_mu_.
  auto done = [this] {
    return flush_waiting_.size() >= convoy_ || writer_stop_ || poisoned();
  };
  if (!writer_cv_.WaitFor(&lock, last_device_time_ / 2, done)) {
    metrics_.convoy_timeouts->Add();
  }
}

void LogManager::WriteStagedBatch(bool do_rotate, uint64_t rotate_target,
                                  uint64_t wake_micros) {
  if (poisoned()) {
    // A work request can race the poison; once poisoned no further bytes
    // may reach the file (and rotations are not acked — their waiters bail
    // out on the poison check).
    MutexLock guard(&flush_mu_);
    flush_cv_.NotifyAll();
    return;
  }
  const uint64_t seal_start = clock_->NowMicros();
  // Drain every shard into the writer-private reorder map. Shard mutexes
  // are taken strictly one at a time (they share a rank; nesting two is a
  // lock-order violation by design).
  for (auto& shard : shards_) {
    MutexLock guard(&shard->wal_shard_mu_);
    for (auto& staged : shard->staged) {
      pending_frames_.emplace(staged.first, std::move(staged.second));
    }
    shard->staged.clear();
  }
  // Concatenate the dense LSN prefix. A head-of-line gap means a committer
  // is between its LSN draw and its staging in an undrained shard; its
  // Flush() will re-request work, so frames past the gap just wait here.
  std::string batch;
  Lsn upto = flushed_lsn_.load(std::memory_order_relaxed);
  const Lsn batch_first = upto + 1;
  uint64_t batch_count = 0;
  while (!pending_frames_.empty() &&
         pending_frames_.begin()->first == upto + 1) {
    batch.append(pending_frames_.begin()->second);
    upto = pending_frames_.begin()->first;
    ++batch_count;
    pending_frames_.erase(pending_frames_.begin());
  }
  if (!pending_frames_.empty()) metrics_.staging_stalls->Add();
  const uint32_t waiters = flush_waiters_.load(std::memory_order_relaxed);

  Status status = Status::OK();
  const uint64_t write_start = clock_->NowMicros();
  if (!batch.empty() || do_rotate) {
    // ONE segment append + ONE fsync for the whole batch (WriteBatch also
    // models the device latency).
    const auto device_start = std::chrono::steady_clock::now();
    status = WriteBatch(batch);
    if (!batch.empty()) {
      last_device_time_ = std::chrono::steady_clock::now() - device_start;
    }
  }
  if (flight_ != nullptr && !batch.empty()) {
    const uint64_t write_end = clock_->NowMicros();
    // Two spans on the wal-writer lane, LSN-correlated with the committer
    // stage spans: the whole pass from the writer's wakeup (window, convoy
    // wait, drain, reorder, write) and the device interaction alone.
    flight_->Emit(obs::FlightEventType::kWalBatch, wake_micros,
                  write_end - wake_micros, batch_first, upto);
    flight_->Emit(obs::FlightEventType::kWalFsync, write_start,
                  write_end - write_start, upto, batch.size());
  }

  // Pass epilogue under flush_mu_. The durable watermark must not advance
  // until every env op of this pass — including rotation — has completed:
  // see the declaration comment (single-threaded determinism).
  MutexLock guard(&flush_mu_);
  if (!status.ok()) {
    PoisonStagedLocked(std::move(status));
    return;
  }
  if (!batch.empty()) {
    metrics_.flushes->Add();
    metrics_.batch_records->Record(batch_count);
    metrics_.batch_bytes->Record(batch.size());
    metrics_.batch_window->Record(seal_start - wake_micros);
    policy_.OnBatch(waiters);
  }
  if (file_ != nullptr) {
    uint64_t open_bytes;
    {
      MutexLock seg_guard(&seg_mu_);
      segments_.back().bytes += batch.size();
      open_bytes = segments_.back().bytes;
    }
    const bool over_threshold =
        options_.segment_bytes > 0 && open_bytes >= options_.segment_bytes;
    if ((over_threshold || do_rotate) && open_bytes > 0) {
      // Every batch lands wholly in the open segment, so its highest LSN
      // is exactly the durable watermark this pass is about to publish.
      Status rs = RotateLocked(upto);
      if (!rs.ok()) {
        // Same poison rules as a failed batch. The batch itself IS durable,
        // but its waiters are told the failure — the documented
        // failed-fsync ambiguity window; recovery is the arbiter.
        PoisonStagedLocked(std::move(rs));
        return;
      }
    }
  }
  const Lsn prev = flushed_lsn_.load(std::memory_order_relaxed);
  IVDB_INVARIANT(upto >= prev, "flushed LSN watermark may only advance");
  if (upto > prev) {
    metrics_.flushed_records->Add(upto - prev);
    flushed_lsn_.store(upto, std::memory_order_release);
  }
  if (do_rotate) rotate_seq_done_ = rotate_target;
  // The convoy: the committers this pass releases plus those still
  // parked. The released ones leave flush_waiting_ here rather than when
  // they wake, so the next pass counts them only once they are back.
  convoy_ = flush_waiting_.size();
  flush_waiting_.erase(
      std::remove_if(flush_waiting_.begin(), flush_waiting_.end(),
                     [upto](Lsn lsn) { return lsn <= upto; }),
      flush_waiting_.end());
  flush_cv_.NotifyAll();
}

Status LogManager::RetireSegmentsBelow(Lsn lsn) {
  if (options_.dir.empty()) return Status::OK();  // in-memory log
  // An online view build pins its replay tail: never retire a segment
  // holding LSNs the build's catch-up cursor may still need.
  const Lsn floor = retain_floor_.load(std::memory_order_acquire);
  if (floor != 0 && floor < lsn) lsn = floor;
  MutexLock guard(&seg_mu_);
  Status result = Status::OK();
  while (segments_.size() > 1) {
    const Segment& oldest = segments_.front();
    if (oldest.end_lsn == kInvalidLsn || oldest.end_lsn >= lsn) break;
    Status s = env_->RemoveFileIfExists(SegmentPath(oldest.seqno));
    if (!s.ok()) {
      // Not poisonous: an undeleted dead segment costs disk space only —
      // its records sit below the redo horizon and recovery filters them.
      // The next checkpoint retries.
      result = s;
      break;
    }
    segments_.erase(segments_.begin());
    metrics_.segments_retired->Add();
  }
  metrics_.segments->Set(static_cast<int64_t>(segments_.size()));
  return result;
}

size_t LogManager::SegmentCount() const {
  MutexLock guard(&seg_mu_);
  return segments_.size();
}

void LogManager::AdvancePastLsn(Lsn lsn) {
  Lsn cur = next_lsn_.load(std::memory_order_relaxed);
  while (cur <= lsn && !next_lsn_.compare_exchange_weak(cur, lsn + 1)) {
  }
  Lsn f = flushed_lsn_.load(std::memory_order_relaxed);
  while (f < lsn && !flushed_lsn_.compare_exchange_weak(f, lsn)) {
  }
}

Status LogManager::ReadLog(const std::string& dir,
                           std::vector<LogRecord>* records, Env* env,
                           unsigned threads,
                           std::vector<SegmentReadStats>* segment_stats) {
  records->clear();
  if (segment_stats != nullptr) segment_stats->clear();
  if (env == nullptr) env = Env::Default();
  if (!env->FileExists(dir)) return Status::OK();  // no log yet
  std::vector<std::string> names;
  IVDB_ASSIGN_OR_RETURN(names, ListSegmentFiles(dir, env));
  if (names.empty()) return Status::OK();
  return ReadSegmentFiles(dir, names, env, threads, /*min_lsn=*/0, records,
                          segment_stats);
}

Status LogManager::ReadTail(Lsn from_lsn, std::vector<LogRecord>* records,
                            unsigned threads,
                            std::vector<SegmentReadStats>* segment_stats) {
  records->clear();
  if (segment_stats != nullptr) segment_stats->clear();
  if (options_.dir.empty()) {
    return Status::InvalidArgument("ReadTail needs a durable log");
  }
  // Snapshot the manifest: segments whose sealed range ends below from_lsn
  // have nothing to contribute; the open segment (end_lsn unset) always
  // qualifies. The retention floor keeps the chosen files alive after the
  // snapshot, so a concurrent checkpoint retirement cannot race the reads.
  std::vector<std::string> names;
  {
    MutexLock guard(&seg_mu_);
    for (const Segment& seg : segments_) {
      if (seg.end_lsn != kInvalidLsn && seg.end_lsn < from_lsn) continue;
      names.push_back(SegmentFileName(seg.seqno));
    }
  }
  if (names.empty()) return Status::OK();
  return ReadSegmentFiles(options_.dir, names, env_, threads, from_lsn,
                          records, segment_stats);
}

Status LogManager::ReadSegmentFiles(
    const std::string& dir, const std::vector<std::string>& names, Env* env,
    unsigned threads, Lsn min_lsn, std::vector<LogRecord>* records,
    std::vector<SegmentReadStats>* segment_stats) {
  const size_t n = names.size();
  unsigned workers = threads;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = std::min<unsigned>(4, hw == 0 ? 1 : hw);
  }
  workers = static_cast<unsigned>(
      std::min<size_t>(workers, n));
  if (workers < 1) workers = 1;

  // Decode + CRC-check segments concurrently; each worker owns a disjoint
  // round-robin slice, writing into its own slots, so no synchronization
  // is needed beyond the join.
  std::vector<std::vector<LogRecord>> per_segment(n);
  std::vector<Status> statuses(n, Status::OK());
  std::vector<SegmentReadStats> stats(n);
  auto decode_one = [&](size_t i) {
    const uint64_t decode_start = Clock::Default()->NowMicros();
    const bool newest = (i + 1 == n);
    std::string contents;
    Status s = env->ReadFileToString(dir + "/" + names[i], &contents);
    if (!s.ok()) {
      statuses[i] = s;
      return;
    }
    uint64_t valid_bytes = 0;
    s = DecodeSegment(contents, /*strict=*/!newest, &per_segment[i],
                      &valid_bytes);
    if (!s.ok()) {
      statuses[i] =
          Status::Corruption("WAL segment " + names[i] + ": " + s.message());
      return;
    }
    (void)ParseSegmentSeqno(names[i], &stats[i].seqno);
    stats[i].records = per_segment[i].size();
    stats[i].bytes = valid_bytes;
    stats[i].file_bytes = contents.size();
    if (!per_segment[i].empty()) {
      stats[i].last_lsn = per_segment[i].back().lsn;
    }
    stats[i].micros = Clock::Default()->NowMicros() - decode_start;
  };
  if (workers == 1) {
    for (size_t i = 0; i < n; ++i) decode_one(i);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (size_t i = w; i < n; i += workers) decode_one(i);
      });
    }
    for (auto& t : pool) t.join();
  }
  for (size_t i = 0; i < n; ++i) IVDB_RETURN_NOT_OK(statuses[i]);
  if (segment_stats != nullptr) *segment_stats = std::move(stats);

  // Merge in seqno order. Records are never split across segments and LSNs
  // are assigned contiguously, so the stream must be dense across segment
  // boundaries; a gap means a lost or reordered segment.
  Lsn expected_first = kInvalidLsn;
  size_t total = 0;
  for (const auto& recs : per_segment) total += recs.size();
  records->reserve(total);
  for (size_t i = 0; i < n; ++i) {
    if (per_segment[i].empty()) {
      // Only the newest segment may be empty (created by rotation or Open
      // just before the crash). Rotation never seals an empty segment, so
      // an empty sealed one means its contents were lost.
      if (i + 1 != n) {
        return Status::Corruption("WAL segment " + names[i] +
                                  " is empty but sealed");
      }
      continue;
    }
    if (expected_first != kInvalidLsn &&
        per_segment[i].front().lsn != expected_first) {
      return Status::Corruption("WAL segment " + names[i] +
                                " does not continue the LSN stream");
    }
    expected_first = per_segment[i].back().lsn + 1;
    for (auto& rec : per_segment[i]) {
      if (min_lsn != 0 && rec.lsn < min_lsn) continue;
      records->push_back(std::move(rec));
    }
  }
  return Status::OK();
}

void LogManager::Poison() {
  if (!poisoned_.exchange(true, std::memory_order_acq_rel)) {
    // Wake flush waiters parked on flush_cv_ so they observe the poison
    // instead of waiting for a durability that will never come, and end a
    // convoy wait early.
    flush_cv_.NotifyAll();
    writer_cv_.NotifyOne();
    if (options_.on_poison) options_.on_poison();
  }
}

void LogManager::PoisonStagedLocked(Status cause) {
  if (staged_error_.ok()) staged_error_ = std::move(cause);
  if (!poisoned_.exchange(true, std::memory_order_acq_rel)) {
    // Defer the callback: the writer thread serves no transaction, so the
    // first waiter to observe the poison fires it from its own thread.
    poison_callback_pending_.store(true, std::memory_order_release);
  }
  flush_cv_.NotifyAll();
}

Status LogManager::ClaimPoisonStatusLocked() {
  if (!staged_error_claimed_ && !staged_error_.ok()) {
    staged_error_claimed_ = true;
    return staged_error_;
  }
  return Status::Unavailable("WAL is poisoned; engine is read-only");
}

void LogManager::FirePendingPoisonCallback() {
  if (poison_callback_pending_.exchange(false, std::memory_order_acq_rel)) {
    if (options_.on_poison) options_.on_poison();
  }
}

}  // namespace ivdb
