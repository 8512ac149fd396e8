#ifndef IVDB_COMMON_ENV_H_
#define IVDB_COMMON_ENV_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace ivdb {

// An open file handle for sequential appends (the WAL, checkpoint temp
// files). Sync() is the durability boundary: bytes appended before a
// successful Sync() survive a crash; bytes after it may or may not.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const std::string& data) = 0;
  // fdatasync-equivalent: everything appended so far reaches stable storage.
  virtual Status Sync() = 0;
  virtual Status Truncate(uint64_t size) = 0;
  // Close is not a durability boundary; it never loses synced data.
  virtual Status Close() = 0;
};

// The seam between the engine and the filesystem. All file I/O performed by
// the WAL, the checkpoint path, and recovery goes through an Env, so tests
// can substitute FaultInjectionEnv to inject torn writes, fsync failures,
// transient errors, and exact power-loss states at any write/sync boundary.
class Env {
 public:
  virtual ~Env() = default;

  // Process-wide PosixEnv singleton (zero-overhead passthrough).
  static Env* Default();

  // Opens `path` for writing, creating it if needed. `truncate_existing`
  // chooses between replace (checkpoint temp files) and append (the WAL).
  // Creating a file also makes its directory entry durable.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate_existing) = 0;

  // Reads an entire file into *out. NotFound if the file does not exist;
  // *out is left empty on any failure.
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;

  virtual Status RemoveFileIfExists(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status EnsureDirectory(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  // fsyncs a directory so renames/creations inside it survive a crash.
  virtual Status SyncDirectory(const std::string& path) = 0;
  // Names (not paths) of the entries in a directory.
  virtual Result<std::vector<std::string>> ListDirectory(
      const std::string& path) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;

  // Atomically replaces `path` with `contents`: write `path + ".tmp"`, sync
  // it, rename over the target, sync the directory. Built from the virtual
  // primitives above so every step is a fault-injection point. The temp file
  // is removed on every error path; a crash can still strand one, which
  // recovery must ignore (and may delete).
  Status WriteStringToFileAtomic(const std::string& path,
                                 const std::string& contents);
};

// Production Env: direct POSIX passthrough with no bookkeeping.
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate_existing) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Status RemoveFileIfExists(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status EnsureDirectory(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDirectory(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
};

// Deterministic fault-injecting Env (tests and fault benchmarks).
//
// Every mutating call — append, sync, truncate, rename, file creation,
// directory creation, removal — is one "op" with a stable zero-based index.
// Faults are scheduled against that index or against upcoming calls:
//
//   CrashAtOp(k)      The k-th mutating op (and everything after it) fails,
//                     and the on-disk state freezes at the exact byte state
//                     a power loss would leave: per file, everything up to
//                     the last Sync survives, plus a seeded-random prefix of
//                     the unsynced tail (modelling background writeback and
//                     interrupted syncs — this is what makes torn/short
//                     writes reachable).
//   FailNextSyncs(n)  The next n Sync() calls fail with IOError, and the
//                     file's unsynced bytes are dropped (the adversarial
//                     outcome of a failed fsync: the data never reached the
//                     device). The process lives on — this is how
//                     commit-time fsync failure is simulated.
//   FailNextAppends(n) The next n file Append() calls fail with IOError
//                     before any bytes reach the file — a torn/short append
//                     surfaced to the writer. The process lives on.
//   FailNextReads(n)  The next n ReadFileToString calls fail with a
//                     transient IOError.
//   FailSyncAt(k)     The k-th Sync() call from now (zero-based, counted by
//                     syncs_seen()) fails exactly like FailNextSyncs. Used
//                     by the degraded-mode torture sweep to place a single
//                     fsync failure at every commit boundary in turn.
//
// Writes pass through to the real filesystem; Sync() only advances the
// tracked watermark (real fsync is pointless under simulated power loss),
// which also makes crash-sweep loops fast on any filesystem.
//
// All randomness derives from the constructor seed, so a failing
// (seed, crash index) pair replays exactly.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(uint64_t seed, Env* base = nullptr);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate_existing) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Status RemoveFileIfExists(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status EnsureDirectory(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDirectory(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;

  // --- fault scheduling ---
  void CrashAtOp(int64_t op_index);
  void FailNextSyncs(int count);
  void FailNextAppends(int count);
  void FailNextReads(int count);
  void FailSyncAt(int64_t sync_index);

  // Test seam: `observer` runs at the top of every Sync() call, on the
  // syncing thread, outside the env's mutex, before the sync is counted or
  // faulted. It turns the commit flush into a deterministic interleaving
  // point — e.g. begin a snapshot reader while a committer sits between
  // its COMMIT append and its visibility flip. The observer must not
  // perform env I/O; engine calls that take ranked locks must run on a
  // separate (joined) thread, since the syncing thread already holds the
  // WAL flush mutex. nullptr clears it.
  void SetSyncObserver(std::function<void()> observer);

  // Mutating ops successfully issued so far (== the next op's index).
  int64_t ops_issued() const;
  // Sync() calls observed so far (failed or not); the next sync's index.
  int64_t syncs_seen() const;
  bool crashed() const;

  // Implementation hooks for the WritableFile wrapper (not for callers):
  // route one file mutation through the op counter and watermark tracking.
  Status FileAppend(const std::string& path, WritableFile* base,
                    const std::string& data);
  Status FileSync(const std::string& path, WritableFile* base);
  Status FileTruncate(const std::string& path, WritableFile* base,
                      uint64_t size);

 private:
  struct FileState {
    uint64_t written = 0;  // bytes handed to the filesystem
    uint64_t synced = 0;   // bytes guaranteed to survive power loss
  };

  // Counts one mutating op; triggers the scheduled crash. Returns non-OK
  // when the env is (or just became) crashed.
  Status BeforeMutationLocked(const char* what) IVDB_REQUIRES(env_mu_);
  // Freezes every tracked file at its power-loss byte state.
  void FreezeLocked() IVDB_REQUIRES(env_mu_);

  Env* base_;
  mutable RankedMutex env_mu_{LockRank::kFaultEnv, "env_mu_"};
  Random rng_ IVDB_GUARDED_BY(env_mu_);
  int64_t ops_ IVDB_GUARDED_BY(env_mu_) = 0;
  int64_t crash_at_ IVDB_GUARDED_BY(env_mu_) = -1;
  int syncs_to_fail_ IVDB_GUARDED_BY(env_mu_) = 0;
  int appends_to_fail_ IVDB_GUARDED_BY(env_mu_) = 0;
  int reads_to_fail_ IVDB_GUARDED_BY(env_mu_) = 0;
  int64_t syncs_seen_ IVDB_GUARDED_BY(env_mu_) = 0;
  int64_t fail_sync_at_ IVDB_GUARDED_BY(env_mu_) = -1;
  bool crashed_ IVDB_GUARDED_BY(env_mu_) = false;
  std::function<void()> sync_observer_ IVDB_GUARDED_BY(env_mu_);
  std::map<std::string, FileState> files_ IVDB_GUARDED_BY(env_mu_);
};

}  // namespace ivdb

#endif  // IVDB_COMMON_ENV_H_
