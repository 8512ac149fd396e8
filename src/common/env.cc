#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace ivdb {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " '" + path + "': " + std::strerror(errno);
}

// Directory containing `path` ("." when the path has no slash), for the
// post-rename directory fsync.
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const std::string& data) override {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write", path_));
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fdatasync", path_));
    }
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IOError(ErrnoMessage("ftruncate", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close", path_));
    }
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

Env* Env::Default() {
  static PosixEnv posix_env;
  return &posix_env;
}

Status Env::WriteStringToFileAtomic(const std::string& path,
                                    const std::string& contents) {
  const std::string tmp = path + ".tmp";
  auto replace = [&]() -> Status {
    std::unique_ptr<WritableFile> file;
    IVDB_ASSIGN_OR_RETURN(file,
                          NewWritableFile(tmp, /*truncate_existing=*/true));
    Status s = file->Append(contents);
    if (s.ok()) s = file->Sync();
    Status close_status = file->Close();
    if (s.ok()) s = close_status;
    IVDB_RETURN_NOT_OK(s);
    IVDB_RETURN_NOT_OK(RenameFile(tmp, path));
    // The rename is only durable once the directory entry is; without this
    // a crash can resurrect the old file even though the caller was told
    // the new contents were committed.
    return SyncDirectory(DirName(path));
  };
  Status s = replace();
  if (!s.ok()) {
    // Never strand the temp file on a failure path. (A hard crash still
    // can, which is why recovery sweeps leftover *.tmp files.) The removal
    // is best-effort: the original error is the one worth reporting.
    (void)RemoveFileIfExists(tmp);
  }
  return s;
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(
    const std::string& path, bool truncate_existing) {
  // Always O_APPEND: appends land at end-of-file even if the file is
  // truncated behind our back, which is the behaviour the fault-injection
  // freeze relies on and harmless elsewhere.
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate_existing) flags |= O_TRUNC;
  bool existed = FileExists(path);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open", path));
  }
  if (!existed) {
    // Make the directory entry itself durable, so a crash after "create WAL
    // then append+sync" cannot lose the whole file.
    Status s = SyncDirectory(DirName(path));
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<PosixWritableFile>(path, fd));
}

Status PosixEnv::ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("open", path));
  }
  auto fail = [&](const char* op) {
    Status s = Status::IOError(ErrnoMessage(op, path));
    ::close(fd);
    out->clear();
    return s;
  };
  struct stat st;
  if (::fstat(fd, &st) != 0) return fail("fstat");
  // Read straight into a string sized from fstat. Once it is full, reads go
  // to a small probe buffer: normally the probe sees EOF at once; bytes it
  // does get (the file grew) are appended. A file that shrank stops early.
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  char probe[4096];
  while (true) {
    const bool in_place = got < out->size();
    char* dst = in_place ? out->data() + got : probe;
    const size_t room = in_place ? out->size() - got : sizeof(probe);
    ssize_t n = ::read(fd, dst, room);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("read");
    }
    if (n == 0) break;
    if (!in_place) out->append(probe, static_cast<size_t>(n));
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  ::close(fd);
  return Status::OK();
}

Status PosixEnv::RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status PosixEnv::EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(ErrnoMessage("mkdir", path));
  }
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename", from + "' -> '" + to));
  }
  return Status::OK();
}

Status PosixEnv::SyncDirectory(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open dir", path));
  }
  Status s;
  if (::fsync(fd) != 0) {
    s = Status::IOError(ErrnoMessage("fsync dir", path));
  }
  ::close(fd);
  return s;
}

Result<std::vector<std::string>> PosixEnv::ListDirectory(
    const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return Status::IOError(ErrnoMessage("opendir", path));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  return names;
}

Status PosixEnv::TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError(ErrnoMessage("truncate", path));
  }
  return Status::OK();
}

Result<uint64_t> PosixEnv::GetFileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv
// ---------------------------------------------------------------------------

namespace {

// WritableFile wrapper that routes every mutation through the env's op
// counter and tracks the written/synced watermarks used by the crash freeze.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  ~FaultWritableFile() override { base_.reset(); }

  Status Append(const std::string& data) override {
    return env_->FileAppend(path_, base_.get(), data);
  }

  Status Sync() override { return env_->FileSync(path_, base_.get()); }

  Status Truncate(uint64_t size) override {
    return env_->FileTruncate(path_, base_.get(), size);
  }

  Status Close() override {
    // Closing is not a mutation and must work even after a crash (the
    // process is still alive and must not leak descriptors).
    return base_->Close();
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(uint64_t seed, Env* base)
    : base_(base != nullptr ? base : Env::Default()), rng_(seed) {}

Status FaultInjectionEnv::BeforeMutationLocked(const char* what) {
  if (crashed_) {
    return Status::IOError(std::string("injected crash (") + what + ")");
  }
  int64_t op = ops_++;
  if (crash_at_ >= 0 && op >= crash_at_) {
    crashed_ = true;
    FreezeLocked();
    return Status::IOError(std::string("injected crash (") + what + ")");
  }
  return Status::OK();
}

void FaultInjectionEnv::FreezeLocked() {
  // Power-loss semantics: per file, the synced prefix survives, plus a
  // seeded-random prefix of the unsynced tail (writeback that happened to
  // reach the device). Truncating to an arbitrary byte is what produces
  // torn WAL records for recovery to stop at.
  for (auto& [path, state] : files_) {
    uint64_t keep = state.synced;
    if (state.written > state.synced) {
      keep += rng_.Uniform(state.written - state.synced + 1);
    }
    // Best-effort by construction: this IS the simulated power loss, so
    // there is no caller to surface a truncation error to.
    (void)base_->TruncateFile(path, keep);
    state.written = keep;
    state.synced = keep;
  }
}

Status FaultInjectionEnv::FileAppend(const std::string& path,
                                     WritableFile* base,
                                     const std::string& data) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("append"));
  if (appends_to_fail_ > 0) {
    appends_to_fail_--;
    // Torn-append outcome surfaced to the writer: no bytes reach the file,
    // so the durable state is exactly what it was before the call.
    return Status::IOError("injected append failure");
  }
  IVDB_RETURN_NOT_OK(base->Append(data));
  files_[path].written += data.size();
  return Status::OK();
}

void FaultInjectionEnv::SetSyncObserver(std::function<void()> observer) {
  MutexLock guard(&env_mu_);
  sync_observer_ = std::move(observer);
}

Status FaultInjectionEnv::FileSync(const std::string& path,
                                   WritableFile* /*base*/) {
  std::function<void()> observer;
  {
    MutexLock guard(&env_mu_);
    observer = sync_observer_;
  }
  // Outside mu_: the observer may call back into the env's setters (e.g. to
  // clear itself) or drive engine work on another thread.
  if (observer) observer();
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("sync"));
  FileState& state = files_[path];
  int64_t sync_index = syncs_seen_++;
  if (syncs_to_fail_ > 0 || sync_index == fail_sync_at_) {
    if (syncs_to_fail_ > 0) syncs_to_fail_--;
    // Adversarial failed-fsync outcome: the unsynced bytes never reached
    // the device. Drop them now so the file reads back without them (the
    // real fd is in O_APPEND mode, so later appends still land at EOF).
    // The injected IOError below is the outcome under test; the drop of
    // unsynced bytes is the fault model itself, not a failable operation.
    (void)base_->TruncateFile(path, state.synced);
    state.written = state.synced;
    return Status::IOError("injected fsync failure");
  }
  // No real fsync: under simulated power loss only the watermark matters,
  // and skipping the syscall keeps every-boundary crash sweeps fast.
  state.synced = state.written;
  return Status::OK();
}

Status FaultInjectionEnv::FileTruncate(const std::string& path,
                                       WritableFile* base, uint64_t size) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("truncate"));
  IVDB_RETURN_NOT_OK(base->Truncate(size));
  FileState& state = files_[path];
  state.written = size;
  if (state.synced > size) state.synced = size;
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate_existing) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("create"));
  std::unique_ptr<WritableFile> base;
  IVDB_ASSIGN_OR_RETURN(base, base_->NewWritableFile(path, truncate_existing));
  if (truncate_existing) {
    files_[path] = FileState{};
  } else if (files_.count(path) == 0) {
    // Appending to a file that predates this env: its current contents are
    // assumed durable.
    uint64_t size = 0;
    IVDB_ASSIGN_OR_RETURN(size, base_->GetFileSize(path));
    files_[path] = FileState{size, size};
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(this, path, std::move(base)));
}

Status FaultInjectionEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  {
    MutexLock guard(&env_mu_);
    if (reads_to_fail_ > 0) {
      reads_to_fail_--;
      out->clear();
      return Status::IOError("injected transient read failure");
    }
  }
  return base_->ReadFileToString(path, out);
}

Status FaultInjectionEnv::RemoveFileIfExists(const std::string& path) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("remove"));
  IVDB_RETURN_NOT_OK(base_->RemoveFileIfExists(path));
  files_.erase(path);
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::EnsureDirectory(const std::string& path) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("mkdir"));
  return base_->EnsureDirectory(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("rename"));
  IVDB_RETURN_NOT_OK(base_->RenameFile(from, to));
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

Status FaultInjectionEnv::SyncDirectory(const std::string& /*path*/) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("syncdir"));
  // Watermark-only, like file syncs: directory mutations (create/rename)
  // are modelled as immediately durable, so there is nothing to advance.
  return Status::OK();
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  MutexLock guard(&env_mu_);
  IVDB_RETURN_NOT_OK(BeforeMutationLocked("truncate"));
  IVDB_RETURN_NOT_OK(base_->TruncateFile(path, size));
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.written = size;
    if (it->second.synced > size) it->second.synced = size;
  }
  return Status::OK();
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

void FaultInjectionEnv::CrashAtOp(int64_t op_index) {
  MutexLock guard(&env_mu_);
  crash_at_ = op_index;
}

void FaultInjectionEnv::FailNextSyncs(int count) {
  MutexLock guard(&env_mu_);
  syncs_to_fail_ = count;
}

void FaultInjectionEnv::FailNextAppends(int count) {
  MutexLock guard(&env_mu_);
  appends_to_fail_ = count;
}

void FaultInjectionEnv::FailNextReads(int count) {
  MutexLock guard(&env_mu_);
  reads_to_fail_ = count;
}

void FaultInjectionEnv::FailSyncAt(int64_t sync_index) {
  MutexLock guard(&env_mu_);
  fail_sync_at_ = sync_index < 0 ? -1 : syncs_seen_ + sync_index;
}

int64_t FaultInjectionEnv::ops_issued() const {
  MutexLock guard(&env_mu_);
  return ops_;
}

int64_t FaultInjectionEnv::syncs_seen() const {
  MutexLock guard(&env_mu_);
  return syncs_seen_;
}

bool FaultInjectionEnv::crashed() const {
  MutexLock guard(&env_mu_);
  return crashed_;
}

}  // namespace ivdb
