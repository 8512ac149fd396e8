// ivdb_lint — repo-local static checker (token/regex level, no libclang).
//
// Two layers of rules. The original per-file rules scan one file at a time;
// the lock-discipline analyzer (added with the ranked-mutex sweep) is
// multi-pass and whole-program: it parses the LockRank hierarchy out of
// src/common/lock_order.h, collects every RankedMutex/RankedSharedMutex
// member declaration and IVDB_GUARDED_BY/IVDB_REQUIRES annotation, builds
// the acquires-while-holding graph from every guard construction nested
// inside another guard's scope, and cross-checks that graph against the
// rank hierarchy.
//
// Lock-discipline rules:
//   static-rank-inversion  A guard on mutex B is constructed while a guard
//                          on mutex A with rank(A) >= rank(B) is held — the
//                          static mirror of the runtime tracker's abort.
//   unranked-mutex         A raw std::mutex/std::shared_mutex/
//                          std::condition_variable in src/** (everything
//                          goes through RankedMutex/CondVar), or a
//                          RankedMutex declared without its inline
//                          {LockRank::…, "name"} initializer, or with a
//                          rank absent from the LockRank enum.
//   guarded-by-missing-lock  A field annotated IVDB_GUARDED_BY(mu) is
//                          touched in a function that neither holds a guard
//                          on mu nor declares IVDB_REQUIRES(mu).
//                          Constructors/destructors are exempt (no
//                          concurrent access before/after lifetime), as are
//                          IVDB_NO_THREAD_SAFETY_ANALYSIS functions.
//   annotation-rank-mismatch  The name string in a RankedMutex declaration
//                          does not match the member's identifier (the
//                          runtime tracker's reports would lie).
//   mutex-name-collision   Two RankedMutex members share one identifier;
//                          the token-level analysis (and any human reading
//                          a deadlock report) keys mutexes by member name,
//                          so names are globally unique by policy.
//
// Per-file rules (see docs/INTERNALS.md "Correctness tooling"):
//   naked-mutex-lock   Never call .lock()/.unlock()/.try_lock() directly on a
//                      mutex member (names ending in mu_/mutex_/latch_): use
//                      std::lock_guard / std::unique_lock / std::shared_lock
//                      so lock-order scopes and exceptions stay correct.
//                      (unique_lock variables named `lock`/`guard` are fine.)
//   raw-new-delete     No naked `new` / `delete`: ownership goes through
//                      std::make_unique / containers (arena allocators, when
//                      they arrive, get allowlisted here).
//   own-header-first   Every src/**/*.cc includes its own header first, so
//                      each header is verified self-contained.
//   todo-owner         TODOs carry an owner: `TODO(name): ...`.
//   include-guard      src/**/*.h opens with an IVDB_ include guard.
//   direct-io          No direct POSIX file I/O (::open/::write/::fsync/...)
//                      or fopen outside src/common/env.cc and
//                      src/common/file_util.cc: all file access goes through
//                      the Env seam so fault injection and crash-torture
//                      tests see every byte. (See docs/TESTING.md.)
//   adhoc-stats        No new per-component `struct FooStats { std::atomic
//                      ... }` counter bundles outside src/obs/: metrics
//                      register with the unified obs::MetricsRegistry so
//                      every counter shows up in Database::DumpMetrics().
//                      (See docs/OBSERVABILITY.md.)
//   wal-naming         No string literal outside src/wal/ spells out WAL
//                      file names (`wal-<seqno>.log` segments or the legacy
//                      `wal.log`): the segment layout is private to the log
//                      manager. Enumerate segments via
//                      LogManager::ListSegmentFiles / SegmentFileName so a
//                      layout change stays a one-module edit.
//   metric-catalog     Every ivdb_* metric registered against the
//                      MetricsRegistry in src/** (GetCounter / GetGauge /
//                      GetHistogram, with or without WithLabel) must be
//                      named in the docs/OBSERVABILITY.md catalog. Tree
//                      mode only (needs the docs file next to src/).
//   adhoc-retry        No sleeping (std::this_thread::sleep_for/sleep_until,
//                      usleep, nanosleep) in src/** outside the allowlisted
//                      waiting primitives: sleep-in-a-loop is how ad-hoc
//                      retry/backoff sneaks in. Retry goes through
//                      Database::RunTransaction (src/txn/retry.h); waiting
//                      goes through Clock::SleepMicros or a condition
//                      variable, keeping ManualClock tests deterministic.
//                      (See docs/ROBUSTNESS.md.)
//
// Usage:
//   ivdb_lint --root <repo> [--allowlist <file>]   lint the tree
//   ivdb_lint --root <repo> --fixtures <dir>       check lint fixtures
//   ivdb_lint --self-test                          verify each rule fires
//
// Allowlist file: one entry per line, `<rule-id> <path-substring>`;
// lines starting with '#' are comments. A finding is suppressed when its
// rule matches and its path contains the substring.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string rule;
  std::string path_substring;
};

// Replaces comments (unless `keep_comments`) and string/char literals
// (unless `keep_literals`) with spaces, preserving newlines, so rule regexes
// never fire inside them and line numbers survive. Handles // and /* */
// comments, escapes, and raw strings.
std::string StripCommentsAndLiterals(const std::string& in,
                                     bool keep_comments = false,
                                     bool keep_literals = false) {
  std::string out = in;
  size_t i = 0;
  const size_t n = in.size();
  auto blank = [&](size_t from, size_t to) {
    for (size_t k = from; k < to && k < n; k++) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  auto skip = [&](size_t from, size_t to, bool erase) {
    if (erase) blank(from, to);
    i = to;
  };
  while (i < n) {
    char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      size_t end = in.find('\n', i);
      if (end == std::string::npos) end = n;
      skip(i, end, !keep_comments);
    } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      size_t end = in.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      skip(i, end, !keep_comments);
    } else if (c == '"' || c == '\'') {
      // Raw string literal? (R"tag( ... )tag")
      if (c == '"' && i >= 1 && in[i - 1] == 'R') {
        size_t paren = in.find('(', i);
        if (paren != std::string::npos) {
          std::string tag = in.substr(i + 1, paren - i - 1);
          std::string closer = ")" + tag + "\"";
          size_t end = in.find(closer, paren);
          end = (end == std::string::npos) ? n : end + closer.size();
          skip(i, end, !keep_literals);
          continue;
        }
      }
      size_t j = i + 1;
      while (j < n && in[j] != c) {
        if (in[j] == '\\') j++;
        j++;
      }
      j = (j < n) ? j + 1 : n;
      skip(i, j, !keep_literals);
    } else {
      i++;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool IsSourcePath(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// --- Rules. Each takes the repo-relative path, raw content, and the
//     comment/literal-stripped content. ---

void CheckNakedMutexLock(const std::string& path, const std::string& stripped,
                         std::vector<Finding>* findings) {
  static const std::regex re(
      R"(\b[A-Za-z0-9_]*(mu_|mutex_|latch_)\s*(\.|->)\s*(try_lock|lock|unlock)\s*\()");
  const std::vector<std::string> lines = SplitLines(stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    if (std::regex_search(lines[i], re)) {
      findings->push_back({path, static_cast<int>(i + 1), "naked-mutex-lock",
                           "direct mutex member lock/unlock; use a guard "
                           "(std::lock_guard / std::unique_lock)"});
    }
  }
}

void CheckRawNewDelete(const std::string& path, const std::string& stripped,
                       std::vector<Finding>* findings) {
  static const std::regex re_new(R"(\bnew\b\s*[(A-Za-z_\[])");
  static const std::regex re_delete(R"(\bdelete\b(\s*\[\s*\])?\s*[A-Za-z_(])");
  const std::vector<std::string> lines = SplitLines(stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    const std::string& line = lines[i];
    if (std::regex_search(line, re_new)) {
      findings->push_back({path, static_cast<int>(i + 1), "raw-new-delete",
                           "raw `new`; use std::make_unique or a container"});
    }
    std::smatch m;
    if (std::regex_search(line, m, re_delete)) {
      // `= delete` (deleted special members) is not a deallocation.
      size_t pos = static_cast<size_t>(m.position(0));
      size_t prev = line.find_last_not_of(" \t", pos == 0 ? 0 : pos - 1);
      bool deleted_fn = pos > 0 && prev != std::string::npos &&
                        line[prev] == '=';
      if (!deleted_fn) {
        findings->push_back({path, static_cast<int>(i + 1), "raw-new-delete",
                             "raw `delete`; ownership must be RAII-managed"});
      }
    }
  }
}

void CheckOwnHeaderFirst(const std::string& path,
                         const std::string& literals_kept,
                         std::vector<Finding>* findings) {
  // Applies to src/**/*.cc only (tests/bench/tools have no own header).
  if (path.rfind("src/", 0) != 0) return;
  if (path.size() < 3 || path.compare(path.size() - 3, 3, ".cc") != 0) return;
  std::string expected = path.substr(4, path.size() - 4 - 3) + ".h";
  static const std::regex re_include(R"(^\s*#\s*include\s*([<"])([^>"]+)[>"])");
  const std::vector<std::string> lines = SplitLines(literals_kept);
  for (size_t i = 0; i < lines.size(); i++) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, re_include)) continue;
    if (m[1] != "\"" || m[2] != expected) {
      findings->push_back({path, static_cast<int>(i + 1), "own-header-first",
                           "first include must be the file's own header \"" +
                               expected + "\""});
    }
    return;  // only the first include matters
  }
}

void CheckTodoOwner(const std::string& path, const std::string& comments_kept,
                    std::vector<Finding>* findings) {
  // TODOs live in comments, so this rule scans content with comments kept
  // (string literals are still stripped).
  static const std::regex re(R"(\bTODO\b)");
  static const std::regex re_ok(
      R"(^TODO\(\s*[A-Za-z_][A-Za-z0-9_.-]*\s*\))");
  const std::vector<std::string> lines = SplitLines(comments_kept);
  for (size_t i = 0; i < lines.size(); i++) {
    const std::string& line = lines[i];
    auto begin = std::sregex_iterator(line.begin(), line.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      std::string tail = line.substr(static_cast<size_t>(it->position(0)));
      if (!std::regex_search(tail, re_ok)) {
        findings->push_back({path, static_cast<int>(i + 1), "todo-owner",
                             "TODO without owner; write `TODO(name): ...`"});
      }
    }
  }
}

void CheckIncludeGuard(const std::string& path, const std::string& stripped,
                       std::vector<Finding>* findings) {
  if (path.rfind("src/", 0) != 0) return;
  if (path.size() < 2 || path.compare(path.size() - 2, 2, ".h") != 0) return;
  static const std::regex re_guard(R"(^\s*#\s*ifndef\s+IVDB_[A-Z0-9_]+_H_)");
  for (const std::string& line : SplitLines(stripped)) {
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (std::regex_search(line, re_guard)) return;  // first real line is guard
    findings->push_back({path, 1, "include-guard",
                         "header must open with `#ifndef IVDB_..._H_`"});
    return;
  }
}

void CheckDirectIo(const std::string& path, const std::string& stripped,
                   std::vector<Finding>* findings) {
  // The Env implementation and its thin free-function wrappers are the only
  // places allowed to touch the OS file API directly.
  if (path == "src/common/env.cc" || path == "src/common/file_util.cc") return;
  static const std::regex re(
      R"((::\s*(open|openat|creat|read|pread|write|pwrite|close|fsync|fdatasync|ftruncate|truncate|rename|unlink|mkdir|rmdir)|\bfopen)\s*\()");
  const std::vector<std::string> lines = SplitLines(stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    if (std::regex_search(lines[i], re)) {
      findings->push_back({path, static_cast<int>(i + 1), "direct-io",
                           "direct file I/O outside the Env seam; route "
                           "through Env (src/common/env.h) so fault "
                           "injection covers it"});
    }
  }
}

void CheckAdhocStats(const std::string& path, const std::string& stripped,
                     std::vector<Finding>* findings) {
  // Scattered per-component counter bundles (`struct FooStats { std::atomic
  // ... }`) are exactly what the unified registry in src/obs/ replaced; new
  // ones fragment observability again. Components should hold obs::Counter*
  // / obs::Gauge* / obs::Histogram* resolved from a MetricsRegistry.
  if (path.rfind("src/obs/", 0) == 0) return;
  static const std::regex re_decl(
      R"(\b(struct|class)\s+[A-Za-z0-9_]*(Stats|Counters)\b)");
  static const std::regex re_atomic(R"(\bstd\s*::\s*atomic\s*<)");
  const std::vector<std::string> lines = SplitLines(stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    if (!std::regex_search(lines[i], re_decl)) continue;
    // Scan the (brace-balanced) struct body for atomic members.
    int depth = 0;
    bool entered = false;
    for (size_t j = i; j < lines.size(); j++) {
      for (char ch : lines[j]) {
        if (ch == '{') {
          depth++;
          entered = true;
        } else if (ch == '}') {
          depth--;
        }
      }
      if (std::regex_search(lines[j], re_atomic)) {
        findings->push_back(
            {path, static_cast<int>(i + 1), "adhoc-stats",
             "ad-hoc atomic counter struct; register obs::Counter/Gauge/"
             "Histogram in the MetricsRegistry (src/obs/metrics.h) instead"});
        break;
      }
      if (entered && depth <= 0) break;
    }
  }
}

void CheckWalNaming(const std::string& path,
                    const std::string& literals_kept,
                    std::vector<Finding>* findings) {
  // The segment naming scheme (`wal-%06llu.log`) and the legacy single-file
  // name are implementation details of src/wal/. Anything else hard-coding
  // them (a test peeking at the directory, a tool globbing segments) breaks
  // silently when the layout changes; the supported seams are
  // LogManager::ListSegmentFiles and LogManager::SegmentFileName.
  if (path.rfind("src/wal/", 0) == 0) return;
  // Literal content only: comments stripped, string literals kept.
  static const std::regex re(R"(\bwal-[0-9%]|\bwal\.log\b)");
  const std::vector<std::string> lines = SplitLines(literals_kept);
  for (size_t i = 0; i < lines.size(); i++) {
    if (std::regex_search(lines[i], re)) {
      findings->push_back(
          {path, static_cast<int>(i + 1), "wal-naming",
           "WAL file name spelled outside src/wal/; use "
           "LogManager::ListSegmentFiles / SegmentFileName instead"});
    }
  }
}

void CheckAdhocRetry(const std::string& path, const std::string& stripped,
                     std::vector<Finding>* findings) {
  // Sleeping inside engine code is how ad-hoc retry loops sneak in (sleep,
  // re-check, repeat) — invisible to ManualClock tests and uncoordinated
  // with the engine-wide retry policy. Only the designated waiting
  // primitives (allowlisted: the Clock seam itself and the ghost cleaner's
  // interval pacing) may sleep.
  if (path.rfind("src/", 0) != 0) return;
  static const std::regex re(
      R"((\bstd\s*::\s*this_thread\s*::\s*sleep_(for|until)\b|\b(usleep|nanosleep)\s*\())");
  const std::vector<std::string> lines = SplitLines(stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    if (std::regex_search(lines[i], re)) {
      findings->push_back(
          {path, static_cast<int>(i + 1), "adhoc-retry",
           "sleeping in engine code; retry via Database::RunTransaction "
           "(src/txn/retry.h), wait via Clock::SleepMicros or a condition "
           "variable"});
    }
  }
}

// Runs every rule over one file's content.
void CheckEpochDiscipline(const std::string& path, const std::string& stripped,
                          std::vector<Finding>* findings) {
  // Epoch-based reclamation discipline (docs/INTERNALS.md §7): unlinked
  // version garbage ("retired"/"garbage" identifiers) must be physically
  // destroyed only inside a function marked IVDB_EPOCH_RETIRE_PATH — the
  // place that has proven every reader left the epoch. A destructive
  // container call on such an identifier anywhere else is a use-after-free
  // factory: some reader may still be traversing the versions.
  if (path.rfind("src/", 0) != 0 &&
      path.rfind("tests/lint_fixtures/", 0) != 0) {
    return;
  }
  static const std::regex re_destroy(
      R"(\b[A-Za-z0-9_]*(garbage|retired)[A-Za-z0-9_]*\s*(\.|->)\s*(clear|erase|pop_back|pop_front|resize|swap|shrink_to_fit)\s*\()");
  const std::vector<std::string> lines = SplitLines(stripped);
  int depth = 0;
  bool pending_annotation = false;  // macro seen; body not yet entered
  int sanctioned_depth = -1;        // brace depth of the annotated body
  for (size_t i = 0; i < lines.size(); i++) {
    const std::string& line = lines[i];
    if (line.find("IVDB_EPOCH_RETIRE_PATH") != std::string::npos) {
      pending_annotation = true;
    }
    // A one-line annotated body opens and closes its sanctioned scope on
    // this very line, so remember whether it was active at any point.
    bool sanctioned_on_line = sanctioned_depth >= 0;
    for (char ch : line) {
      if (ch == '{') {
        depth++;
        if (pending_annotation && sanctioned_depth < 0) {
          sanctioned_depth = depth;
          sanctioned_on_line = true;
          pending_annotation = false;
        }
      } else if (ch == '}') {
        if (depth == sanctioned_depth) sanctioned_depth = -1;
        depth--;
      }
    }
    if (!sanctioned_on_line && std::regex_search(line, re_destroy)) {
      findings->push_back(
          {path, static_cast<int>(i + 1), "epoch-discipline",
           "retired version garbage destroyed outside an "
           "IVDB_EPOCH_RETIRE_PATH function; physical frees must go through "
           "the epoch reclaimer's retire path (storage/epoch_reclaimer.h)"});
    }
  }
}

void LintContent(const std::string& path, const std::string& raw,
                 std::vector<Finding>* findings) {
  const std::string stripped = StripCommentsAndLiterals(raw);
  const std::string comments_kept =
      StripCommentsAndLiterals(raw, /*keep_comments=*/true);
  const std::string literals_kept = StripCommentsAndLiterals(
      raw, /*keep_comments=*/false, /*keep_literals=*/true);
  CheckNakedMutexLock(path, stripped, findings);
  CheckRawNewDelete(path, stripped, findings);
  CheckOwnHeaderFirst(path, literals_kept, findings);
  CheckTodoOwner(path, comments_kept, findings);
  CheckIncludeGuard(path, stripped, findings);
  CheckDirectIo(path, stripped, findings);
  CheckAdhocStats(path, stripped, findings);
  CheckWalNaming(path, literals_kept, findings);
  CheckAdhocRetry(path, stripped, findings);
  CheckEpochDiscipline(path, stripped, findings);
}

// ===========================================================================
// Lock-discipline analyzer (multi-pass, whole-program).
//
// Pass 0 parses the LockRank hierarchy out of src/common/lock_order.h.
// Pass A walks every file collecting RankedMutex declarations (member name,
// rank, registered name string), IVDB_GUARDED_BY field annotations, and
// per-function IVDB_REQUIRES / IVDB_NO_THREAD_SAFETY_ANALYSIS annotations.
// Pass B re-walks every file with a brace-depth scope machine, tracking which
// guard objects are alive at each point of each function body; every guard
// constructed while another guard is held becomes an acquires-while-holding
// edge, and every touch of a guarded field is checked against the held set
// (entry REQUIRES count as held).  The union of all lexical edges is the
// static lock graph; each edge must strictly increase in rank, which makes
// the whole graph acyclic by the same argument the runtime tracker uses.
//
// Deliberately NOT done: call-graph resolution.  Following calls by bare
// name would conflate same-named methods of unrelated classes (e.g.
// TransactionManager::Commit vs VersionStore::Commit) and produce false
// inversions; annotations are instead scoped to the declaring header's file
// stem, which is also how REQUIRES entry-sets are matched to definitions.
// ===========================================================================

struct FileContent {
  std::string raw;
  std::string stripped;       // comments and literals blanked
  std::string comments_kept;  // literals blanked, comments kept
  std::string literals_kept;  // comments blanked, literals kept
};

FileContent MakeFileContent(const std::string& raw) {
  FileContent fc;
  fc.raw = raw;
  fc.stripped = StripCommentsAndLiterals(raw);
  fc.comments_kept = StripCommentsAndLiterals(raw, /*keep_comments=*/true);
  fc.literals_kept = StripCommentsAndLiterals(raw, /*keep_comments=*/false,
                                              /*keep_literals=*/true);
  return fc;
}

int LineOf(const std::string& s, size_t pos) {
  return 1 + static_cast<int>(
                 std::count(s.begin(), s.begin() + static_cast<long>(pos), '\n'));
}

std::string StemOf(const std::string& path) {
  return fs::path(path).stem().string();
}

struct MutexDecl {
  std::string path;
  int line = 0;
  std::string member;     // declared identifier, e.g. table_mu_
  std::string rank_name;  // e.g. kLockManager
  std::string quoted;     // name string registered with the runtime tracker
  int rank = -1;
  bool shared = false;
};

struct GuardedFieldDecl {
  std::string path;
  int line = 0;
  std::string field;
  std::string mutex;
};

struct FnAnnotation {
  std::vector<std::string> requires_mutexes;  // IVDB_REQUIRES(_SHARED) args
  bool exempt = false;  // IVDB_NO_THREAD_SAFETY_ANALYSIS
};

struct LockEdge {
  std::string held;      // mutex already held
  std::string acquired;  // mutex acquired while holding `held`
  std::string path;
  int line = 0;
};

// Pass 0: `kName = <int>` entries of the `enum class LockRank` block.
std::map<std::string, int> ParseRanks(const std::string& stripped) {
  std::map<std::string, int> ranks;
  size_t start = stripped.find("enum class LockRank");
  if (start == std::string::npos) return ranks;
  size_t end = stripped.find("};", start);
  const std::string block = stripped.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
  static const std::regex re(R"((k[A-Za-z0-9_]+)\s*=\s*([0-9]+))");
  for (auto it = std::sregex_iterator(block.begin(), block.end(), re);
       it != std::sregex_iterator(); ++it) {
    ranks[(*it)[1].str()] = std::stoi((*it)[2].str());
  }
  return ranks;
}

// Pass A: RankedMutex / RankedSharedMutex declarations. Needs literals kept
// (the registered name string is part of the declaration).
void CollectMutexDecls(const std::string& path, const FileContent& fc,
                       const std::map<std::string, int>& ranks,
                       std::vector<MutexDecl>* decls,
                       std::vector<Finding>* findings) {
  const std::string& s = fc.literals_kept;
  static const std::regex re_ranked(
      R"(\bRanked(Shared)?Mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{\s*LockRank\s*::\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*"([^"]*)\")");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re_ranked);
       it != std::sregex_iterator(); ++it) {
    MutexDecl d;
    d.path = path;
    d.line = LineOf(s, static_cast<size_t>(it->position(0)));
    d.shared = (*it)[1].matched;
    d.member = (*it)[2].str();
    d.rank_name = (*it)[3].str();
    d.quoted = (*it)[4].str();
    auto r = ranks.find(d.rank_name);
    if (r == ranks.end()) {
      findings->push_back(
          {path, d.line, "unranked-mutex",
           "LockRank::" + d.rank_name +
               " is not in the LockRank enum (src/common/lock_order.h)"});
    } else {
      d.rank = r->second;
    }
    if (d.quoted != d.member) {
      findings->push_back(
          {path, d.line, "annotation-rank-mismatch",
           "RankedMutex member `" + d.member + "` registers as \"" + d.quoted +
               "\"; the tracker name must match the member identifier"});
    }
    decls->push_back(std::move(d));
  }
  // A RankedMutex declared without its inline {LockRank::…, "name"}
  // initializer cannot be keyed into the hierarchy at all.
  static const std::regex re_bare(
      R"(\bRanked(Shared)?Mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*;)");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re_bare);
       it != std::sregex_iterator(); ++it) {
    findings->push_back(
        {path, LineOf(s, static_cast<size_t>(it->position(0))), "unranked-mutex",
         "RankedMutex `" + (*it)[2].str() +
             "` declared without {LockRank::<rank>, \"<name>\"}"});
  }
}

// Pass A: raw standard-library synchronization primitives. Everything in the
// engine goes through RankedMutex / RankedSharedMutex / CondVar so both the
// static and the runtime layer see every acquisition.
void CheckStdMutexTokens(const std::string& path, const FileContent& fc,
                         std::vector<Finding>* findings) {
  static const std::regex re(
      R"(\bstd\s*::\s*(timed_mutex|recursive_mutex|shared_mutex|mutex|condition_variable_any|condition_variable)\b)");
  const std::vector<std::string> lines = SplitLines(fc.stripped);
  for (size_t i = 0; i < lines.size(); i++) {
    std::smatch m;
    if (std::regex_search(lines[i], m, re)) {
      findings->push_back(
          {path, static_cast<int>(i + 1), "unranked-mutex",
           "raw std::" + m[1].str() +
               "; use RankedMutex / RankedSharedMutex / CondVar "
               "(src/common/mutex.h) so the lock hierarchy sees it"});
    }
  }
}

// Pass A: IVDB_GUARDED_BY(field annotations). Whitespace spans newlines, so
// this scans full content rather than lines (annotations often wrap).
void CollectGuardedFields(const std::string& path, const FileContent& fc,
                          std::vector<GuardedFieldDecl>* fields) {
  const std::string& s = fc.stripped;
  static const std::regex re(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(\{[^{}]*\})?\s*IVDB_GUARDED_BY\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\))");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re);
       it != std::sregex_iterator(); ++it) {
    GuardedFieldDecl f;
    f.path = path;
    f.line = LineOf(s, static_cast<size_t>(it->position(0)));
    f.field = (*it)[1].str();
    f.mutex = (*it)[3].str();
    fields->push_back(std::move(f));
  }
}

// Scans backward from an annotation's position to the function identifier it
// is attached to: the identifier before the parameter list's closing paren.
// Hops over stacked IVDB_* annotations.
std::string AttachedFunctionName(const std::string& s, size_t pos) {
  for (int hop = 0; hop < 4; ++hop) {
    long i = static_cast<long>(pos) - 1;
    while (i >= 0 && s[i] != ')') {
      if (s[i] == ';' || s[i] == '{' || s[i] == '}') return "";
      --i;
    }
    int depth = 1;
    --i;
    while (i >= 0 && depth > 0) {
      if (s[i] == ')') depth++;
      if (s[i] == '(') depth--;
      --i;
    }
    while (i >= 0 && std::isspace(static_cast<unsigned char>(s[i]))) --i;
    long end = i;
    while (i >= 0 && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                      s[i] == '_')) {
      --i;
    }
    if (end == i) return "";
    std::string name = s.substr(static_cast<size_t>(i + 1),
                                static_cast<size_t>(end - i));
    if (name.rfind("IVDB_", 0) == 0) {
      pos = static_cast<size_t>(i + 1);
      continue;
    }
    return name;
  }
  return "";
}

// Pass A: per-function REQUIRES / NO_THREAD_SAFETY_ANALYSIS annotations,
// keyed by bare function name (callers scope the map by file stem).
void CollectFnAnnotations(const FileContent& fc,
                          std::map<std::string, FnAnnotation>* fns) {
  const std::string& s = fc.stripped;
  static const std::regex re_req(R"(\bIVDB_REQUIRES(_SHARED)?\s*\(([^()]*)\))");
  static const std::regex re_ident(R"([A-Za-z_][A-Za-z0-9_]*)");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re_req);
       it != std::sregex_iterator(); ++it) {
    std::string fn =
        AttachedFunctionName(s, static_cast<size_t>(it->position(0)));
    if (fn.empty()) continue;
    const std::string args = (*it)[2].str();
    for (auto ai = std::sregex_iterator(args.begin(), args.end(), re_ident);
         ai != std::sregex_iterator(); ++ai) {
      (*fns)[fn].requires_mutexes.push_back(ai->str());
    }
  }
  static const std::regex re_ntsa(R"(\bIVDB_NO_THREAD_SAFETY_ANALYSIS\b)");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re_ntsa);
       it != std::sregex_iterator(); ++it) {
    std::string fn =
        AttachedFunctionName(s, static_cast<size_t>(it->position(0)));
    if (!fn.empty()) (*fns)[fn].exempt = true;
  }
}

// Resolves a guard-construction mutex expression (`&table_mu_`,
// `&txn->owner_mu()`) to a declared member name: the last identifier in the
// expression, with a `_` appended when that is the declared member (accessor
// convention: `owner_mu()` exposes `owner_mu_`).
std::string ResolveMutexExpr(const std::string& expr,
                             const std::set<std::string>& known) {
  static const std::regex re_ident(R"([A-Za-z_][A-Za-z0-9_]*)");
  std::string last;
  for (auto it = std::sregex_iterator(expr.begin(), expr.end(), re_ident);
       it != std::sregex_iterator(); ++it) {
    last = it->str();
  }
  if (last.empty()) return "";
  if (known.count(last)) return last;
  if (known.count(last + "_")) return last + "_";
  return last;
}

// Extracts the identifier immediately before the first '(' of a declaration.
std::string FnNameFromSig(const std::string& sig) {
  size_t paren = sig.find('(');
  if (paren == std::string::npos) return "";
  long i = static_cast<long>(paren) - 1;
  while (i >= 0 && std::isspace(static_cast<unsigned char>(sig[i]))) --i;
  long end = i;
  while (i >= 0 &&
         (std::isalnum(static_cast<unsigned char>(sig[i])) || sig[i] == '_')) {
    --i;
  }
  if (end == i) return "";
  return sig.substr(static_cast<size_t>(i + 1), static_cast<size_t>(end - i));
}

// Pass B: walks one file with a brace-depth scope machine, tracking live
// guard objects per function. Produces acquires-while-holding edges and
// guarded-by-missing-lock findings.
void AnalyzeFile(const std::string& path, const FileContent& fc,
                 const std::set<std::string>& known_mutexes,
                 const std::map<std::string, FnAnnotation>& fns,
                 const std::vector<GuardedFieldDecl>& fields,
                 std::vector<LockEdge>* edges,
                 std::vector<Finding>* findings) {
  static const std::regex re_guard_ctor(
      R"(\b(MutexLock|UniqueMutexLock|ReaderMutexLock|WriterMutexLock|TryMutexLock)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*&\s*([^);]*)\))");
  static const std::regex re_guard_op(
      R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*(Unlock|Lock)\s*\(\s*\))");
  static const std::regex re_ns(R"(\bnamespace\b)");
  static const std::regex re_type(R"(\b(class|struct|union|enum)\s+[A-Za-z_])");
  static const std::regex re_type_name(
      R"(\b(?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*))");
  static const std::regex re_qual_ctor(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*::\s*~?\s*([A-Za-z_][A-Za-z0-9_]*)\s*\()");

  std::vector<std::regex> field_res;
  field_res.reserve(fields.size());
  for (const GuardedFieldDecl& f : fields) {
    field_res.emplace_back("\\b" + f.field + "\\b");
  }

  enum class ScopeKind { kNamespace, kType, kFunction, kBlock };
  struct ActiveGuard {
    std::string mutex, var;
    int depth = 0;
    bool is_try = false;
  };
  std::vector<ScopeKind> scopes;
  std::vector<std::string> type_names;  // one per kType scope
  std::string sig;                      // declaration text at non-fn scope
  bool in_fn = false;
  bool fn_exempt = false, fn_ctor = false;
  std::vector<std::string> entry_held;
  std::vector<ActiveGuard> guards;
  std::map<std::string, ActiveGuard> released;  // mid-scope Unlock() by var
  std::set<std::string> reported;  // fields already reported in this fn

  const std::vector<std::string> lines = SplitLines(fc.stripped);
  for (size_t li = 0; li < lines.size(); li++) {
    const std::string& line = lines[li];
    const int lineno = static_cast<int>(li + 1);
    size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;

    struct Ev {
      size_t col;
      int kind;    // 1 = guard ctor, 2 = guard op, 3 = field use
      size_t idx;  // into the matching vector below
    };
    std::vector<std::smatch> guard_ms, op_ms;
    std::vector<size_t> field_idx;
    std::vector<Ev> evs;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), re_guard_ctor);
         it != std::sregex_iterator(); ++it) {
      guard_ms.push_back(*it);
      evs.push_back({static_cast<size_t>(it->position(0)), 1,
                     guard_ms.size() - 1});
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), re_guard_op);
         it != std::sregex_iterator(); ++it) {
      op_ms.push_back(*it);
      evs.push_back(
          {static_cast<size_t>(it->position(0)), 2, op_ms.size() - 1});
    }
    for (size_t fi = 0; fi < fields.size(); fi++) {
      for (auto it =
               std::sregex_iterator(line.begin(), line.end(), field_res[fi]);
           it != std::sregex_iterator(); ++it) {
        field_idx.push_back(fi);
        evs.push_back(
            {static_cast<size_t>(it->position(0)), 3, field_idx.size() - 1});
      }
    }
    std::sort(evs.begin(), evs.end(),
              [](const Ev& a, const Ev& b) { return a.col < b.col; });

    auto push_edges_for = [&](const std::string& mu, int at_line) {
      for (const std::string& h : entry_held) {
        if (known_mutexes.count(h)) edges->push_back({h, mu, path, at_line});
      }
      for (const ActiveGuard& g : guards) {
        if (!g.is_try) edges->push_back({g.mutex, mu, path, at_line});
      }
    };

    size_t ei = 0;
    for (size_t c = 0; c <= line.size(); c++) {
      while (ei < evs.size() && evs[ei].col == c) {
        const Ev ev = evs[ei++];
        if (!in_fn) continue;
        if (ev.kind == 1) {
          const std::smatch& m = guard_ms[ev.idx];
          const bool is_try = m[1].str() == "TryMutexLock";
          std::string mu = ResolveMutexExpr(m[3].str(), known_mutexes);
          if (known_mutexes.count(mu)) {
            if (!fn_exempt && !is_try) push_edges_for(mu, lineno);
            guards.push_back(
                {mu, m[2].str(), static_cast<int>(scopes.size()), is_try});
          }
        } else if (ev.kind == 2) {
          const std::smatch& m = op_ms[ev.idx];
          const std::string var = m[1].str();
          if (m[2].str() == "Unlock") {
            for (auto git = guards.begin(); git != guards.end(); ++git) {
              if (git->var == var) {
                released[var] = *git;
                guards.erase(git);
                break;
              }
            }
          } else {  // Lock(): re-acquisition behaves like a fresh guard
            auto r = released.find(var);
            if (r != released.end()) {
              if (!fn_exempt && !r->second.is_try) {
                push_edges_for(r->second.mutex, lineno);
              }
              guards.push_back({r->second.mutex, var,
                                static_cast<int>(scopes.size()),
                                r->second.is_try});
              released.erase(r);
            }
          }
        } else {  // field use
          if (fn_exempt || fn_ctor) continue;
          const GuardedFieldDecl& f = fields[field_idx[ev.idx]];
          if (reported.count(f.field)) continue;
          bool held = std::find(entry_held.begin(), entry_held.end(),
                                f.mutex) != entry_held.end();
          for (const ActiveGuard& g : guards) {
            if (g.mutex == f.mutex) held = true;
          }
          if (!held) {
            reported.insert(f.field);
            findings->push_back(
                {path, lineno, "guarded-by-missing-lock",
                 "field `" + f.field + "` is guarded by `" + f.mutex +
                     "` but no guard is held here and the enclosing function "
                     "has no IVDB_REQUIRES(" + f.mutex + ")"});
          }
        }
      }
      if (c == line.size()) break;
      const char ch = line[c];
      if (ch == '{') {
        if (in_fn) {
          scopes.push_back(ScopeKind::kBlock);
        } else {
          ScopeKind k = ScopeKind::kBlock;
          if (std::regex_search(sig, re_ns)) {
            k = ScopeKind::kNamespace;
          } else if (std::regex_search(sig, re_type)) {
            k = ScopeKind::kType;
          } else if (sig.find('(') != std::string::npos) {
            k = ScopeKind::kFunction;
          }
          if (k == ScopeKind::kType) {
            std::smatch tm;
            type_names.push_back(
                std::regex_search(sig, tm, re_type_name) ? tm[1].str() : "");
          }
          if (k == ScopeKind::kFunction) {
            in_fn = true;
            fn_exempt =
                sig.find("IVDB_NO_THREAD_SAFETY_ANALYSIS") != std::string::npos;
            fn_ctor = false;
            entry_held.clear();
            guards.clear();
            released.clear();
            reported.clear();
            const std::string fname = FnNameFromSig(sig);
            for (auto qit =
                     std::sregex_iterator(sig.begin(), sig.end(), re_qual_ctor);
                 qit != std::sregex_iterator(); ++qit) {
              if ((*qit)[1].str() == (*qit)[2].str()) fn_ctor = true;
            }
            if (!fn_ctor && !type_names.empty() && !fname.empty() &&
                fname == type_names.back()) {
              fn_ctor = true;  // in-class constructor or destructor
            }
            auto fit = fns.find(fname);
            if (fit != fns.end()) {
              entry_held = fit->second.requires_mutexes;
              if (fit->second.exempt) fn_exempt = true;
            }
          }
          scopes.push_back(k);
          sig.clear();
        }
      } else if (ch == '}') {
        if (!scopes.empty()) {
          const ScopeKind k = scopes.back();
          scopes.pop_back();
          while (!guards.empty() &&
                 guards.back().depth > static_cast<int>(scopes.size())) {
            guards.pop_back();
          }
          if (k == ScopeKind::kType && !type_names.empty()) {
            type_names.pop_back();
          }
          if (k == ScopeKind::kFunction) {
            in_fn = false;
            fn_exempt = fn_ctor = false;
            entry_held.clear();
            guards.clear();
            released.clear();
            reported.clear();
          }
        }
        sig.clear();
      } else if (ch == ';') {
        if (!in_fn) sig.clear();
      } else if (!in_fn) {
        sig.push_back(ch);
      }
    }
    if (!in_fn) sig.push_back('\n');
  }
}

// Whole-program rank validation: every lexical acquires-while-holding edge
// must strictly increase in rank.
void CheckEdgesAgainstRanks(const std::vector<LockEdge>& edges,
                            const std::map<std::string, MutexDecl>& by_name,
                            std::vector<Finding>* findings) {
  std::set<std::string> seen;
  for (const LockEdge& e : edges) {
    auto a = by_name.find(e.held);
    auto b = by_name.find(e.acquired);
    if (a == by_name.end() || b == by_name.end()) continue;
    if (a->second.rank < 0 || b->second.rank < 0) continue;
    if (a->second.rank < b->second.rank) continue;
    const std::string key = e.path + ":" + std::to_string(e.line) + ":" +
                            e.held + ":" + e.acquired;
    if (!seen.insert(key).second) continue;
    findings->push_back(
        {e.path, e.line, "static-rank-inversion",
         "acquires `" + e.acquired + "` (rank " +
             std::to_string(b->second.rank) + ") while holding `" + e.held +
             "` (rank " + std::to_string(a->second.rank) +
             "); lock ranks must strictly increase "
             "(src/common/lock_order.h)"});
  }
}

// The annotation layer's own plumbing: analyzed for per-file rules but
// excluded from the lock-discipline passes (mutex.h wraps the raw
// primitives; lock_order.* defines the ranks; thread_annotations.h defines
// the macros the analyzer greps for).
bool LockAnalysisExcluded(const std::string& path) {
  return path == "src/common/mutex.h" ||
         path == "src/common/thread_annotations.h" ||
         path == "src/common/lock_order.h" ||
         path == "src/common/lock_order.cc";
}

void RunLockAnalysis(
    const std::vector<std::pair<std::string, FileContent>>& files,
    const std::map<std::string, int>& ranks, std::vector<Finding>* findings) {
  std::vector<MutexDecl> decls;
  std::map<std::string, std::map<std::string, FnAnnotation>> fns_by_stem;
  std::map<std::string, std::vector<GuardedFieldDecl>> fields_by_stem;
  for (const auto& [path, fc] : files) {
    if (LockAnalysisExcluded(path)) continue;
    CollectMutexDecls(path, fc, ranks, &decls, findings);
    CheckStdMutexTokens(path, fc, findings);
    CollectFnAnnotations(fc, &fns_by_stem[StemOf(path)]);
    CollectGuardedFields(path, fc, &fields_by_stem[StemOf(path)]);
  }
  std::map<std::string, MutexDecl> by_name;
  std::set<std::string> known;
  for (const MutexDecl& d : decls) {
    known.insert(d.member);
    auto ins = by_name.emplace(d.member, d);
    if (!ins.second) {
      findings->push_back(
          {d.path, d.line, "mutex-name-collision",
           "`" + d.member + "` already declared at " + ins.first->second.path +
               ":" + std::to_string(ins.first->second.line) +
               "; mutex member names key the lock hierarchy and must be "
               "globally unique"});
    }
  }
  std::vector<LockEdge> edges;
  for (const auto& [path, fc] : files) {
    if (LockAnalysisExcluded(path)) continue;
    const std::string stem = StemOf(path);
    AnalyzeFile(path, fc, known, fns_by_stem[stem], fields_by_stem[stem],
                &edges, findings);
  }
  CheckEdgesAgainstRanks(edges, by_name, findings);
}

// Runs the whole lock-discipline analysis over a single self-contained file
// (self-test snippets and tests/lint_fixtures/). The file supplies its own
// mutex declarations, annotations, and guarded fields.
std::vector<Finding> AnalyzeSingleFile(const std::string& path,
                                       const std::string& raw,
                                       const std::map<std::string, int>& ranks) {
  const FileContent fc = MakeFileContent(raw);
  std::vector<Finding> findings;
  std::vector<MutexDecl> decls;
  CollectMutexDecls(path, fc, ranks, &decls, &findings);
  CheckStdMutexTokens(path, fc, &findings);
  // Fixtures exercise the epoch-retire discipline too (the rule is
  // per-file, so running it here keeps fixture analysis self-contained).
  CheckEpochDiscipline(path, fc.stripped, &findings);
  std::map<std::string, FnAnnotation> fns;
  CollectFnAnnotations(fc, &fns);
  std::vector<GuardedFieldDecl> fields;
  CollectGuardedFields(path, fc, &fields);
  std::map<std::string, MutexDecl> by_name;
  std::set<std::string> known;
  for (const MutexDecl& d : decls) {
    known.insert(d.member);
    auto ins = by_name.emplace(d.member, d);
    if (!ins.second) {
      findings.push_back(
          {path, d.line, "mutex-name-collision",
           "`" + d.member + "` already declared at " + ins.first->second.path +
               ":" + std::to_string(ins.first->second.line) +
               "; mutex member names must be globally unique"});
    }
  }
  std::vector<LockEdge> edges;
  AnalyzeFile(path, fc, known, fns, fields, &edges, &findings);
  CheckEdgesAgainstRanks(edges, by_name, &findings);
  return findings;
}

bool LoadAllowlist(const std::string& path, std::vector<AllowEntry>* entries) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    AllowEntry entry;
    if (fields >> entry.rule >> entry.path_substring) {
      entries->push_back(std::move(entry));
    }
  }
  return true;
}

bool Allowlisted(const Finding& f, const std::vector<AllowEntry>& entries) {
  for (const AllowEntry& e : entries) {
    if (e.rule == f.rule &&
        f.path.find(e.path_substring) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- Metric-catalog rule: every ivdb_* metric registered against the
//     MetricsRegistry anywhere in src/** must appear in the
//     docs/OBSERVABILITY.md catalog, so the operator-facing reference can
//     never silently fall behind the code. Registration sites are literal
//     GetCounter/GetGauge/GetHistogram calls (optionally wrapped in
//     WithLabel); the base name inside the first string literal is what the
//     catalog must mention. ---

void RunMetricCatalogCheck(
    const std::vector<std::pair<std::string, FileContent>>& src_files,
    const std::string& catalog_text, std::vector<Finding>* findings) {
  // Every ivdb_* token in the catalog counts as documentation, whether it
  // appears in a table, inline code span, or prose.
  std::set<std::string> documented;
  static const std::regex doc_re("ivdb_[a-z0-9_]+");
  for (std::sregex_iterator it(catalog_text.begin(), catalog_text.end(),
                               doc_re),
       end;
       it != end; ++it) {
    documented.insert(it->str());
  }
  // Registrations: scan with comments blanked but literals kept, so a doc
  // comment naming a metric is not mistaken for a registration.
  static const std::regex reg_re(
      "Get(?:Counter|Gauge|Histogram)\\s*\\(\\s*"
      "(?:(?:obs::)?WithLabel\\s*\\(\\s*)*\"(ivdb_[A-Za-z0-9_]*)\"");
  std::set<std::string> reported;
  for (const auto& [path, fc] : src_files) {
    for (std::sregex_iterator it(fc.literals_kept.begin(),
                                 fc.literals_kept.end(), reg_re),
         end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      if (documented.count(name) != 0) continue;
      if (!reported.insert(name).second) continue;  // one finding per metric
      findings->push_back(
          {path, LineOf(fc.literals_kept, static_cast<size_t>(it->position())),
           "metric-catalog",
           "metric '" + name +
               "' is registered here but missing from the "
               "docs/OBSERVABILITY.md catalog"});
    }
  }
}

int LintTree(const fs::path& root, const std::string& allowlist_path) {
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "ivdb_lint: --root %s is not a directory\n",
                 root.c_str());
    return 2;
  }
  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty() && !LoadAllowlist(allowlist_path, &allow)) {
    std::fprintf(stderr, "ivdb_lint: cannot read allowlist %s\n",
                 allowlist_path.c_str());
    return 2;
  }
  static const char* kDirs[] = {"src", "tests", "bench", "tools", "examples"};
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, FileContent>> src_files;
  size_t files = 0;
  for (const char* dir : kDirs) {
    fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !IsSourcePath(entry.path())) continue;
      std::string rel = fs::relative(entry.path(), root).generic_string();
      // Lint fixtures are intentionally-broken inputs for --fixtures mode.
      if (rel.rfind("tests/lint_fixtures/", 0) == 0) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      LintContent(rel, buf.str(), &findings);
      if (rel.rfind("src/", 0) == 0) {
        src_files.emplace_back(rel, MakeFileContent(buf.str()));
      }
      files++;
    }
  }
  // Lock-discipline analysis over src/** (see the analyzer section above).
  std::map<std::string, int> ranks;
  for (const auto& [path, fc] : src_files) {
    if (path == "src/common/lock_order.h") ranks = ParseRanks(fc.stripped);
  }
  if (ranks.empty()) {
    std::fprintf(stderr,
                 "ivdb_lint: warning: no LockRank enum found in "
                 "src/common/lock_order.h; lock analysis skipped\n");
  } else {
    RunLockAnalysis(src_files, ranks, &findings);
  }
  // Metric-catalog cross-check against docs/OBSERVABILITY.md (not under
  // kDirs, so read it here).
  {
    const fs::path catalog = root / "docs" / "OBSERVABILITY.md";
    if (!fs::exists(catalog)) {
      std::fprintf(stderr,
                   "ivdb_lint: warning: docs/OBSERVABILITY.md not found; "
                   "metric-catalog check skipped\n");
    } else {
      std::ifstream in(catalog, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      RunMetricCatalogCheck(src_files, buf.str(), &findings);
    }
  }
  int reported = 0;
  for (const Finding& f : findings) {
    if (Allowlisted(f, allow)) continue;
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
    reported++;
  }
  std::fprintf(stderr, "ivdb_lint: %d finding(s) in %zu files\n", reported,
               files);
  return reported == 0 ? 0 : 1;
}

// --- Fixture mode: each file under the fixture directory is analyzed in
//     isolation (its own mutexes, annotations, and guarded fields) against
//     the real LockRank enum. `// LINT-EXPECT: <rule>` comments state which
//     rules must fire; every expected rule must fire and nothing else may.
//     Files without LINT-EXPECT are clean twins and must produce zero
//     findings. ---

int FixturesMode(const fs::path& root, const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "ivdb_lint: --fixtures %s is not a directory\n",
                 dir.c_str());
    return 2;
  }
  std::map<std::string, int> ranks;
  {
    std::ifstream in(root / "src/common/lock_order.h", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    ranks = ParseRanks(StripCommentsAndLiterals(buf.str()));
  }
  if (ranks.empty()) {
    std::fprintf(stderr,
                 "ivdb_lint: no LockRank enum in src/common/lock_order.h "
                 "under --root\n");
    return 2;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourcePath(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "ivdb_lint: no fixtures in %s\n", dir.c_str());
    return 2;
  }
  static const std::regex re_expect(R"(LINT-EXPECT:\s*([a-z][a-z-]*))");
  int failures = 0;
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();
    const std::string name = p.filename().string();
    std::set<std::string> expected;
    const std::string comments =
        StripCommentsAndLiterals(raw, /*keep_comments=*/true);
    for (auto it = std::sregex_iterator(comments.begin(), comments.end(),
                                        re_expect);
         it != std::sregex_iterator(); ++it) {
      expected.insert((*it)[1].str());
    }
    const std::vector<Finding> findings =
        AnalyzeSingleFile("tests/lint_fixtures/" + name, raw, ranks);
    std::set<std::string> got;
    for (const Finding& f : findings) got.insert(f.rule);
    bool ok = true;
    for (const std::string& e : expected) {
      if (!got.count(e)) {
        std::fprintf(stderr, "fixture FAIL: %s: expected [%s] did not fire\n",
                     name.c_str(), e.c_str());
        ok = false;
      }
    }
    for (const Finding& f : findings) {
      if (!expected.count(f.rule)) {
        std::fprintf(stderr, "fixture FAIL: %s:%d: unexpected [%s] %s\n",
                     name.c_str(), f.line, f.rule.c_str(), f.message.c_str());
        ok = false;
      }
    }
    if (!ok) {
      failures++;
    } else {
      std::fprintf(stderr, "fixture OK: %s (%zu expected rule(s))\n",
                   name.c_str(), expected.size());
    }
  }
  std::fprintf(stderr, "ivdb_lint fixtures: %d failure(s) in %zu file(s)\n",
               failures, paths.size());
  return failures == 0 ? 0 : 1;
}

// --- Self-test: every rule must fire on a known-bad snippet, stay quiet on
//     the good twin, and respect the allowlist. ---

struct SelfCase {
  const char* name;
  const char* path;   // repo-relative pseudo-path (rules are path-sensitive)
  const char* code;
  const char* expect_rule;  // nullptr => expect clean
};

int SelfTest() {
  const SelfCase cases[] = {
      {"naked lock fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { mu_.lock(); }\n",
       "naked-mutex-lock"},
      {"naked unlock via pointer fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(B* b) { b->latch_.unlock(); }\n",
       "naked-mutex-lock"},
      {"guard is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { std::lock_guard<std::mutex> "
       "g(mu_); }\n",
       nullptr},
      {"unique_lock relock is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(std::unique_lock<std::mutex>& lock) "
       "{ lock.unlock(); lock.lock(); }\n",
       nullptr},
      {"raw new fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nint* P() { return new int(3); }\n",
       "raw-new-delete"},
      {"raw delete fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(int* p) { delete p; }\n",
       "raw-new-delete"},
      {"deleted special member is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nstruct S { S(const S&) = delete; };\n",
       nullptr},
      {"new in comment is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\n// allocate a new thing below\nint x;\n",
       nullptr},
      {"wrong first include fires", "src/foo/bar.cc",
       "#include <vector>\n#include \"foo/bar.h\"\n", "own-header-first"},
      {"own header first is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\n#include <vector>\n", nullptr},
      {"ownerless TODO fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\n// TODO: make this faster\n", "todo-owner"},
      {"owned TODO is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\n// TODO(graefe): make this faster\n",
       nullptr},
      {"missing include guard fires", "src/foo/bar.h",
       "#pragma once\nint x;\n", "include-guard"},
      {"include guard is fine", "src/foo/bar.h",
       "#ifndef IVDB_FOO_BAR_H_\n#define IVDB_FOO_BAR_H_\n#endif\n",
       nullptr},
      {"direct ::open fires", "src/wal/log_manager.cc",
       "#include \"wal/log_manager.h\"\nint F(const char* p) { return "
       "::open(p, 0); }\n",
       "direct-io"},
      {"direct ::fsync in tests fires", "tests/foo_test.cc",
       "void F(int fd) { ::fsync(fd); }\n", "direct-io"},
      {"fopen fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { fopen(\"x\", \"r\"); }\n",
       "direct-io"},
      {"env.cc may use syscalls", "src/common/env.cc",
       "#include \"common/env.h\"\nint F(const char* p) { return "
       "::open(p, 0); }\n",
       nullptr},
      {"Env method calls are fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(Env* env) { "
       "env->RemoveFileIfExists(\"x\"); file.open(\"x\"); }\n",
       nullptr},
      {"ad-hoc atomic stats struct fires", "src/foo/bar.h",
       "#ifndef IVDB_FOO_BAR_H_\nstruct FooStats {\n  "
       "std::atomic<uint64_t> hits{0};\n};\n",
       "adhoc-stats"},
      {"atomic counters struct fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nclass WaitCounters {\n  "
       "std::atomic<int> n_;\n};\n",
       "adhoc-stats"},
      {"registry-backed metrics struct is fine", "src/foo/bar.h",
       "#ifndef IVDB_FOO_BAR_H_\nstruct FooMetrics {\n  "
       "obs::Counter* hits = nullptr;\n};\n",
       nullptr},
      {"atomic outside a stats struct is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nstruct Queue {\n  "
       "std::atomic<uint64_t> head{0};\n};\n",
       nullptr},
      {"stats struct without atomics is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nstruct ScanStats {\n  uint64_t rows = 0;\n};\n"
       "void F() { std::atomic<int> later{0}; (void)later; }\n",
       nullptr},
      {"obs may use atomics in stats", "src/obs/metrics.h",
       "#ifndef IVDB_OBS_METRICS_H_\nstruct ShardStats {\n  "
       "std::atomic<uint64_t> v{0};\n};\n",
       nullptr},
      {"segment name literal fires", "tests/foo_test.cc",
       "void F() { std::string p = dir + \"/wal-000001.log\"; }\n",
       "wal-naming"},
      {"segment printf format fires", "tools/foo.cpp",
       "void F() { std::printf(\"wal-%06llu.log\", 1ull); }\n",
       "wal-naming"},
      {"legacy wal.log literal fires", "src/engine/database.cc",
       "#include \"engine/database.h\"\nstd::string P(const std::string& d) "
       "{ return d + \"/wal.log\"; }\n",
       "wal-naming"},
      {"src/wal may name its own segments", "src/wal/log_manager.cc",
       "#include \"wal/log_manager.h\"\nconst char* N() { return "
       "\"wal-%06llu.log\"; }\n",
       nullptr},
      {"walrus strings are fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nconst char* N() { return \"narwal-9\"; }\n",
       nullptr},
      {"ListSegmentFiles call is fine", "tests/foo_test.cc",
       "void F(const std::string& d) { auto s = "
       "LogManager::ListSegmentFiles(d); }\n",
       nullptr},
      {"sleep_for in engine code fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { while (true) "
       "std::this_thread::sleep_for(std::chrono::milliseconds(5)); }\n",
       "adhoc-retry"},
      {"usleep in engine code fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { usleep(100); }\n", "adhoc-retry"},
      {"sleep in tests is fine", "tests/foo_test.cc",
       "void F() { std::this_thread::sleep_for("
       "std::chrono::milliseconds(5)); }\n",
       nullptr},
      {"Clock::SleepMicros is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(Clock* c) { c->SleepMicros(100); }\n",
       nullptr},
      {"garbage destroyed outside retire path fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { retired_batches_.clear(); }\n",
       "epoch-discipline"},
      {"garbage swap outside retire path fires", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F(std::vector<int>& v) { "
       "version_garbage.swap(v); }\n",
       "epoch-discipline"},
      {"annotated retire path is fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nIVDB_EPOCH_RETIRE_PATH\nvoid F() { "
       "retired_batches_.clear(); }\n",
       nullptr},
      {"non-garbage identifiers are fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nvoid F() { pending_.clear(); }\n", nullptr},
      {"garbage reads are fine", "src/foo/bar.cc",
       "#include \"foo/bar.h\"\nsize_t F() { return retired_.size(); }\n",
       nullptr},
      {"epoch rule ignores other trees", "tools/foo.cpp",
       "void F() { retired_.clear(); }\n", nullptr},
  };

  int failures = 0;
  for (const SelfCase& c : cases) {
    std::vector<Finding> findings;
    LintContent(c.path, c.code, &findings);
    bool fired = false;
    for (const Finding& f : findings) {
      if (c.expect_rule != nullptr && f.rule == c.expect_rule) fired = true;
      if (c.expect_rule == nullptr) fired = true;  // any finding is a failure
    }
    bool ok = (c.expect_rule != nullptr) ? fired : !fired;
    if (!ok) {
      failures++;
      std::fprintf(stderr, "self-test FAIL: %s (expected %s)\n", c.name,
                   c.expect_rule != nullptr ? c.expect_rule : "clean");
      for (const Finding& f : findings) {
        std::fprintf(stderr, "  got %s:%d [%s]\n", f.path.c_str(), f.line,
                     f.rule.c_str());
      }
    }
  }

  // Lock-discipline analyzer cases: run the whole multi-pass pipeline over a
  // self-contained snippet against a two-rank hierarchy.
  {
    const std::map<std::string, int> ranks = {{"kA", 10}, {"kB", 20}};
    struct LockCase {
      const char* name;
      const char* code;
      const char* expect_rule;  // nullptr => expect clean
    };
    const LockCase lock_cases[] = {
        {"rank inversion fires",
         "RankedMutex hi_mu_{LockRank::kB, \"hi_mu_\"};\n"
         "RankedMutex lo_mu_{LockRank::kA, \"lo_mu_\"};\n"
         "void F() {\n  MutexLock g1(&hi_mu_);\n  MutexLock g2(&lo_mu_);\n}\n",
         "static-rank-inversion"},
        {"increasing ranks are fine",
         "RankedMutex lo_mu_{LockRank::kA, \"lo_mu_\"};\n"
         "RankedMutex hi_mu_{LockRank::kB, \"hi_mu_\"};\n"
         "void F() {\n  MutexLock g1(&lo_mu_);\n  MutexLock g2(&hi_mu_);\n}\n",
         nullptr},
        {"same-rank reacquire fires",
         "RankedMutex a_mu_{LockRank::kA, \"a_mu_\"};\n"
         "RankedMutex b_mu_{LockRank::kA, \"b_mu_\"};\n"
         "void F() {\n  MutexLock g1(&a_mu_);\n  MutexLock g2(&b_mu_);\n}\n",
         "static-rank-inversion"},
        {"sibling scopes are fine",
         "RankedMutex hi_mu_{LockRank::kB, \"hi_mu_\"};\n"
         "RankedMutex lo_mu_{LockRank::kA, \"lo_mu_\"};\n"
         "void F() {\n  { MutexLock g1(&hi_mu_); }\n"
         "  { MutexLock g2(&lo_mu_); }\n}\n",
         nullptr},
        {"try-lock probe against order is fine",
         "RankedMutex hi_mu_{LockRank::kB, \"hi_mu_\"};\n"
         "RankedMutex lo_mu_{LockRank::kA, \"lo_mu_\"};\n"
         "void F() {\n  MutexLock g1(&hi_mu_);\n"
         "  TryMutexLock probe(&lo_mu_);\n}\n",
         nullptr},
        {"exempt function is fine",
         "RankedMutex hi_mu_{LockRank::kB, \"hi_mu_\"};\n"
         "RankedMutex lo_mu_{LockRank::kA, \"lo_mu_\"};\n"
         "void F() IVDB_NO_THREAD_SAFETY_ANALYSIS {\n"
         "  MutexLock g1(&hi_mu_);\n  MutexLock g2(&lo_mu_);\n}\n",
         nullptr},
        {"raw std::mutex fires",
         "std::mutex plain_mu_;\n", "unranked-mutex"},
        {"bare RankedMutex decl fires",
         "RankedMutex later_mu_;\n", "unranked-mutex"},
        {"unknown rank fires",
         "RankedMutex odd_mu_{LockRank::kNotARank, \"odd_mu_\"};\n",
         "unranked-mutex"},
        {"unguarded write fires",
         "RankedMutex c_mu_{LockRank::kA, \"c_mu_\"};\n"
         "int counter_ IVDB_GUARDED_BY(c_mu_) = 0;\n"
         "void F() {\n  counter_ = 1;\n}\n",
         "guarded-by-missing-lock"},
        {"guarded write under guard is fine",
         "RankedMutex c_mu_{LockRank::kA, \"c_mu_\"};\n"
         "int counter_ IVDB_GUARDED_BY(c_mu_) = 0;\n"
         "void F() {\n  MutexLock g(&c_mu_);\n  counter_ = 1;\n}\n",
         nullptr},
        {"guarded write under REQUIRES is fine",
         "RankedMutex c_mu_{LockRank::kA, \"c_mu_\"};\n"
         "int counter_ IVDB_GUARDED_BY(c_mu_) = 0;\n"
         "void G() IVDB_REQUIRES(c_mu_) {\n  counter_ = 1;\n}\n",
         nullptr},
        {"guarded write in constructor is fine",
         "RankedMutex c_mu_{LockRank::kA, \"c_mu_\"};\n"
         "int counter_ IVDB_GUARDED_BY(c_mu_) = 0;\n"
         "W::W() {\n  counter_ = 1;\n}\n",
         nullptr},
        {"guarded use after mid-scope unlock fires",
         "RankedMutex c_mu_{LockRank::kA, \"c_mu_\"};\n"
         "int counter_ IVDB_GUARDED_BY(c_mu_) = 0;\n"
         "void F() {\n  UniqueMutexLock g(&c_mu_);\n  counter_ = 1;\n"
         "  g.Unlock();\n  counter_ = 2;\n}\n",
         "guarded-by-missing-lock"},
        {"tracker name mismatch fires",
         "RankedMutex d_mu_{LockRank::kA, \"wrong_name\"};\n",
         "annotation-rank-mismatch"},
        {"duplicate member name fires",
         "RankedMutex e_mu_{LockRank::kA, \"e_mu_\"};\n"
         "RankedMutex e_mu_{LockRank::kB, \"e_mu_\"};\n",
         "mutex-name-collision"},
    };
    for (const LockCase& c : lock_cases) {
      const std::vector<Finding> findings =
          AnalyzeSingleFile("src/foo/bar.cc", c.code, ranks);
      bool fired = false;
      for (const Finding& f : findings) {
        if (c.expect_rule != nullptr && f.rule == c.expect_rule) fired = true;
        if (c.expect_rule == nullptr) fired = true;
      }
      bool ok = (c.expect_rule != nullptr) ? fired : !fired;
      if (!ok) {
        failures++;
        std::fprintf(stderr, "self-test FAIL: %s (expected %s)\n", c.name,
                     c.expect_rule != nullptr ? c.expect_rule : "clean");
        for (const Finding& f : findings) {
          std::fprintf(stderr, "  got %s:%d [%s] %s\n", f.path.c_str(), f.line,
                       f.rule.c_str(), f.message.c_str());
        }
      }
    }
  }

  // Metric-catalog rule, both directions: an undocumented registration must
  // fire (through a WithLabel wrapper too), and a fully documented set must
  // stay clean. A metric named only in a comment is not a registration.
  {
    std::vector<std::pair<std::string, FileContent>> srcs;
    srcs.emplace_back(
        "src/foo/bar.cc",
        MakeFileContent(
            "void F(MetricsRegistry* r) {\n"
            "  r->GetCounter(\"ivdb_documented_total\")->Add();\n"
            "  // ivdb_commented_only is just prose, not a registration\n"
            "  r->GetHistogram(\n"
            "      obs::WithLabel(\"ivdb_missing_micros\", \"stage\", "
            "\"x\"));\n"
            "}\n"));
    const std::string catalog =
        "| `ivdb_documented_total` | commits |\n"
        "| `ivdb_unused_total` | documented but never registered |\n";
    std::vector<Finding> findings;
    RunMetricCatalogCheck(srcs, catalog, &findings);
    bool fired = findings.size() == 1 && findings[0].rule == "metric-catalog" &&
                 findings[0].message.find("ivdb_missing_micros") !=
                     std::string::npos;
    if (!fired) {
      failures++;
      std::fprintf(stderr,
                   "self-test FAIL: metric-catalog undocumented registration "
                   "(got %zu findings)\n",
                   findings.size());
      for (const Finding& f : findings) {
        std::fprintf(stderr, "  got %s:%d [%s] %s\n", f.path.c_str(), f.line,
                     f.rule.c_str(), f.message.c_str());
      }
    }
    std::vector<Finding> clean;
    RunMetricCatalogCheck(
        srcs, catalog + "| `ivdb_missing_micros` | now documented |\n",
        &clean);
    if (!clean.empty()) {
      failures++;
      std::fprintf(stderr,
                   "self-test FAIL: metric-catalog documented set must be "
                   "clean (got %zu findings)\n",
                   clean.size());
    }
  }

  // Allowlisting: the same bad snippet must be suppressed by a matching
  // entry and NOT suppressed by a non-matching one.
  {
    std::vector<Finding> findings;
    LintContent("src/foo/bar.cc",
                "#include \"foo/bar.h\"\nvoid F() { mu_.lock(); }\n",
                &findings);
    std::vector<AllowEntry> match = {{"naked-mutex-lock", "src/foo/"}};
    std::vector<AllowEntry> wrong_rule = {{"raw-new-delete", "src/foo/"}};
    std::vector<AllowEntry> wrong_path = {{"naked-mutex-lock", "src/baz/"}};
    bool suppressed = !findings.empty() && Allowlisted(findings[0], match);
    bool kept_rule = !findings.empty() && !Allowlisted(findings[0], wrong_rule);
    bool kept_path = !findings.empty() && !Allowlisted(findings[0], wrong_path);
    if (!suppressed || !kept_rule || !kept_path) {
      failures++;
      std::fprintf(stderr, "self-test FAIL: allowlist semantics\n");
    }
  }

  if (failures == 0) {
    std::fprintf(stderr, "ivdb_lint self-test: all rules verified\n");
    return 0;
  }
  std::fprintf(stderr, "ivdb_lint self-test: %d failure(s)\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string allowlist;
  std::string fixtures;
  bool self_test = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--allowlist") == 0 && i + 1 < argc) {
      allowlist = argv[++i];
    } else if (std::strcmp(argv[i], "--fixtures") == 0 && i + 1 < argc) {
      fixtures = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: ivdb_lint --root <repo> [--allowlist <file>]\n"
                   "       ivdb_lint --root <repo> --fixtures <dir>\n"
                   "       ivdb_lint --self-test\n");
      return 2;
    }
  }
  if (self_test) return SelfTest();
  if (root.empty()) {
    std::fprintf(stderr, "ivdb_lint: --root is required (or --self-test)\n");
    return 2;
  }
  if (!fixtures.empty()) return FixturesMode(root, fixtures);
  return LintTree(root, allowlist);
}
