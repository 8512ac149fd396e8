// Per-transaction span logs (Database::DumpTrace), read from the always-on
// flight recorder: with default options, every transaction's lock waits,
// view maintenance, commit stages and abort come back merged across the
// threads that recorded them, in emission order, even after Forget.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"

using namespace std::chrono_literals;

namespace ivdb {
namespace {

Schema SalesSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
}

Row Sale(int64_t id, int64_t grp, int64_t amount) {
  return {Value::Int64(id), Value::Int64(grp), Value::Int64(amount)};
}

std::unique_ptr<Database> OpenWithView(DatabaseOptions options = {}) {
  auto db = std::move(Database::Open(std::move(options))).value();
  auto table = db->CreateTable("sales", SalesSchema(), {0});
  EXPECT_TRUE(table.ok());
  ViewDefinition def;
  def.name = "by_grp";
  def.kind = ViewKind::kAggregate;
  def.fact_table = table.value()->id;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  EXPECT_TRUE(db->CreateIndexedView(def).ok());
  return db;
}

// The dump line holding the first `type` event, or "" if none.
std::string LineOf(const std::string& dump, const std::string& type) {
  size_t at = dump.find(" " + type + " ");
  if (at == std::string::npos) return "";
  size_t begin = dump.rfind('\n', at) + 1;
  return dump.substr(begin, dump.find('\n', at) - begin);
}

TEST(EngineTrace, CommitProducesReadableSpanLog) {
  auto db = OpenWithView();
  Transaction* txn = db->Begin();
  const TxnId id = txn->id();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, 0, 5)).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  db->Forget(txn);
  std::string dump = db->DumpTrace(id);

  // One transaction's whole life, oldest first: begin, view maintenance
  // (one aggregate delta, after the ghost its new group needed), commit.
  size_t p_begin = dump.find("txn_begin");
  size_t p_ghost = dump.find("ghost_create");
  size_t p_view = dump.find("view_maintain");
  size_t p_commit = dump.find(" commit ");
  EXPECT_NE(p_begin, std::string::npos) << dump;
  EXPECT_NE(p_ghost, std::string::npos) << dump;
  EXPECT_NE(p_view, std::string::npos) << dump;
  EXPECT_NE(p_commit, std::string::npos) << dump;
  EXPECT_LT(p_begin, p_ghost);
  EXPECT_LT(p_ghost, p_view);
  EXPECT_LT(p_view, p_commit);
  EXPECT_NE(LineOf(dump, "view_maintain").find("deltas=1"), std::string::npos)
      << dump;
}

TEST(EngineTrace, OnByDefaultForEveryTransaction) {
  auto db = std::move(Database::Open(DatabaseOptions())).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  Transaction* first = db->Begin();
  Transaction* second = db->Begin();
  const TxnId first_id = first->id();
  ASSERT_TRUE(db->Insert(first, "sales", Sale(1, 0, 5)).ok());
  ASSERT_TRUE(db->Insert(second, "sales", Sale(2, 0, 5)).ok());
  ASSERT_TRUE(db->Commit(first).ok());
  ASSERT_TRUE(db->Commit(second).ok());
  db->Forget(first);
  db->Forget(second);

  // Interleaved on one lane, each dump keeps only its own transaction's
  // events: one begin and one commit span with its four stages.
  std::string dump = db->DumpTrace(first_id);
  EXPECT_NE(dump.find("txn " + std::to_string(first_id) + ": 6 event(s)"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("stage_fsync"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("txn_begin"), dump.rfind("txn_begin")) << dump;
  // An id that never ran has an empty log.
  EXPECT_NE(db->DumpTrace(999999).find("0 event(s)"), std::string::npos);
}

// The diagnosis scenario the span log exists for: a deadlock victim's dump
// shows what it was waiting on when the detector chose it, then its abort.
TEST(EngineTrace, DeadlockVictimDumpShowsDeadlock) {
  DatabaseOptions options;
  options.lock_wait_timeout = 5000ms;  // detector, not timeout, must fire
  auto db = std::move(Database::Open(std::move(options))).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
  Transaction* seed = db->Begin();
  ASSERT_TRUE(db->Insert(seed, "sales", Sale(0, 0, 0)).ok());
  ASSERT_TRUE(db->Insert(seed, "sales", Sale(1, 0, 0)).ok());
  ASSERT_TRUE(db->Commit(seed).ok());
  db->Forget(seed);

  // Two threads update rows 0 and 1 in opposite orders, rendezvousing after
  // the first update so both hold one row before requesting the other.
  std::atomic<int> holding{0};
  std::vector<TxnId> victims;
  std::mutex victims_mu;
  auto worker = [&](int64_t first, int64_t second) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->Update(txn, "sales", Sale(first, 0, 1)).ok());
    holding.fetch_add(1);
    while (holding.load() < 2) std::this_thread::yield();
    Status s = db->Update(txn, "sales", Sale(second, 0, 2));
    if (s.ok()) {
      EXPECT_TRUE(db->Commit(txn).ok());
    } else {
      if (txn->state() == TxnState::kActive) (void)db->Abort(txn);
      std::lock_guard<std::mutex> guard(victims_mu);
      victims.push_back(txn->id());
    }
    db->Forget(txn);
  };
  std::thread t1(worker, 0, 1);
  std::thread t2(worker, 1, 0);
  t1.join();
  t2.join();

  ASSERT_GE(victims.size(), 1u);
  for (TxnId victim : victims) {
    std::string dump = db->DumpTrace(victim);
    size_t p_wait = dump.find("lock_wait");
    size_t p_deadlock = dump.find("lock_deadlock");
    size_t p_abort = dump.find("txn_abort");
    ASSERT_NE(p_wait, std::string::npos) << dump;
    ASSERT_NE(p_deadlock, std::string::npos) << dump;
    ASSERT_NE(p_abort, std::string::npos) << dump;
    EXPECT_LT(p_wait, p_deadlock) << dump;
    EXPECT_LT(p_deadlock, p_abort) << dump;
  }
  EXPECT_EQ(db->lock_metrics().timeouts->Value(), 0u);
  EXPECT_GE(db->lock_metrics().deadlocks->Value(), 1u);
}

// An abort issued from another thread lands on that thread's lane; the dump
// merges it with the owner's events by sequence number.
TEST(EngineTrace, AbortFromAnotherThreadMergesLanes) {
  auto db = OpenWithView();
  db->flight_recorder()->SetThreadName("owner");
  Transaction* txn = db->Begin();
  const TxnId id = txn->id();
  ASSERT_TRUE(db->Insert(txn, "sales", Sale(1, 0, 5)).ok());
  std::thread aborter([&] {
    db->flight_recorder()->SetThreadName("aborter");
    EXPECT_TRUE(db->Abort(txn).ok());
  });
  aborter.join();
  db->Forget(txn);

  std::string dump = db->DumpTrace(id);
  size_t p_begin = dump.find("txn_begin");
  size_t p_view = dump.find("view_maintain");
  size_t p_abort = dump.find("txn_abort");
  ASSERT_NE(p_begin, std::string::npos) << dump;
  ASSERT_NE(p_view, std::string::npos) << dump;
  ASSERT_NE(p_abort, std::string::npos) << dump;
  EXPECT_LT(p_begin, p_view);
  EXPECT_LT(p_view, p_abort);
  EXPECT_NE(LineOf(dump, "txn_begin").find("[owner]"), std::string::npos)
      << dump;
  // The base-table insert and the view increment were rolled back.
  std::string abort_line = LineOf(dump, "txn_abort");
  EXPECT_NE(abort_line.find("[aborter]"), std::string::npos) << dump;
  EXPECT_NE(abort_line.find("undone=2"), std::string::npos) << dump;
}

}  // namespace
}  // namespace ivdb
