#include "storage/version_store.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace ivdb {
namespace {

constexpr uint32_t kObj = 9;

TEST(VersionStore, EmptyMeansPhysicalVisible) {
  VersionStore vs;
  auto view = vs.GetAsOf(kObj, "k", 100);
  EXPECT_FALSE(view.use_chain_value);
  EXPECT_TRUE(view.subtract.empty());
}

TEST(VersionStore, PendingWriteExposesOldValueToEveryone) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), /*txn=*/1);
  // Any snapshot during the write sees the old committed value.
  for (uint64_t ts : {1ull, 50ull, 1000ull}) {
    auto view = vs.GetAsOf(kObj, "k", ts);
    ASSERT_TRUE(view.use_chain_value);
    ASSERT_TRUE(view.chain_value.has_value());
    EXPECT_EQ(*view.chain_value, "old");
  }
}

TEST(VersionStore, CommitMakesNewValueVisibleToLaterSnapshots) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), 1);
  vs.Commit(1, /*commit_ts=*/100);

  // Snapshot before the commit still sees the superseded value.
  auto before = vs.GetAsOf(kObj, "k", 99);
  ASSERT_TRUE(before.use_chain_value);
  EXPECT_EQ(*before.chain_value, "old");

  // Snapshot at/after the commit reads the physical (new) value.
  auto after = vs.GetAsOf(kObj, "k", 100);
  EXPECT_FALSE(after.use_chain_value);
  EXPECT_TRUE(after.subtract.empty());
}

TEST(VersionStore, PendingInsertShowsAbsence) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::nullopt, 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_FALSE(view.chain_value.has_value());  // did not exist
  vs.Commit(1, 100);
  auto before = vs.GetAsOf(kObj, "k", 50);
  ASSERT_TRUE(before.use_chain_value);
  EXPECT_FALSE(before.chain_value.has_value());
  auto after = vs.GetAsOf(kObj, "k", 150);
  EXPECT_FALSE(after.use_chain_value);
}

TEST(VersionStore, AbortDropsPending) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), 1);
  vs.Abort(1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_FALSE(view.use_chain_value);
  EXPECT_TRUE(view.subtract.empty());
  EXPECT_EQ(vs.TotalEntries(), 0u);
}

TEST(VersionStore, MultiVersionChainPicksOldestCovering) {
  VersionStore vs;
  // v1 superseded at 10, v2 superseded at 20.
  vs.NotePendingWrite(kObj, "k", std::string("v1"), 1);
  vs.Commit(1, 10);
  vs.NotePendingWrite(kObj, "k", std::string("v2"), 2);
  vs.Commit(2, 20);

  auto at5 = vs.GetAsOf(kObj, "k", 5);
  ASSERT_TRUE(at5.use_chain_value);
  EXPECT_EQ(*at5.chain_value, "v1");

  auto at15 = vs.GetAsOf(kObj, "k", 15);
  ASSERT_TRUE(at15.use_chain_value);
  EXPECT_EQ(*at15.chain_value, "v2");

  auto at25 = vs.GetAsOf(kObj, "k", 25);
  EXPECT_FALSE(at25.use_chain_value);
}

TEST(VersionStore, UncommittedDeltasAreSubtracted) {
  VersionStore vs;
  std::vector<ColumnDelta> d1 = {{1, Value::Int64(5)}};
  std::vector<ColumnDelta> d2 = {{1, Value::Int64(3)}};
  vs.NotePendingIncrement(kObj, "k", d1, 1);
  vs.NotePendingIncrement(kObj, "k", d2, 2);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_FALSE(view.use_chain_value);
  ASSERT_EQ(view.subtract.size(), 2u);
}

TEST(VersionStore, CommittedDeltaVisibleOnlyAfterCommitTs) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.Commit(1, 100);
  // Reader at 50 must subtract the delta committed at 100.
  auto at50 = vs.GetAsOf(kObj, "k", 50);
  ASSERT_EQ(at50.subtract.size(), 1u);
  EXPECT_EQ(at50.subtract[0][0].delta.AsInt64(), 5);
  // Reader at 100+ sees it.
  auto at100 = vs.GetAsOf(kObj, "k", 100);
  EXPECT_TRUE(at100.subtract.empty());
}

TEST(VersionStore, SameTxnDeltasCoalesce) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(2)}}, 1);
  vs.NotePendingIncrement(kObj, "k", {{2, Value::Double(1.5)}}, 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_EQ(view.subtract.size(), 1u);  // one entry for txn 1
  ASSERT_EQ(view.subtract[0].size(), 2u);
  EXPECT_EQ(view.subtract[0][0].delta.AsInt64(), 7);
  EXPECT_EQ(view.subtract[0][1].delta.AsDouble(), 1.5);
}

TEST(VersionStore, AbortDropsDeltas) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.Abort(1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_TRUE(view.subtract.empty());
}

TEST(VersionStore, PendingWriteTakesPriorityOverDeltas) {
  // A ghost insert (pending write) plus earlier committed deltas: the chain
  // value answers for snapshots that predate everything.
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::nullopt, 1);  // creating the row
  auto view = vs.GetAsOf(kObj, "k", 5);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_FALSE(view.chain_value.has_value());
}

TEST(VersionStore, GhostLifecycleVisibility) {
  VersionStore vs;
  // System txn 1 creates ghost at ts 10; txn 2 increments, commits at 20.
  vs.NotePendingWrite(kObj, "g", std::nullopt, 1);
  vs.Commit(1, 10);
  vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(1)}}, 2);
  vs.Commit(2, 20);

  auto at5 = vs.GetAsOf(kObj, "g", 5);
  ASSERT_TRUE(at5.use_chain_value);
  EXPECT_FALSE(at5.chain_value.has_value());  // before creation: absent

  auto at15 = vs.GetAsOf(kObj, "g", 15);
  EXPECT_FALSE(at15.use_chain_value);
  ASSERT_EQ(at15.subtract.size(), 1u);  // strip the ts-20 increment => ghost

  auto at25 = vs.GetAsOf(kObj, "g", 25);
  EXPECT_FALSE(at25.use_chain_value);
  EXPECT_TRUE(at25.subtract.empty());  // fully visible
}

TEST(VersionStore, GarbageCollectReclaimsInvisible) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("v1"), 1);
  vs.Commit(1, 10);
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(2)}}, 2);
  vs.Commit(2, 20);
  EXPECT_EQ(vs.TotalEntries(), 2u);

  EXPECT_EQ(vs.GarbageCollect(5), 0u);   // both still visible to ts<10 readers
  EXPECT_EQ(vs.GarbageCollect(15), 1u);  // value version dead
  EXPECT_EQ(vs.GarbageCollect(25), 1u);  // delta dead
  EXPECT_EQ(vs.TotalEntries(), 0u);
}

TEST(VersionStore, GcKeepsPendingEntries) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("v"), 1);
  vs.NotePendingIncrement(kObj, "k2", {{1, Value::Int64(1)}}, 2);
  EXPECT_EQ(vs.GarbageCollect(1000), 0u);
  EXPECT_EQ(vs.TotalEntries(), 2u);
}

// Runs SnapshotScan and returns the visible (key, value) pairs, with the
// subtract lists checked empty (this test writes no increments).
std::vector<std::pair<std::string, std::string>> ScanAt(
    const VersionStore& vs, const BTree& tree, uint64_t ts,
    const Slice& begin = "", const Slice* end = nullptr) {
  std::vector<std::pair<std::string, std::string>> out;
  Status s = vs.SnapshotScan(
      kObj, &tree, begin, end, ts,
      [&out](const Slice& key, const Slice& value,
             const std::vector<std::vector<ColumnDelta>>& subtract) {
        EXPECT_TRUE(subtract.empty()) << key.ToString();
        out.emplace_back(key.ToString(), value.ToString());
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

std::string PaddedKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

TEST(VersionStore, SnapshotScanMergesChainsWithTheLeafCopy) {
  // Three chunks of physical rows, then writes after snapshot 50: a
  // committed delete in the first chunk, a pending update at the first
  // chunk boundary, a pending insert, a committed delete past the last
  // physical key, and a chain of another object.
  constexpr int kRows = 2 * VersionStore::kSnapshotScanChunk + 88;
  VersionStore vs;
  BTree tree;
  for (int i = 0; i < kRows; i++) {
    tree.Put(PaddedKey(i), "v" + std::to_string(i));
  }
  const int boundary = VersionStore::kSnapshotScanChunk;
  ASSERT_TRUE(tree.Delete(PaddedKey(100)));
  vs.NotePendingWrite(kObj, PaddedKey(100), std::string("v100"), 1);
  vs.Commit(1, 60);
  tree.Put(PaddedKey(boundary), "new");
  vs.NotePendingWrite(kObj, PaddedKey(boundary),
                      "v" + std::to_string(boundary), 2);
  tree.Put("k0300x", "inserted");
  vs.NotePendingWrite(kObj, "k0300x", std::nullopt, 3);
  vs.NotePendingWrite(kObj, "k9999", std::string("tail"), 4);
  vs.Commit(4, 70);
  vs.NotePendingWrite(kObj + 1, PaddedKey(1), std::string("other"), 5);

  auto at50 = ScanAt(vs, tree, 50);
  ASSERT_EQ(at50.size(), static_cast<size_t>(kRows + 1));
  for (int i = 0; i < kRows; i++) {
    EXPECT_EQ(at50[i].first, PaddedKey(i));
    EXPECT_EQ(at50[i].second, "v" + std::to_string(i));
  }
  EXPECT_EQ(at50.back(), std::make_pair(std::string("k9999"),
                                        std::string("tail")));

  // After both commits: the deletes are visible, the pendings are not.
  auto at100 = ScanAt(vs, tree, 100);
  ASSERT_EQ(at100.size(), static_cast<size_t>(kRows - 1));
  for (const auto& [key, value] : at100) {
    EXPECT_NE(key, PaddedKey(100));
    EXPECT_NE(key, "k0300x");
    if (key == PaddedKey(boundary)) {
      EXPECT_EQ(value, "v" + std::to_string(boundary));
    }
  }

  // A bounded range takes only its own keys, chained ones included.
  const std::string end_key = PaddedKey(102);
  const Slice end(end_key);
  auto range = ScanAt(vs, tree, 50, PaddedKey(99), &end);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[1], std::make_pair(PaddedKey(100), std::string("v100")));

  // A visitor error stops the scan and is returned.
  int visited = 0;
  Status s = vs.SnapshotScan(
      kObj, &tree, "", nullptr, 50,
      [&visited](const Slice&, const Slice&,
                 const std::vector<std::vector<ColumnDelta>>&) {
        return ++visited == 3 ? Status::Aborted("stop") : Status::OK();
      });
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(visited, 3);

  // One full chunk of mixed entries, compared byte for byte: empty, 41-byte
  // and 4 KiB values and a key with an embedded NUL byte. A key deleted
  // after the snapshot, so absent from the copy, sorts exactly at the chunk
  // boundary (the chunk's last key plus a NUL byte): the next chunk owns it.
  BTree mixed;
  VersionStore mixed_vs;
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < static_cast<int>(VersionStore::kSnapshotScanChunk);
       i++) {
    std::string key = PaddedKey(i);
    if (i == 7) key.append(std::string("\0nul", 4));
    std::string value;
    switch (i % 4) {
      case 0: break;  // empty
      case 1: value = std::string(41, static_cast<char>('a' + i % 26)); break;
      case 2: value = std::string(4096, static_cast<char>(i)); break;
      case 3: value = std::string("v\0", 2) + std::to_string(i); break;
    }
    mixed.Put(key, value);
    expected.emplace_back(key, value);
  }
  const std::string at_boundary = expected.back().first + '\0';
  const std::string deleted_value(41, '\0');
  mixed_vs.NotePendingWrite(kObj, at_boundary, deleted_value, 1);
  mixed_vs.Commit(1, 60);
  expected.emplace_back(at_boundary, deleted_value);

  EXPECT_EQ(ScanAt(mixed_vs, mixed, 50), expected);
  expected.pop_back();
  EXPECT_EQ(ScanAt(mixed_vs, mixed, 100), expected);
}

TEST(VersionStore, DuplicatePendingWriteIgnored) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("first"), 1);
  vs.NotePendingWrite(kObj, "k", std::string("second"), 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_EQ(*view.chain_value, "first");  // pre-transaction value wins
}

}  // namespace
}  // namespace ivdb
