#include "storage/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/random.h"

namespace ivdb {
namespace {

std::string Key(int i) {
  std::string k;
  EncodeOrderedInt64(&k, i);
  return k;
}

// The entries of [begin, end), copied with one ScanRange.
std::vector<std::pair<std::string, std::string>> Entries(
    const BTree& tree, const Slice& begin = "", const Slice* end = nullptr) {
  ScanBuffer buf;
  tree.ScanRange(begin, end, SIZE_MAX, &buf);
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < buf.size(); i++) {
    out.emplace_back(buf.key(i).ToString(), buf.value(i).ToString());
  }
  return out;
}

TEST(BTree, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Contains("x"));
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Depth(), 1);
  EXPECT_TRUE(Entries(tree).empty());
}

TEST(BTree, PutGetSingle) {
  BTree tree;
  EXPECT_TRUE(tree.Put("k", "v"));
  std::string value;
  ASSERT_TRUE(tree.Get("k", &value));
  EXPECT_EQ(value, "v");
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTree, PutOverwrites) {
  BTree tree;
  EXPECT_TRUE(tree.Put("k", "v1"));
  EXPECT_FALSE(tree.Put("k", "v2"));  // not a new insert
  std::string value;
  ASSERT_TRUE(tree.Get("k", &value));
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTree, InsertRefusesDuplicates) {
  BTree tree;
  EXPECT_TRUE(tree.Insert("k", "v1"));
  EXPECT_FALSE(tree.Insert("k", "v2"));
  std::string value;
  ASSERT_TRUE(tree.Get("k", &value));
  EXPECT_EQ(value, "v1");
}

TEST(BTree, UpdateOnlyExisting) {
  BTree tree;
  EXPECT_FALSE(tree.Update("k", "v"));
  tree.Put("k", "v1");
  EXPECT_TRUE(tree.Update("k", "v2"));
  std::string value;
  tree.Get("k", &value);
  EXPECT_EQ(value, "v2");
}

TEST(BTree, DeleteMissing) {
  BTree tree;
  EXPECT_FALSE(tree.Delete("k"));
  tree.Put("k", "v");
  EXPECT_TRUE(tree.Delete("k"));
  EXPECT_FALSE(tree.Contains("k"));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTree, SplitsMaintainInvariants) {
  BTree tree;
  const int n = 5000;  // several levels deep at fan-out 64
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(tree.Put(Key(i), "v" + std::to_string(i)));
  }
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  EXPECT_GE(tree.Depth(), 2);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  for (int i = 0; i < n; i++) {
    std::string value;
    ASSERT_TRUE(tree.Get(Key(i), &value)) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(BTree, ReverseInsertionOrder) {
  BTree tree;
  for (int i = 4999; i >= 0; i--) {
    ASSERT_TRUE(tree.Put(Key(i), "v"));
  }
  ASSERT_TRUE(tree.Validate().ok());
  auto all = Entries(tree);
  ASSERT_EQ(all.size(), 5000u);
  for (size_t i = 1; i < all.size(); i++) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
}

TEST(BTree, ScanRangeBounds) {
  BTree tree;
  for (int i = 0; i < 100; i++) tree.Put(Key(i), std::to_string(i));
  std::string end_str = Key(20);
  Slice end(end_str);
  auto some = Entries(tree, Key(10), &end);
  ASSERT_EQ(some.size(), 10u);
  EXPECT_EQ(some.front().second, "10");
  EXPECT_EQ(some.back().second, "19");
}

TEST(BTree, ScanRangeRefillsTheBufferWithOnlyItsOwnEntries) {
  BTree tree;
  for (int i = 0; i < 100; i++) tree.Put(Key(i), std::string(i, 'v'));
  ScanBuffer buf;
  // A copy bounded by its limit...
  tree.ScanRange(Key(40), nullptr, 30, &buf);
  ASSERT_EQ(buf.size(), 30u);
  EXPECT_EQ(buf.key(0), Slice(Key(40)));
  EXPECT_EQ(buf.key(29), Slice(Key(69)));
  EXPECT_EQ(buf.value(29), Slice(std::string(69, 'v')));
  // ...then a shorter one into the same buffer, bounded by its end: it
  // holds its own entries and nothing of the first copy.
  const std::string end_key = Key(13);
  const Slice end(end_key);
  tree.ScanRange(Key(10), &end, 30, &buf);
  ASSERT_EQ(buf.size(), 3u);
  for (size_t i = 0; i < buf.size(); i++) {
    const int k = 10 + static_cast<int>(i);
    EXPECT_EQ(buf.key(i), Slice(Key(k)));
    EXPECT_EQ(buf.value(i), Slice(std::string(k, 'v')));
  }
  // A copy past the last key empties it.
  tree.ScanRange(Key(100), nullptr, 30, &buf);
  EXPECT_TRUE(buf.empty());
}

TEST(BTree, ScanChunksVisitsEveryEntryOneChunkAtATime) {
  BTree tree;
  const int n = 2 * static_cast<int>(BTree::kScanChunk) + 88;
  for (int i = 0; i < n; i++) tree.Put(Key(i), std::to_string(i));
  std::vector<size_t> sizes;
  int next = 0;
  Status s = tree.ScanChunks("", nullptr, [&](const ScanBuffer& chunk) {
    sizes.push_back(chunk.size());
    for (size_t i = 0; i < chunk.size(); i++, next++) {
      EXPECT_EQ(chunk.key(i), Slice(Key(next)));
      EXPECT_EQ(chunk.value(i), Slice(std::to_string(next)));
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(next, n);
  EXPECT_EQ(sizes, (std::vector<size_t>{BTree::kScanChunk, BTree::kScanChunk,
                                        88}));

  // A visitor error stops the walk and is returned.
  int chunks = 0;
  s = tree.ScanChunks("", nullptr, [&](const ScanBuffer&) {
    return ++chunks == 2 ? Status::Aborted("stop") : Status::OK();
  });
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(chunks, 2);
}

TEST(BTree, ModifyInPlace) {
  BTree tree;
  tree.Put("k", "aaa");
  EXPECT_TRUE(tree.ModifyInPlace("k", [](std::string* v) { *v += "bbb"; }));
  std::string value;
  tree.Get("k", &value);
  EXPECT_EQ(value, "aaabbb");
  EXPECT_FALSE(tree.ModifyInPlace("missing", [](std::string*) {}));
}

TEST(BTree, RandomOpsMatchStdMap) {
  BTree tree;
  std::map<std::string, std::string> model;
  Random rng(1234);
  for (int i = 0; i < 20000; i++) {
    int key_int = static_cast<int>(rng.Uniform(2000));
    std::string key = Key(key_int);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {
        std::string value = std::to_string(rng.Next());
        bool inserted = tree.Put(key, value);
        EXPECT_EQ(inserted, model.count(key) == 0);
        model[key] = value;
        break;
      }
      case 2: {
        bool deleted = tree.Delete(key);
        EXPECT_EQ(deleted, model.erase(key) > 0);
        break;
      }
      case 3: {
        std::string value;
        bool found = tree.Get(key, &value);
        auto it = model.find(key);
        ASSERT_EQ(found, it != model.end());
        if (found) {
          EXPECT_EQ(value, it->second);
        }
        break;
      }
    }
    if (i % 2500 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.size(), model.size());
  auto all = Entries(tree);
  ASSERT_EQ(all.size(), model.size());
  auto mit = model.begin();
  for (const auto& [k, v] : all) {
    EXPECT_EQ(k, mit->first);
    EXPECT_EQ(v, mit->second);
    ++mit;
  }
}

TEST(BTree, DeleteEverything) {
  BTree tree;
  const int n = 3000;
  for (int i = 0; i < n; i++) tree.Put(Key(i), "v");
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(tree.Delete(Key(i))) << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_TRUE(Entries(tree).empty());
  // Tree is reusable after total deletion.
  tree.Put(Key(1), "again");
  EXPECT_TRUE(tree.Contains(Key(1)));
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BTree, DeleteInterleavedDirections) {
  BTree tree;
  const int n = 2000;
  for (int i = 0; i < n; i++) tree.Put(Key(i), "v");
  // Delete from both ends toward the middle.
  for (int lo = 0, hi = n - 1; lo < hi; lo++, hi--) {
    ASSERT_TRUE(tree.Delete(Key(lo)));
    ASSERT_TRUE(tree.Delete(Key(hi)));
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BTree, SerializeDeserializeRoundTrip) {
  BTree tree;
  for (int i = 0; i < 1000; i++) tree.Put(Key(i * 3), std::to_string(i));
  std::string payload;
  tree.SerializeTo(&payload);

  BTree restored;
  Slice input(payload);
  ASSERT_TRUE(restored.DeserializeFrom(&input).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(restored.size(), tree.size());
  ASSERT_TRUE(restored.Validate().ok());
  for (int i = 0; i < 1000; i++) {
    std::string value;
    ASSERT_TRUE(restored.Get(Key(i * 3), &value));
    EXPECT_EQ(value, std::to_string(i));
  }
}

TEST(BTree, DeserializeCorruptFails) {
  BTree tree;
  std::string bogus = "zz";
  Slice input(bogus);
  BTree restored;
  restored.Put("a", "b");
  // A failed restore clears the tree (Clear runs first).
  Status s = restored.DeserializeFrom(&input);
  (void)s;  // header may parse as count then fail on entries
  // Either way the restored tree must still be structurally valid.
  EXPECT_TRUE(restored.Validate().ok());
}

// SerializeTo-format payload of keys 0, 2, 4, ... (odd keys stay free for
// later inserts).
std::string EvenKeyPayload(size_t n) {
  std::string payload;
  PutVarint64(&payload, n);
  for (size_t i = 0; i < n; i++) {
    PutLengthPrefixed(&payload, Key(static_cast<int>(2 * i)));
    PutLengthPrefixed(&payload, "v" + std::to_string(i));
  }
  return payload;
}

// The bottom-up reload at every size where the leaf level or the first
// internal level changes shape: an empty and a lone root leaf, a full root
// leaf, two leaves, three leaves, kMaxEntries + 2 leaves (one more than a
// root holds, so two internal nodes), and a deep tree.
TEST(BTree, BulkLoadRoundTripAtLevelBoundaries) {
  constexpr size_t kMax = BTree::kMaxEntries;
  const size_t sizes[] = {0,        1,           BTree::kMinEntries,
                          kMax,     kMax + 1,    2 * kMax + 1,
                          (kMax + 1) * kMax + 1, 100000};
  for (size_t n : sizes) {
    SCOPED_TRACE("size " + std::to_string(n));
    const std::string payload = EvenKeyPayload(n);
    BTree tree;
    Slice input(payload);
    ASSERT_TRUE(tree.DeserializeFrom(&input).ok());
    EXPECT_TRUE(input.empty());
    Status valid = tree.Validate();
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    ASSERT_EQ(tree.size(), n);
    for (size_t i = 0; i < n; i++) {
      std::string value;
      ASSERT_TRUE(tree.Get(Key(static_cast<int>(2 * i)), &value)) << i;
      ASSERT_EQ(value, "v" + std::to_string(i));
    }
    std::string reserialized;
    tree.SerializeTo(&reserialized);
    EXPECT_EQ(reserialized, payload);

    // The loaded shape must stay valid under ordinary mutation.
    std::set<int> model;
    for (size_t i = 0; i < n; i++) model.insert(static_cast<int>(2 * i));
    Random rng(n + 1);
    const uint64_t key_space = 2 * n + 2 * kMax;
    for (int op = 0; op < 10000; op++) {
      const int k = static_cast<int>(rng.Uniform(key_space));
      if (rng.Uniform(2) == 0) {
        tree.Put(Key(k), "p");
        model.insert(k);
      } else {
        EXPECT_EQ(tree.Delete(Key(k)), model.erase(k) == 1) << k;
      }
    }
    valid = tree.Validate();
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(tree.size(), model.size());
  }
}

TEST(BTree, BulkLoadRejectsKeysOutOfOrderOrDuplicated) {
  for (bool duplicate : {false, true}) {
    SCOPED_TRACE(duplicate ? "duplicate key" : "key out of order");
    std::string payload;
    PutVarint64(&payload, 300);
    for (int i = 0; i < 300; i++) {
      int k = i;
      if (i == 200) k = duplicate ? 199 : 17;
      PutLengthPrefixed(&payload, Key(k));
      PutLengthPrefixed(&payload, "v");
    }
    BTree tree;
    tree.Put("stale", "contents");
    Slice input(payload);
    Status s = tree.DeserializeFrom(&input);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_FALSE(tree.Contains(Key(0)));
    EXPECT_FALSE(tree.Contains("stale"));
    EXPECT_TRUE(tree.Validate().ok());
  }
}

TEST(BTree, Clear) {
  BTree tree;
  for (int i = 0; i < 500; i++) tree.Put(Key(i), "v");
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_FALSE(tree.Contains(Key(1)));
}

TEST(BTree, ConcurrentReadersAndWriters) {
  BTree tree;
  for (int i = 0; i < 1000; i++) tree.Put(Key(i), "0");
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    Random rng(1);
    for (int i = 0; i < 20000; i++) {
      int k = static_cast<int>(rng.Uniform(1000));
      tree.ModifyInPlace(Key(k), [](std::string* v) {
        *v = std::to_string(std::stoll(*v) + 1);
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    Random rng(2);
    while (!stop) {
      int k = static_cast<int>(rng.Uniform(1000));
      std::string value;
      if (!tree.Get(Key(k), &value)) errors++;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BTree, ConcurrentIncrementsDoNotLoseUpdates) {
  BTree tree;
  tree.Put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) {
        tree.ModifyInPlace("counter", [](std::string* v) {
          *v = std::to_string(std::stoll(*v) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string value;
  ASSERT_TRUE(tree.Get("counter", &value));
  EXPECT_EQ(value, std::to_string(kThreads * kIncrements));
}

}  // namespace
}  // namespace ivdb
