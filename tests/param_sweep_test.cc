// Parameterized property sweeps: the same invariants checked across the
// whole configuration lattice (lock scheme × maintenance timing × read
// mode × workload shape), plus structural B-tree properties across
// insertion patterns and sizes.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "common/coding.h"
#include "common/random.h"
#include "engine/database.h"

namespace ivdb {
namespace {

// ---------------------------------------------------------------------------
// B-tree structural properties across (pattern, size).
// ---------------------------------------------------------------------------

enum class KeyPattern { kAscending, kDescending, kRandom, kZigzag };

// Every entry of `tree`, copied with one ScanRange.
std::vector<std::pair<std::string, std::string>> Entries(const BTree& tree) {
  ScanBuffer buf;
  tree.ScanRange("", nullptr, SIZE_MAX, &buf);
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < buf.size(); i++) {
    out.emplace_back(buf.key(i).ToString(), buf.value(i).ToString());
  }
  return out;
}

std::string PatternName(KeyPattern p) {
  switch (p) {
    case KeyPattern::kAscending:
      return "Ascending";
    case KeyPattern::kDescending:
      return "Descending";
    case KeyPattern::kRandom:
      return "Random";
    case KeyPattern::kZigzag:
      return "Zigzag";
  }
  return "?";
}

class BTreeSweep
    : public ::testing::TestWithParam<std::tuple<KeyPattern, int>> {
 protected:
  static std::vector<int> MakeKeys(KeyPattern pattern, int n) {
    std::vector<int> keys(n);
    for (int i = 0; i < n; i++) keys[i] = i;
    switch (pattern) {
      case KeyPattern::kAscending:
        break;
      case KeyPattern::kDescending:
        std::reverse(keys.begin(), keys.end());
        break;
      case KeyPattern::kRandom: {
        Random rng(n);
        for (int i = n - 1; i > 0; i--) {
          std::swap(keys[i], keys[rng.Uniform(i + 1)]);
        }
        break;
      }
      case KeyPattern::kZigzag: {
        std::vector<int> zig;
        zig.reserve(n);
        for (int lo = 0, hi = n - 1; lo <= hi; lo++, hi--) {
          zig.push_back(lo);
          if (lo != hi) zig.push_back(hi);
        }
        keys = zig;
        break;
      }
    }
    return keys;
  }

  static std::string Key(int i) {
    std::string k;
    EncodeOrderedInt64(&k, i);
    return k;
  }
};

TEST_P(BTreeSweep, InsertAllDeleteAllKeepsInvariants) {
  auto [pattern, n] = GetParam();
  BTree tree;
  std::vector<int> keys = MakeKeys(pattern, n);
  for (int k : keys) {
    ASSERT_TRUE(tree.Put(Key(k), std::to_string(k)));
  }
  ASSERT_EQ(tree.size(), static_cast<uint64_t>(n));
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();

  // Ordered iteration is complete and sorted.
  auto all = Entries(tree);
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    EXPECT_EQ(all[static_cast<size_t>(i)].first, Key(i));
  }

  // Delete in the same pattern; invariants hold at every quarter mark.
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(tree.Delete(Key(keys[i])));
    if (i % (keys.size() / 4 + 1) == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    }
  }
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.Validate().ok());
}

TEST_P(BTreeSweep, SerializeRestoreEquivalence) {
  auto [pattern, n] = GetParam();
  BTree tree;
  for (int k : MakeKeys(pattern, n)) {
    tree.Put(Key(k), std::to_string(k * 3));
  }
  std::string payload;
  tree.SerializeTo(&payload);
  BTree restored;
  Slice input(payload);
  ASSERT_TRUE(restored.DeserializeFrom(&input).ok());
  ASSERT_TRUE(restored.Validate().ok());
  EXPECT_EQ(restored.size(), tree.size());
  EXPECT_EQ(Entries(restored), Entries(tree));
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndSizes, BTreeSweep,
    ::testing::Combine(::testing::Values(KeyPattern::kAscending,
                                         KeyPattern::kDescending,
                                         KeyPattern::kRandom,
                                         KeyPattern::kZigzag),
                       ::testing::Values(10, 65, 500, 4000)),
    [](const ::testing::TestParamInfo<std::tuple<KeyPattern, int>>& info) {
      return PatternName(std::get<0>(info.param)) +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Engine configuration lattice: the view-consistency invariant must hold
// under every combination of lock scheme and maintenance timing, for both
// a skewed and a uniform workload.
// ---------------------------------------------------------------------------

struct EngineConfig {
  bool escrow;
  MaintenanceTiming timing;
  bool skewed;
};

std::string ConfigName(const EngineConfig& c) {
  std::string name = c.escrow ? "Escrow" : "Xlock";
  name += c.timing == MaintenanceTiming::kImmediate ? "Immediate" : "Deferred";
  name += c.skewed ? "Skewed" : "Uniform";
  return name;
}

class EngineSweep : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineSweep, RandomWorkloadKeepsViewsExact) {
  const EngineConfig& config = GetParam();
  DatabaseOptions options;
  options.use_escrow_locks = config.escrow;
  options.maintenance_timing = config.timing;
  auto db = std::move(Database::Open(std::move(options))).value();
  Schema schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
  ObjectId fact = db->CreateTable("t", schema, {0}).value()->id;
  ViewDefinition def;
  def.name = "v";
  def.kind = ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ASSERT_TRUE(db->CreateIndexedView(def).ok());

  ZipfianGenerator zipf(16, 0.9, 7);
  Random rng(13);
  for (int i = 0; i < 1200; i++) {
    int64_t id = static_cast<int64_t>(rng.Uniform(200));
    int64_t grp = config.skewed ? static_cast<int64_t>(zipf.Next())
                                : static_cast<int64_t>(rng.Uniform(16));
    Transaction* txn = db->Begin();
    Status s;
    switch (rng.Uniform(3)) {
      case 0:
        s = db->Insert(txn, "t",
                       {Value::Int64(id), Value::Int64(grp),
                        Value::Int64(static_cast<int64_t>(rng.Uniform(50)))});
        if (s.IsAlreadyExists()) s = Status::OK();
        break;
      case 1:
        s = db->Update(txn, "t",
                       {Value::Int64(id), Value::Int64(grp),
                        Value::Int64(static_cast<int64_t>(rng.Uniform(50)))});
        if (s.IsNotFound()) s = Status::OK();
        break;
      case 2:
        s = db->Delete(txn, "t", {Value::Int64(id)});
        if (s.IsNotFound()) s = Status::OK();
        break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (rng.OneIn(8)) {
      ASSERT_TRUE(db->Abort(txn).ok());
    } else {
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    db->Forget(txn);
  }
  Status check = db->VerifyViewConsistency("v");
  EXPECT_TRUE(check.ok()) << check.ToString();
  ASSERT_TRUE(db->CleanGhosts().ok());
  check = db->VerifyViewConsistency("v");
  EXPECT_TRUE(check.ok()) << check.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, EngineSweep,
    ::testing::Values(
        EngineConfig{true, MaintenanceTiming::kImmediate, true},
        EngineConfig{true, MaintenanceTiming::kImmediate, false},
        EngineConfig{true, MaintenanceTiming::kDeferred, true},
        EngineConfig{true, MaintenanceTiming::kDeferred, false},
        EngineConfig{false, MaintenanceTiming::kImmediate, true},
        EngineConfig{false, MaintenanceTiming::kImmediate, false},
        EngineConfig{false, MaintenanceTiming::kDeferred, true},
        EngineConfig{false, MaintenanceTiming::kDeferred, false}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return ConfigName(info.param);
    });

// ---------------------------------------------------------------------------
// Read-mode lattice: every mode returns exactly the committed state when
// the system is quiescent.
// ---------------------------------------------------------------------------

class ReadModeSweep : public ::testing::TestWithParam<ReadMode> {};

TEST_P(ReadModeSweep, QuiescentReadsMatchCommittedState) {
  auto db = std::move(Database::Open(DatabaseOptions{})).value();
  Schema schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
  ObjectId fact = db->CreateTable("t", schema, {0}).value()->id;
  ViewDefinition def;
  def.name = "v";
  def.kind = ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ASSERT_TRUE(db->CreateIndexedView(def).ok());

  Transaction* writer = db->Begin();
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(db->Insert(writer, "t",
                           {Value::Int64(i), Value::Int64(i % 3),
                            Value::Int64(i)})
                    .ok());
  }
  ASSERT_TRUE(db->Commit(writer).ok());

  Transaction* reader = db->Begin(GetParam());
  auto rows = db->ScanView(reader, "v");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  int64_t total = 0;
  for (const Row& row : rows.value()) {
    EXPECT_EQ(row[1].AsInt64(), 10);  // 10 rows per group
    total += row[2].AsInt64();
  }
  EXPECT_EQ(total, 29 * 30 / 2);
  auto one = db->GetViewRow(reader, "v", {Value::Int64(0)});
  ASSERT_TRUE(one->has_value());
  auto base = db->Get(reader, "t", {Value::Int64(5)});
  ASSERT_TRUE(base->has_value());
  EXPECT_EQ((**base)[2].AsInt64(), 5);
  ASSERT_TRUE(db->Commit(reader).ok());
}

INSTANTIATE_TEST_SUITE_P(Modes, ReadModeSweep,
                         ::testing::Values(ReadMode::kLocking,
                                           ReadMode::kSnapshot,
                                           ReadMode::kDirty),
                         [](const ::testing::TestParamInfo<ReadMode>& info) {
                           switch (info.param) {
                             case ReadMode::kLocking:
                               return "Locking";
                             case ReadMode::kSnapshot:
                               return "Snapshot";
                             default:
                               return "Dirty";
                           }
                         });

// ---------------------------------------------------------------------------
// Ordered-codec round-trip property across all value types (TEST_P over
// type, property-checked with random data).
// ---------------------------------------------------------------------------

class OrderedCodecSweep : public ::testing::TestWithParam<TypeId> {
 protected:
  Value RandomValue(Random* rng) {
    switch (GetParam()) {
      case TypeId::kInt64:
        return Value::Int64(static_cast<int64_t>(rng->Next()));
      case TypeId::kDouble:
        return Value::Double((rng->NextDouble() - 0.5) * 1e12);
      case TypeId::kString: {
        std::string s;
        size_t len = rng->Uniform(12);
        for (size_t i = 0; i < len; i++) {
          s.push_back(static_cast<char>(rng->Uniform(256)));
        }
        return Value::String(std::move(s));
      }
    }
    return Value();
  }
};

TEST_P(OrderedCodecSweep, EncodingOrderMatchesValueOrder) {
  Random rng(static_cast<uint64_t>(GetParam()) + 1);
  for (int i = 0; i < 3000; i++) {
    Value a = rng.OneIn(20) ? Value::Null(GetParam()) : RandomValue(&rng);
    Value b = rng.OneIn(20) ? Value::Null(GetParam()) : RandomValue(&rng);
    std::string ea, eb;
    a.EncodeOrderedTo(&ea);
    b.EncodeOrderedTo(&eb);
    int cmp = a.Compare(b);
    ASSERT_EQ(cmp < 0, ea < eb) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(cmp == 0, ea == eb);

    Slice input(ea);
    Value round;
    ASSERT_TRUE(Value::DecodeOrderedFrom(&input, GetParam(), &round).ok());
    ASSERT_TRUE(round == a);
  }
}

INSTANTIATE_TEST_SUITE_P(Types, OrderedCodecSweep,
                         ::testing::Values(TypeId::kInt64, TypeId::kDouble,
                                           TypeId::kString),
                         [](const ::testing::TestParamInfo<TypeId>& info) {
                           return TypeName(info.param);
                         });

}  // namespace
}  // namespace ivdb
