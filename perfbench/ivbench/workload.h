// Workload specs and the one seeded generator every workload draws from.
//
// Schema (every workload): fact table sales(id, grp, region, amount) with
// two aggregate indexed views, by_grp (COUNT, SUM(amount)) and by_region
// (COUNT, SUM(amount)). A write transaction inserts one new row, deletes the
// oldest live row and updates the amount of one random live row, so the
// table holds exactly `rows` rows at every commit and neither its B-tree
// depth nor the views' group counts drift with run length.
//
// Clients own disjoint slices of the key space (client c owns ids with
// id % clients == c), so writers never conflict on base rows; they meet
// only on the view rows, where escrow locks let them proceed together.
#ifndef IVBENCH_WORKLOAD_H_
#define IVBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ivbench {

enum class Kind {
  kWrite,    // the measured window runs writer (and reader) clients
  kRestart,  // the measured window recovers a fixed crashed directory
};

struct Spec {
  const char* name;
  const char* why;
  Kind kind;
  bool durable;
  int writers;            // closed-loop writer clients
  int readers;            // closed-loop snapshot readers in the window
  int64_t groups;         // by_grp cardinality of the preload
  int64_t hot_groups;     // writes favour groups [0, hot_groups)
  double hot_share;       // share of writes that go to the hot groups
  double churn_share;     // share of txns that fill and empty a fresh group
  uint64_t checkpoint_wal_bytes;  // background checkpointer trigger, 0 = off
};

inline constexpr int64_t kRegions = 8;
inline constexpr int64_t kMaxAmount = 1000;
// Fresh groups per client for the churn transactions.
inline constexpr int64_t kChurnPool = 256;
// Keys per ScanTableRange of the dashboard readers and the read probe.
inline constexpr int64_t kRangeKeys = 1000;

// The four workloads. Later changes cite them by name; BENCHMARK.json
// carries the same reasons.
inline const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"escrow_durable",
       "4 writers, 16 groups, simulated 1 ms device: device waits and "
       "group commit dominate commit latency, so the wal layer shows "
       "here",
       Kind::kWrite, /*durable=*/true, /*writers=*/4, /*readers=*/0,
       /*groups=*/16, /*hot_groups=*/16, /*hot_share=*/1.0,
       /*churn_share=*/0.0, /*checkpoint_wal_bytes=*/1ull << 20},
      {"escrow_cpu",
       "2 writers, 4 hot groups, in memory, 5% ghost churn: no device "
       "wait, so lock, view, txn and storage do almost all the work",
       Kind::kWrite, /*durable=*/false, /*writers=*/2, /*readers=*/0,
       /*groups=*/4, /*hot_groups=*/4, /*hot_share=*/1.0,
       /*churn_share=*/0.05, /*checkpoint_wal_bytes=*/0},
      {"dashboard",
       "2 durable writers on 2 hot of 1024 groups beside 2 snapshot "
       "readers: view scans use the scan cache, range scans bypass it",
       Kind::kWrite, /*durable=*/true, /*writers=*/2, /*readers=*/2,
       /*groups=*/1024, /*hot_groups=*/2, /*hot_share=*/0.8,
       /*churn_share=*/0.0, /*checkpoint_wal_bytes=*/4ull << 20},
      {"restart",
       "recovery of a fixed seeded log with a mid-load checkpoint and "
       "two losers: wal read path, redo and logical undo of increments",
       Kind::kRestart, /*durable=*/true, /*writers=*/4, /*readers=*/0,
       /*groups=*/16, /*hot_groups=*/16, /*hot_share=*/1.0,
       /*churn_share=*/0.0, /*checkpoint_wal_bytes=*/0},
  };
  return specs;
}

inline const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct FactRow {
  int64_t id = 0;
  int64_t grp = 0;
  int64_t region = 0;
  int64_t amount = 0;
};

// One write transaction, fully decided before it is sent.
struct WriteTxn {
  FactRow insert;
  int64_t delete_id = 0;
  FactRow update;                // same id/grp/region, new amount
  uint64_t update_pos = 0;       // the updated row's position in the stream
  std::optional<FactRow> churn;  // inserted then deleted: a fresh group
};

// Derives independent deterministic streams from one seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The preload: ids [0, rows) with seeded group/region/amount, groups
// uniform over the spec's cardinality.
inline std::vector<FactRow> PreloadRows(const Spec& spec, uint64_t seed,
                                        int64_t rows) {
  ivdb::Random rng(StreamSeed(seed, 0));
  std::vector<FactRow> out;
  out.reserve(rows);
  for (int64_t id = 0; id < rows; id++) {
    FactRow r;
    r.id = id;
    r.grp = static_cast<int64_t>(rng.Uniform(spec.groups));
    r.region = static_cast<int64_t>(rng.Uniform(kRegions));
    r.amount = 1 + static_cast<int64_t>(rng.Uniform(kMaxAmount));
    out.push_back(r);
  }
  return out;
}

// One client's deterministic request stream plus its shadow of the rows it
// owns as acknowledged by the engine. Next() decides a transaction without
// changing the shadow; Ack() applies it once the commit returned OK, so a
// failed transaction leaves the shadow exactly as the engine left the data.
class ClientStream {
 public:
  ClientStream(const Spec& spec, uint64_t seed, int client, int clients,
               int64_t rows, const std::vector<FactRow>& preload)
      : spec_(&spec),
        rng_(StreamSeed(seed, 1 + static_cast<uint64_t>(client))),
        client_(client),
        clients_(clients),
        next_k_((rows + clients - 1 - client) / clients) {
    for (const FactRow& r : preload) {
      if (r.id % clients == client) live_.push_back(r);
    }
  }

  WriteTxn Next() {
    WriteTxn t;
    t.insert.id = client_ + static_cast<int64_t>(clients_) * next_k_;
    t.insert.grp = PickGroup();
    t.insert.region = static_cast<int64_t>(rng_.Uniform(kRegions));
    t.insert.amount = 1 + static_cast<int64_t>(rng_.Uniform(kMaxAmount));
    t.delete_id = live_.front().id;
    // Any live row but the one being deleted.
    size_t index = 1 + rng_.Uniform(live_.size() - 1);
    t.update = live_[index];
    t.update_pos = popped_ + index;
    t.update.amount = 1 + static_cast<int64_t>(rng_.Uniform(kMaxAmount));
    if (spec_->churn_share > 0 && rng_.NextDouble() < spec_->churn_share) {
      // Groups and keys outside everything the sliding window uses, taken
      // round-robin from a per-client pool: the pool is large enough that
      // the ghost cleaner has usually reclaimed a group before it comes
      // round again, and bounded so the number of distinct view keys does
      // not grow with run length.
      const int64_t slot =
          static_cast<int64_t>(client_) * kChurnPool + churn_k_ % kChurnPool;
      FactRow c;
      c.id = -1 - slot;
      c.grp = spec_->groups + 1 + slot;
      c.region = static_cast<int64_t>(rng_.Uniform(kRegions));
      c.amount = 1 + static_cast<int64_t>(rng_.Uniform(kMaxAmount));
      t.churn = c;
      churn_k_++;
    }
    return t;
  }

  void Ack(const WriteTxn& t) {
    live_.pop_front();
    popped_++;
    live_[t.update_pos - popped_].amount = t.update.amount;
    live_.push_back(t.insert);
    next_k_++;
  }

  const std::deque<FactRow>& live() const { return live_; }
  // Highest id this client has inserted so far (its window's top).
  int64_t top_id() const { return live_.back().id; }

 private:
  int64_t PickGroup() {
    if (spec_->hot_share >= 1.0 || rng_.NextDouble() < spec_->hot_share) {
      return static_cast<int64_t>(rng_.Uniform(spec_->hot_groups));
    }
    return static_cast<int64_t>(rng_.Uniform(spec_->groups));
  }

  const Spec* spec_;
  ivdb::Random rng_;
  int client_;
  int clients_;
  int64_t next_k_;  // next insert id is client_ + clients_ * next_k_
  int64_t churn_k_ = 0;
  std::deque<FactRow> live_;  // oldest first
  uint64_t popped_ = 0;       // rows deleted so far: live_[i] is at popped_ + i
};

// Expected (count, sum) per group key of one view.
using Aggregates = std::map<int64_t, std::pair<int64_t, int64_t>>;

struct ShadowViews {
  Aggregates by_grp;
  Aggregates by_region;
};

inline ShadowViews ShadowOf(const std::vector<ClientStream>& clients) {
  ShadowViews out;
  for (const ClientStream& c : clients) {
    for (const FactRow& r : c.live()) {
      auto& g = out.by_grp[r.grp];
      g.first++;
      g.second += r.amount;
      auto& reg = out.by_region[r.region];
      reg.first++;
      reg.second += r.amount;
    }
  }
  return out;
}

}  // namespace ivbench

#endif  // IVBENCH_WORKLOAD_H_
