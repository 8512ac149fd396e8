#include "storage/version_store.h"

#include <algorithm>

#include "common/invariant.h"
#include "common/logging.h"
#include "common/mutex.h"

namespace ivdb {

namespace {

// Default stripe count: enough buckets that concurrent committers hashing
// random keys almost never collide, at a trivial fixed footprint.
constexpr size_t kVersionStripes = 16;

}  // namespace

VersionStore::VersionStore() {
  stripes_.reserve(kVersionStripes);
  for (size_t i = 0; i < kVersionStripes; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

VersionStore::Stripe& VersionStore::StripeFor(const ChainKey& ck) const {
  size_t h = std::hash<uint32_t>{}(ck.first);
  h ^= std::hash<std::string>{}(ck.second) + 0x9e3779b97f4a7c15ULL +
       (h << 6) + (h >> 2);
  return *stripes_[h % stripes_.size()];
}

void VersionStore::NotePending(TxnId txn, ChainKey ck) {
  MutexLock guard(&pending_mu_);
  pending_[txn].push_back(std::move(ck));
}

#if IVDB_CHECKS_ENABLED
namespace {

// Structural invariants of one version chain (its stripe mutex held):
//  - committed values appear before pendings, in ascending superseded_ts;
//  - every pending entry (value or delta) carries a live owner;
//  - at most one pending value version per owner.
// (Template so the private Chain type is deduced, not named.)
template <typename ChainT>
void CheckChainInvariants(const ChainT& chain) {
  uint64_t prev_ts = 0;
  bool seen_pending = false;
  uint64_t pending_owners_seen = 0;
  for (const auto& v : chain.values) {
    if (v.superseded_ts == 0) {
      IVDB_INVARIANT(v.owner != 0, "pending value version must have an owner");
      for (const auto& w : chain.values) {
        if (&w != &v && w.superseded_ts == 0 && w.owner == v.owner) {
          IVDB_INVARIANT(false, "duplicate pending value version for one txn");
        }
      }
      seen_pending = true;
      pending_owners_seen++;
      continue;
    }
    IVDB_INVARIANT(!seen_pending,
                   "committed value version ordered after a pending one");
    IVDB_INVARIANT(v.superseded_ts >= prev_ts,
                   "committed value versions out of superseded_ts order");
    prev_ts = v.superseded_ts;
  }
  (void)pending_owners_seen;
  for (const auto& d : chain.deltas) {
    if (d.commit_ts == 0) {
      IVDB_INVARIANT(d.owner != 0, "pending delta must have an owner");
    }
  }
}

}  // namespace
#endif  // IVDB_CHECKS_ENABLED

bool VersionStore::NotePendingWriteLocked(Stripe& stripe, uint32_t object_id,
                                          const Slice& key,
                                          std::optional<std::string> old_value,
                                          TxnId txn) {
  ChainKey ck{object_id, key.ToString()};
  Chain& chain = stripe.chains[ck];
  for (const ValueVersion& v : chain.values) {
    if (v.superseded_ts == 0 && v.owner == txn) return false;  // already noted
  }
  ValueVersion v;
  v.value = std::move(old_value);
  v.superseded_ts = 0;
  v.owner = txn;
  chain.values.push_back(std::move(v));
  return true;
}

void VersionStore::NotePendingWrite(uint32_t object_id, const Slice& key,
                                    std::optional<std::string> old_value,
                                    TxnId txn) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    created =
        NotePendingWriteLocked(stripe, object_id, key, std::move(old_value),
                               txn);
  }
  if (created) NotePending(txn, std::move(ck));
}

bool VersionStore::NotePendingIncrementLocked(
    Stripe& stripe, uint32_t object_id, const Slice& key,
    const std::vector<ColumnDelta>& deltas, TxnId txn, bool create_pending) {
  ChainKey ck{object_id, key.ToString()};
  auto chain_it = stripe.chains.find(ck);
  if (chain_it == stripe.chains.end()) {
    if (!create_pending) return false;
    chain_it = stripe.chains.emplace(std::move(ck), Chain{}).first;
  }
  Chain& chain = chain_it->second;
  // Coalesce with an existing pending delta entry of this transaction.
  for (DeltaVersion& d : chain.deltas) {
    if (d.commit_ts == 0 && d.owner == txn) {
      for (const ColumnDelta& nd : deltas) {
        bool merged = false;
        for (ColumnDelta& od : d.deltas) {
          if (od.column == nd.column) {
            // Both deltas already passed increment validation (same column,
            // same chain ⇒ same type, non-null), so a failure here would be
            // silent lost-update corruption, not a recoverable error.
            IVDB_CHECK_MSG(od.delta.AccumulateAdd(nd.delta).ok(),
                           "pending delta coalesce must be type-compatible");
            merged = true;
            break;
          }
        }
        if (!merged) d.deltas.push_back(nd);
      }
      return false;
    }
  }
  if (!create_pending) {
    return false;  // undo path with nothing pending: physical only
  }
  DeltaVersion d;
  d.deltas = deltas;
  d.commit_ts = 0;
  d.owner = txn;
  chain.deltas.push_back(std::move(d));
  return true;
}

void VersionStore::NotePendingIncrement(uint32_t object_id, const Slice& key,
                                        const std::vector<ColumnDelta>& deltas,
                                        TxnId txn) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    created = NotePendingIncrementLocked(stripe, object_id, key, deltas, txn,
                                         /*create_pending=*/true);
  }
  if (created) NotePending(txn, std::move(ck));
}

Status VersionStore::ApplyIncrement(uint32_t object_id, const Slice& key,
                                    const std::vector<ColumnDelta>& deltas,
                                    TxnId txn, bool create_pending,
                                    BTree* tree,
                                    const std::vector<ColumnBound>* bounds,
                                    const std::function<Status()>& pre_apply) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  bool created = false;
  {
    MutexLock guard(&stripe.version_stripe_mu_);

    if (bounds != nullptr && !bounds->empty()) {
      // Escrow-bound admission: candidate = physical + my deltas (= the
      // value if every pending transaction commits, since physical already
      // contains the others' applied deltas). Worst case subtracts every
      // *positive* pending contribution of other transactions (they might
      // all abort).
      std::string value;
      if (!tree->Get(key, &value)) {
        return Status::NotFound("escrow bound check: row missing");
      }
      Row row;
      IVDB_RETURN_NOT_OK(DecodeRow(value, &row));
      IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, deltas));
      auto chain_it = stripe.chains.find(ck);
      for (const ColumnBound& bound : *bounds) {
        if (bound.column >= row.size() ||
            row[bound.column].type() != TypeId::kInt64) {
          return Status::InvalidArgument("escrow bound on non-int64 column");
        }
        int64_t candidate = row[bound.column].AsInt64();
        if (candidate < bound.min_value) {
          return Status::InvalidArgument(
              "escrow bound violated even if all pending work commits");
        }
        int64_t worst = candidate;
        if (chain_it != stripe.chains.end()) {
          for (const DeltaVersion& d : chain_it->second.deltas) {
            if (d.commit_ts != 0 || d.owner == txn) continue;
            for (const ColumnDelta& cd : d.deltas) {
              if (cd.column == bound.column && !cd.delta.is_null() &&
                  cd.delta.AsInt64() > 0) {
                worst -= cd.delta.AsInt64();
              }
            }
          }
        }
        if (worst < bound.min_value) {
          return Status::Busy(
              "escrow bound at risk until concurrent transactions settle");
        }
      }
    }

    if (pre_apply) {
      IVDB_RETURN_NOT_OK(pre_apply());  // WAL append, log-before-apply
    }
    // Apply after admission: if the physical application fails (corrupt
    // row, missing key) the bookkeeping must not claim a delta that never
    // landed.
    IVDB_RETURN_NOT_OK(ApplyIncrementToTree(tree, key, deltas));
    created = NotePendingIncrementLocked(stripe, object_id, key, deltas, txn,
                                         create_pending);
  }
  if (created) NotePending(txn, std::move(ck));
  return Status::OK();
}

Status VersionStore::ApplyWithPendingWrite(
    uint32_t object_id, const Slice& key,
    std::optional<std::string> old_value, TxnId txn,
    const std::function<Status()>& apply) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    IVDB_RETURN_NOT_OK(apply());
    created =
        NotePendingWriteLocked(stripe, object_id, key, std::move(old_value),
                               txn);
  }
  if (created) NotePending(txn, std::move(ck));
  return Status::OK();
}

void VersionStore::Commit(TxnId txn, uint64_t commit_ts) {
  // Snapshot the dirty-key list first (pending_mu_), then stamp chains one
  // stripe at a time. Nothing can add to the list in between: only the
  // owning transaction's thread appends, and its writes happened-before
  // whichever thread is flipping it here (flip_queue_ hand-off under the
  // txn manager's visibility mutex).
  std::vector<ChainKey> keys;
  {
    MutexLock guard(&pending_mu_);
    auto it = pending_.find(txn);
    if (it == pending_.end()) return;
    keys = std::move(it->second);
    pending_.erase(it);
  }
  for (const ChainKey& ck : keys) {
    Stripe& stripe = StripeFor(ck);
    {
      MutexLock guard(&stripe.version_stripe_mu_);
      auto chain_it = stripe.chains.find(ck);
      if (chain_it == stripe.chains.end()) continue;
      Chain& chain = chain_it->second;
      for (ValueVersion& v : chain.values) {
        if (v.superseded_ts == 0 && v.owner == txn) {
          v.superseded_ts = commit_ts;
          v.owner = 0;
        }
      }
      for (DeltaVersion& d : chain.deltas) {
        if (d.commit_ts == 0 && d.owner == txn) {
          d.commit_ts = commit_ts;
          d.owner = 0;
        }
      }
      // The chain stays sorted by superseded_ts without a sort: flips stamp
      // strictly increasing timestamps (under the txn manager's visibility
      // mutex), and the X lock behind a value write leaves at most one
      // pending value version per key, at the end of the chain.
#if IVDB_CHECKS_ENABLED
      CheckChainInvariants(chain);
#endif
    }
    // Invalidation hook outside the stripe (rank 20 -> 33 only, never
    // 40 -> 33). The commit is not yet published: any snapshot that can see
    // commit_ts draws its begin_ts after the publish, hence after this.
    if (commit_hook_) commit_hook_(ck.first, ck.second, commit_ts);
  }
}

void VersionStore::Abort(TxnId txn, uint64_t retire_stamp) {
  std::vector<ChainKey> keys;
  {
    MutexLock guard(&pending_mu_);
    auto it = pending_.find(txn);
    if (it == pending_.end()) return;
    keys = std::move(it->second);
    pending_.erase(it);
  }
  // Unlink under the stripes, free via the epoch reclaimer: same discipline
  // as GarbageCollect, so NO version payload is ever destroyed while a
  // stripe mutex is held. The exclusive version_scan_mu_ keeps every unlink
  // out of a snapshot-scan chunk's copy-to-listing window (SnapshotScan).
  auto batch = std::make_shared<RetiredVersions>();
  {
    WriterMutexLock no_scan_chunk(&version_scan_mu_);
    for (const ChainKey& ck : keys) {
      Stripe& stripe = StripeFor(ck);
      MutexLock guard(&stripe.version_stripe_mu_);
      auto chain_it = stripe.chains.find(ck);
      if (chain_it == stripe.chains.end()) continue;
      Chain& chain = chain_it->second;
      auto mine_v = [txn](const ValueVersion& v) {
        return v.superseded_ts == 0 && v.owner == txn;
      };
      auto mine_d = [txn](const DeltaVersion& d) {
        return d.commit_ts == 0 && d.owner == txn;
      };
      auto v_it = std::stable_partition(
          chain.values.begin(), chain.values.end(),
          [&](const ValueVersion& v) { return !mine_v(v); });
      std::move(v_it, chain.values.end(), std::back_inserter(batch->values));
      chain.values.erase(v_it, chain.values.end());
      auto d_it = std::stable_partition(
          chain.deltas.begin(), chain.deltas.end(),
          [&](const DeltaVersion& d) { return !mine_d(d); });
      std::move(d_it, chain.deltas.end(), std::back_inserter(batch->deltas));
      chain.deltas.erase(d_it, chain.deltas.end());
      if (chain.values.empty() && chain.deltas.empty()) {
        stripe.chains.erase(chain_it);
      } else {
#if IVDB_CHECKS_ENABLED
        CheckChainInvariants(chain);
#endif
      }
    }
  }
  const uint64_t unlinked = batch->values.size() + batch->deltas.size();
  if (unlinked > 0) {
    reclaimer_.Retire(retire_stamp, unlinked, std::move(batch));
  }
}

VersionStore::SnapshotView VersionStore::GetAsOfLocked(
    const Stripe& stripe, uint32_t object_id, const Slice& key,
    uint64_t snapshot_ts) const {
  SnapshotView view;
  auto it = stripe.chains.find(ChainKey{object_id, key.ToString()});
  if (it == stripe.chains.end()) return view;
  const Chain& chain = it->second;

  // 1. A committed superseded value with superseded_ts > snapshot_ts is the
  //    base image the reader must see (the oldest such, since versions are
  //    ordered oldest-first). That image physically contains every
  //    increment committed before it was captured, so increments committed
  //    in (snapshot_ts, superseded_ts) — invisible to the reader but baked
  //    into the image — must still be stripped. (Lock conflicts guarantee
  //    increments and image-superseding writes serialize in commit order.)
  for (const ValueVersion& v : chain.values) {
    if (v.superseded_ts != 0 && v.superseded_ts > snapshot_ts) {
      view.use_chain_value = true;
      view.chain_value = v.value;
      for (const DeltaVersion& d : chain.deltas) {
        if (d.commit_ts != 0 && d.commit_ts > snapshot_ts &&
            d.commit_ts < v.superseded_ts) {
          view.subtract.push_back(d.deltas);
        }
      }
      return view;
    }
  }
  // 2. A pending write's old value is the current committed state; strip
  //    committed increments the snapshot must not see (pending increments
  //    cannot coexist with a pending write: E conflicts with X).
  for (const ValueVersion& v : chain.values) {
    if (v.superseded_ts == 0) {
      view.use_chain_value = true;
      view.chain_value = v.value;
      for (const DeltaVersion& d : chain.deltas) {
        if (d.commit_ts != 0 && d.commit_ts > snapshot_ts) {
          view.subtract.push_back(d.deltas);
        }
      }
      return view;
    }
  }
  // 3. Otherwise reconstruct by stripping invisible increments off the
  //    physical value.
  for (const DeltaVersion& d : chain.deltas) {
    if (d.commit_ts == 0 || d.commit_ts > snapshot_ts) {
      view.subtract.push_back(d.deltas);
    }
  }
  return view;
}

VersionStore::SnapshotView VersionStore::GetAsOf(uint32_t object_id,
                                                 const Slice& key,
                                                 uint64_t snapshot_ts) const {
  Stripe& stripe = StripeFor(ChainKey{object_id, key.ToString()});
  MutexLock guard(&stripe.version_stripe_mu_);
  return GetAsOfLocked(stripe, object_id, key, snapshot_ts);
}

VersionStore::SnapshotView VersionStore::GetAsOfConsistent(
    uint32_t object_id, const Slice& key, uint64_t snapshot_ts,
    const BTree* tree, std::optional<std::string>* physical) const {
  // Holding the chain's stripe across the tree probe keeps a writer's
  // note+apply pair (which runs under the same stripe) from falling
  // between the view computation and the physical read.
  Stripe& stripe = StripeFor(ChainKey{object_id, key.ToString()});
  MutexLock guard(&stripe.version_stripe_mu_);
  SnapshotView view = GetAsOfLocked(stripe, object_id, key, snapshot_ts);
  physical->reset();
  if (!view.use_chain_value) {
    std::string value;
    if (tree->Get(key, &value)) *physical = std::move(value);
  }
  return view;
}

void VersionStore::ChainedKeysInRange(uint32_t object_id,
                                      const std::string& begin,
                                      const std::string* end,
                                      std::vector<std::string>* keys) const {
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (auto it = stripe->chains.lower_bound(ChainKey{object_id, begin});
         it != stripe->chains.end() && it->first.first == object_id &&
         (end == nullptr || it->first.second < *end);
         ++it) {
      keys->push_back(it->first.second);
    }
  }
}

Status VersionStore::SnapshotScan(uint32_t object_id, const BTree* tree,
                                  const Slice& begin, const Slice* end,
                                  uint64_t snapshot_ts,
                                  const ScanVisitor& visit) const {
  static const std::vector<std::vector<ColumnDelta>> kNoDeltas;
  const std::string end_key = end == nullptr ? std::string() : end->ToString();
  std::string cursor = begin.ToString();
  ScanBuffer copy;
  std::vector<std::string> chained;
  while (true) {
    // A full chunk owns [cursor, next_cursor), next_cursor being the
    // successor of its last key; a short chunk owns the rest of the range.
    std::string next_cursor;
    bool last_chunk = false;
    chained.clear();
    {
      ReaderMutexLock chunk(&version_scan_mu_);
      tree->ScanRange(cursor, end, kSnapshotScanChunk, &copy);
      last_chunk = copy.size() < kSnapshotScanChunk;
      const std::string* chunk_end = end == nullptr ? nullptr : &end_key;
      if (!last_chunk) {
        next_cursor = copy.key(copy.size() - 1).ToString();
        next_cursor.push_back('\0');
        chunk_end = &next_cursor;
      }
      ChainedKeysInRange(object_id, cursor, chunk_end, &chained);
    }
    std::sort(chained.begin(), chained.end());

    auto resolve = [&](const std::string& key) -> Status {
      std::optional<std::string> physical;
      SnapshotView view =
          GetAsOfConsistent(object_id, key, snapshot_ts, tree, &physical);
      const std::optional<std::string>& value =
          view.use_chain_value ? view.chain_value : physical;
      if (!value.has_value()) return Status::OK();
      return visit(key, *value, view.subtract);
    };
    // Merge the copy with the chained keys, which may include keys the copy
    // lacks (deleted after the snapshot).
    size_t c = 0;
    for (size_t i = 0; i < copy.size(); i++) {
      const Slice key = copy.key(i);
      for (; c < chained.size() && Slice(chained[c]) < key; c++) {
        IVDB_RETURN_NOT_OK(resolve(chained[c]));
      }
      if (c < chained.size() && Slice(chained[c]) == key) {
        IVDB_RETURN_NOT_OK(resolve(chained[c++]));
      } else {
        IVDB_RETURN_NOT_OK(visit(key, copy.value(i), kNoDeltas));
      }
    }
    for (; c < chained.size(); c++) IVDB_RETURN_NOT_OK(resolve(chained[c]));
    if (last_chunk) return Status::OK();
    cursor = std::move(next_cursor);
  }
}

uint64_t VersionStore::GarbageCollect(uint64_t oldest_active_ts,
                                      uint64_t retire_stamp,
                                      ChainLengthStats* stats) {
  // Unlink-only pass: dead versions move out of the chains (under their
  // stripe, so no reader mid-lookup can resolve to one) into a retire batch
  // the epoch reclaimer frees once every reader pinned at or below
  // retire_stamp has left (AdvanceReclamation). Keeping destruction out of
  // the stripes is the point — a GC pass costs readers only the unlink.
  uint64_t unlinked = 0;
  auto batch = std::make_shared<RetiredVersions>();
  std::vector<uint64_t> lengths;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (auto it = stripe->chains.begin(); it != stripe->chains.end();) {
      Chain& chain = it->second;
      auto live_value = [&](const ValueVersion& v) {
        return v.superseded_ts == 0 || v.superseded_ts > oldest_active_ts;
      };
      auto live_delta = [&](const DeltaVersion& d) {
        return d.commit_ts == 0 || d.commit_ts > oldest_active_ts;
      };
      size_t before = chain.values.size() + chain.deltas.size();
      auto v_it = std::stable_partition(chain.values.begin(),
                                        chain.values.end(), live_value);
      std::move(v_it, chain.values.end(), std::back_inserter(batch->values));
      chain.values.erase(v_it, chain.values.end());
      auto d_it = std::stable_partition(chain.deltas.begin(),
                                        chain.deltas.end(), live_delta);
      std::move(d_it, chain.deltas.end(), std::back_inserter(batch->deltas));
      chain.deltas.erase(d_it, chain.deltas.end());
      size_t after = chain.values.size() + chain.deltas.size();
      unlinked += before - after;
      if (after == 0) {
        it = stripe->chains.erase(it);
      } else {
        if (stats != nullptr) lengths.push_back(after);
        ++it;
      }
    }
  }
  if (unlinked > 0) {
    reclaimer_.Retire(retire_stamp, unlinked, std::move(batch));
  }
  if (stats != nullptr) {
    *stats = ChainLengthStats{};
    stats->chain_count = lengths.size();
    if (!lengths.empty()) {
      std::sort(lengths.begin(), lengths.end());
      stats->max_len = lengths.back();
      stats->p99_len = lengths[static_cast<size_t>(
          static_cast<double>(lengths.size() - 1) * 0.99)];
    }
  }
  return unlinked;
}

uint64_t VersionStore::TotalEntries() const {
  uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (const auto& [ck, chain] : stripe->chains) {
      n += chain.values.size() + chain.deltas.size();
    }
  }
  return n;
}

VersionStore::ChainLengthStats VersionStore::CollectChainLengthStats() const {
  std::vector<uint64_t> lengths;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (const auto& [ck, chain] : stripe->chains) {
      lengths.push_back(chain.values.size() + chain.deltas.size());
    }
  }
  ChainLengthStats stats;
  stats.chain_count = lengths.size();
  if (lengths.empty()) return stats;
  // Nearest-rank percentile; chains are visited stripe by stripe, so the
  // distribution is "as of no single instant" — fine for a gauge.
  std::sort(lengths.begin(), lengths.end());
  stats.max_len = lengths.back();
  stats.p99_len =
      lengths[static_cast<size_t>(static_cast<double>(lengths.size() - 1) *
                                  0.99)];
  return stats;
}

}  // namespace ivdb
