#ifndef IVDB_STORAGE_BTREE_H_
#define IVDB_STORAGE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ivdb {

// Leaf entries copied out of a BTree by ScanRange: keys and values back to
// back in one byte buffer, plus each entry's end offsets. The caller owns it
// and reuses it across copies, so a chunked scan allocates only while the
// buffer is still growing. key(i) and value(i) point into the buffer and
// are valid until its next copy or Clear.
class ScanBuffer {
 public:
  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  Slice key(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1].value;
    return Slice(bytes_.data() + begin, ends_[i].key - begin);
  }
  Slice value(size_t i) const {
    return Slice(bytes_.data() + ends_[i].key, ends_[i].value - ends_[i].key);
  }

  void Clear() {
    bytes_.clear();
    ends_.clear();
  }
  void Append(const Slice& key, const Slice& value) {
    bytes_.append(key.data(), key.size());
    const size_t key_end = bytes_.size();
    bytes_.append(value.data(), value.size());
    ends_.push_back({key_end, bytes_.size()});
  }

 private:
  struct End {
    size_t key;    // one past the entry's key
    size_t value;  // one past the entry's value
  };
  std::string bytes_;
  std::vector<End> ends_;
};

// In-memory B+-tree mapping binary keys to binary values. Keys compare
// bytewise, so callers store order-preserving encodings (see
// common/coding.h). Used for base-table primary indexes and view indexes.
//
// Concurrency: one reader-writer latch per tree. Readers (Get/ScanRange/
// Serialize) share; mutators are exclusive. Transaction-level isolation is
// the lock manager's job — the tree latch only protects physical structure,
// and is held for the duration of a single operation (the classic
// latch-vs-lock split; fine-grained latch crabbing is an orthogonal
// optimization this reproduction does not need). A range read holds it
// only to copy at most one chunk of entries, and runs no caller code under
// it.
//
// Deletion rebalances: an underfull node first borrows from an adjacent
// sibling, else merges with it, so every non-root node stays at least half
// full (kMinEntries) and lookups remain logarithmic under any delete
// pattern.
class BTree {
 public:
  // Fan-out of 64 keeps trees shallow while making splits and merges
  // frequent enough to be exercised by unit tests.
  static constexpr size_t kMaxEntries = 64;
  static constexpr size_t kMinEntries = kMaxEntries / 2;
  // Entries a chunked range read (ScanChunks, VersionStore::SnapshotScan)
  // copies under one hold of the shared latch.
  static constexpr size_t kScanChunk = 256;

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Put(const Slice& key, const Slice& value);

  // Inserts only if absent; returns false (and changes nothing) if present.
  bool Insert(const Slice& key, const Slice& value);

  // Overwrites only if present; returns false if absent.
  bool Update(const Slice& key, const Slice& value);

  // Removes the key; returns false if absent.
  bool Delete(const Slice& key);

  bool Get(const Slice& key, std::string* value) const;
  bool Contains(const Slice& key) const;

  // Smallest key strictly greater than `key` (next-key locking probes).
  std::optional<std::string> Successor(const Slice& key) const;

  // Atomically mutates the value of an existing key under the tree's
  // exclusive latch (read-modify-write safe against concurrent modifiers —
  // required for escrow increments, where several transactions update one
  // aggregate row "simultaneously"). Returns false if the key is absent.
  bool ModifyInPlace(const Slice& key,
                     const std::function<void(std::string* value)>& fn);

  // Replaces the contents of *out with the first `limit` entries in
  // [begin, end), copied under one hold of the shared latch. A reused *out
  // allocates under the latch only while it is still growing.
  void ScanRange(const Slice& begin, const Slice* end, size_t limit,
                 ScanBuffer* out) const;

  // Walks [begin, end) in ScanRange copies of kScanChunk entries through one
  // buffer, calling `visit` on each copy with no latch held. Each chunk is
  // copied at its own instant, so the walk reads one consistent state only
  // while the caller keeps the range still (a quiescent section, held
  // locks) or accepts a dirty read. A non-OK status from `visit` stops the
  // walk and is returned.
  Status ScanChunks(const Slice& begin, const Slice* end,
                    const std::function<Status(const ScanBuffer& chunk)>&
                        visit) const;

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  void Clear();

  // Checkpoint support: ordered dump / bulk reload of all entries.
  // DeserializeFrom replaces the contents, building the tree bottom-up from
  // the ascending entries (leaves and internal nodes filled evenly). Keys
  // that are not strictly ascending, or a truncated payload, return
  // Corruption and leave the tree empty.
  void SerializeTo(std::string* dst) const;
  Status DeserializeFrom(Slice* input);

  // Verifies structural invariants (ordering, uniform depth, separator
  // correctness, leaf-chain completeness). Used by tests.
  Status Validate() const;

  // Height of the tree (1 = just a leaf). For tests/benchmarks.
  int Depth() const;

 private:
  struct Node;

  Node* FindLeaf(const Slice& key) const IVDB_REQUIRES_SHARED(latch_);
  // Returns (separator, new right sibling) when the child split.
  struct SplitResult {
    std::string separator;
    std::unique_ptr<Node> right;
  };
  std::optional<SplitResult> InsertRec(Node* node, const Slice& key,
                                       const Slice& value, bool overwrite,
                                       bool* inserted, bool* updated)
      IVDB_REQUIRES(latch_);
  // Returns true if `node` is underfull after the delete; the parent then
  // rebalances it against a sibling (borrow or merge).
  bool DeleteRec(Node* node, const Slice& key, bool* deleted)
      IVDB_REQUIRES(latch_);
  void RebalanceChild(Node* parent, size_t idx) IVDB_REQUIRES(latch_);
  Status ValidateRec(const Node* node, int depth, int leaf_depth,
                     const std::string* lower, const std::string* upper) const
      IVDB_REQUIRES_SHARED(latch_);

  // Physical-structure latch, rank 45: snapshot reads probe the tree while
  // holding the version-store mutex (40); the latch itself never wraps a
  // call out of the tree.
  mutable RankedSharedMutex latch_{LockRank::kBtreeLatch, "latch_"};
  std::unique_ptr<Node> root_ IVDB_GUARDED_BY(latch_);
  Node* first_leaf_ IVDB_GUARDED_BY(latch_) = nullptr;
  std::atomic<uint64_t> size_{0};
};

}  // namespace ivdb

#endif  // IVDB_STORAGE_BTREE_H_
