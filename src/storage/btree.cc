#include "storage/btree.h"

#include <algorithm>
#include <mutex>

#include "common/coding.h"
#include "common/logging.h"

namespace ivdb {

struct BTree::Node {
  explicit Node(bool is_leaf) : leaf(is_leaf) {}

  bool leaf;
  std::vector<std::string> keys;  // leaf: entry keys; internal: separators
  std::vector<std::string> values;                // leaf only
  std::vector<std::unique_ptr<Node>> children;    // internal: keys.size()+1
  Node* next = nullptr;  // leaf chain
  Node* prev = nullptr;
};

namespace {

// Index of the child subtree that may contain `key`: the number of
// separators <= key (separator = smallest key of the subtree to its right).
size_t ChildIndex(const std::vector<std::string>& separators,
                  const Slice& key) {
  auto it = std::upper_bound(
      separators.begin(), separators.end(), key.view(),
      [](std::string_view a, const std::string& b) { return a < b; });
  return static_cast<size_t>(it - separators.begin());
}

// Position of the first entry >= key in a leaf.
size_t LeafLowerBound(const std::vector<std::string>& keys, const Slice& key) {
  auto it = std::lower_bound(
      keys.begin(), keys.end(), key.view(),
      [](const std::string& a, std::string_view b) { return a < b; });
  return static_cast<size_t>(it - keys.begin());
}

}  // namespace

BTree::BTree() {
  root_ = std::make_unique<Node>(/*is_leaf=*/true);
  first_leaf_ = root_.get();
}

BTree::~BTree() = default;

BTree::Node* BTree::FindLeaf(const Slice& key) const {
  Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  return node;
}

std::optional<BTree::SplitResult> BTree::InsertRec(Node* node,
                                                   const Slice& key,
                                                   const Slice& value,
                                                   bool overwrite,
                                                   bool* inserted,
                                                   bool* updated) {
  if (node->leaf) {
    size_t pos = LeafLowerBound(node->keys, key);
    if (pos < node->keys.size() && node->keys[pos] == key.view()) {
      if (overwrite) {
        node->values[pos] = value.ToString();
        *updated = true;
      }
      return std::nullopt;
    }
    node->keys.insert(node->keys.begin() + pos, key.ToString());
    node->values.insert(node->values.begin() + pos, value.ToString());
    *inserted = true;
    if (node->keys.size() <= kMaxEntries) return std::nullopt;

    size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>(/*is_leaf=*/true);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                       std::make_move_iterator(node->keys.end()));
    right->values.assign(std::make_move_iterator(node->values.begin() + mid),
                         std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    right->prev = node;
    if (node->next != nullptr) node->next->prev = right.get();
    node->next = right.get();
    SplitResult result;
    result.separator = right->keys.front();
    result.right = std::move(right);
    return result;
  }

  size_t idx = ChildIndex(node->keys, key);
  auto child_split = InsertRec(node->children[idx].get(), key, value,
                               overwrite, inserted, updated);
  if (!child_split.has_value()) return std::nullopt;
  node->keys.insert(node->keys.begin() + idx,
                    std::move(child_split->separator));
  node->children.insert(node->children.begin() + idx + 1,
                        std::move(child_split->right));
  if (node->keys.size() <= kMaxEntries) return std::nullopt;

  size_t mid = node->keys.size() / 2;
  auto right = std::make_unique<Node>(/*is_leaf=*/false);
  SplitResult result;
  result.separator = std::move(node->keys[mid]);
  right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                     std::make_move_iterator(node->keys.end()));
  right->children.assign(
      std::make_move_iterator(node->children.begin() + mid + 1),
      std::make_move_iterator(node->children.end()));
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  result.right = std::move(right);
  return result;
}

bool BTree::Put(const Slice& key, const Slice& value) {
  WriterMutexLock latch(&latch_);
  bool inserted = false, updated = false;
  auto split = InsertRec(root_.get(), key, value, /*overwrite=*/true,
                         &inserted, &updated);
  if (split.has_value()) {
    auto new_root = std::make_unique<Node>(/*is_leaf=*/false);
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool BTree::Insert(const Slice& key, const Slice& value) {
  WriterMutexLock latch(&latch_);
  bool inserted = false, updated = false;
  auto split = InsertRec(root_.get(), key, value, /*overwrite=*/false,
                         &inserted, &updated);
  if (split.has_value()) {
    auto new_root = std::make_unique<Node>(/*is_leaf=*/false);
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool BTree::Update(const Slice& key, const Slice& value) {
  WriterMutexLock latch(&latch_);
  Node* leaf = FindLeaf(key);
  size_t pos = LeafLowerBound(leaf->keys, key);
  if (pos >= leaf->keys.size() || leaf->keys[pos] != key.view()) return false;
  leaf->values[pos] = value.ToString();
  return true;
}

void BTree::RebalanceChild(Node* parent, size_t idx) {
  Node* child = parent->children[idx].get();
  Node* left = idx > 0 ? parent->children[idx - 1].get() : nullptr;
  Node* right =
      idx + 1 < parent->children.size() ? parent->children[idx + 1].get()
                                        : nullptr;

  if (child->leaf) {
    if (left != nullptr && left->keys.size() > kMinEntries) {
      // Borrow the left sibling's last entry.
      child->keys.insert(child->keys.begin(), std::move(left->keys.back()));
      child->values.insert(child->values.begin(),
                           std::move(left->values.back()));
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[idx - 1] = child->keys.front();
      return;
    }
    if (right != nullptr && right->keys.size() > kMinEntries) {
      // Borrow the right sibling's first entry.
      child->keys.push_back(std::move(right->keys.front()));
      child->values.push_back(std::move(right->values.front()));
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[idx] = right->keys.front();
      return;
    }
    // Merge with a sibling (absorb the right member of the pair into the
    // left so the leaf chain stays forward-linked).
    size_t left_idx = left != nullptr ? idx - 1 : idx;
    Node* into = parent->children[left_idx].get();
    Node* from = parent->children[left_idx + 1].get();
    for (size_t i = 0; i < from->keys.size(); i++) {
      into->keys.push_back(std::move(from->keys[i]));
      into->values.push_back(std::move(from->values[i]));
    }
    into->next = from->next;
    if (from->next != nullptr) from->next->prev = into;
    parent->keys.erase(parent->keys.begin() + left_idx);
    parent->children.erase(parent->children.begin() + left_idx + 1);
    return;
  }

  // Internal child.
  if (left != nullptr && left->children.size() > kMinEntries) {
    // Rotate through the parent separator.
    child->keys.insert(child->keys.begin(),
                       std::move(parent->keys[idx - 1]));
    parent->keys[idx - 1] = std::move(left->keys.back());
    left->keys.pop_back();
    child->children.insert(child->children.begin(),
                           std::move(left->children.back()));
    left->children.pop_back();
    return;
  }
  if (right != nullptr && right->children.size() > kMinEntries) {
    child->keys.push_back(std::move(parent->keys[idx]));
    parent->keys[idx] = std::move(right->keys.front());
    right->keys.erase(right->keys.begin());
    child->children.push_back(std::move(right->children.front()));
    right->children.erase(right->children.begin());
    return;
  }
  // Merge internal siblings around the parent separator.
  size_t left_idx = left != nullptr ? idx - 1 : idx;
  Node* into = parent->children[left_idx].get();
  Node* from = parent->children[left_idx + 1].get();
  into->keys.push_back(std::move(parent->keys[left_idx]));
  for (auto& k : from->keys) into->keys.push_back(std::move(k));
  for (auto& c : from->children) into->children.push_back(std::move(c));
  parent->keys.erase(parent->keys.begin() + left_idx);
  parent->children.erase(parent->children.begin() + left_idx + 1);
}

bool BTree::DeleteRec(Node* node, const Slice& key, bool* deleted) {
  if (node->leaf) {
    size_t pos = LeafLowerBound(node->keys, key);
    if (pos >= node->keys.size() || node->keys[pos] != key.view()) {
      *deleted = false;
      return false;
    }
    node->keys.erase(node->keys.begin() + pos);
    node->values.erase(node->values.begin() + pos);
    *deleted = true;
    return node->keys.size() < kMinEntries;
  }
  size_t idx = ChildIndex(node->keys, key);
  bool child_underfull = DeleteRec(node->children[idx].get(), key, deleted);
  if (child_underfull && node->children.size() > 1) {
    RebalanceChild(node, idx);
  }
  return node->children.size() < kMinEntries;
}

bool BTree::Delete(const Slice& key) {
  WriterMutexLock latch(&latch_);
  bool deleted = false;
  DeleteRec(root_.get(), key, &deleted);
  // Collapse degenerate roots: an internal root with a single child (and no
  // separators) can be replaced by that child.
  while (!root_->leaf && root_->children.size() == 1 && root_->keys.empty()) {
    root_ = std::move(root_->children.front());
  }
  if (!root_->leaf && root_->children.empty()) {
    root_ = std::make_unique<Node>(/*is_leaf=*/true);
    first_leaf_ = root_.get();
  }
  if (root_->leaf && root_->keys.empty()) {
    first_leaf_ = root_.get();
    root_->next = nullptr;
    root_->prev = nullptr;
  }
  if (deleted) size_.fetch_sub(1, std::memory_order_relaxed);
  return deleted;
}

bool BTree::ModifyInPlace(const Slice& key,
                          const std::function<void(std::string*)>& fn) {
  WriterMutexLock latch(&latch_);
  Node* leaf = FindLeaf(key);
  size_t pos = LeafLowerBound(leaf->keys, key);
  if (pos >= leaf->keys.size() || leaf->keys[pos] != key.view()) return false;
  fn(&leaf->values[pos]);
  return true;
}

bool BTree::Get(const Slice& key, std::string* value) const {
  ReaderMutexLock latch(&latch_);
  Node* leaf = FindLeaf(key);
  size_t pos = LeafLowerBound(leaf->keys, key);
  if (pos >= leaf->keys.size() || leaf->keys[pos] != key.view()) return false;
  if (value != nullptr) *value = leaf->values[pos];
  return true;
}

bool BTree::Contains(const Slice& key) const { return Get(key, nullptr); }

std::optional<std::string> BTree::Successor(const Slice& key) const {
  ReaderMutexLock latch(&latch_);
  const Node* leaf = FindLeaf(key);
  size_t pos = LeafLowerBound(leaf->keys, key);
  if (pos < leaf->keys.size() && leaf->keys[pos] == key.view()) pos++;
  while (leaf != nullptr) {
    if (pos < leaf->keys.size()) return leaf->keys[pos];
    leaf = leaf->next;
    pos = 0;
  }
  return std::nullopt;
}

void BTree::ScanRange(const Slice& begin, const Slice* end, size_t limit,
                      ScanBuffer* out) const {
  out->Clear();
  ReaderMutexLock latch(&latch_);
  const Node* leaf = FindLeaf(begin);
  size_t pos = LeafLowerBound(leaf->keys, begin);
  while (leaf != nullptr) {
    for (; pos < leaf->keys.size(); pos++) {
      if (out->size() == limit) return;
      const std::string& k = leaf->keys[pos];
      if (end != nullptr && !(Slice(k) < *end)) return;
      out->Append(k, leaf->values[pos]);
    }
    leaf = leaf->next;
    pos = 0;
  }
}

Status BTree::ScanChunks(
    const Slice& begin, const Slice* end,
    const std::function<Status(const ScanBuffer&)>& visit) const {
  ScanBuffer chunk;
  std::string cursor = begin.ToString();
  while (true) {
    ScanRange(cursor, end, kScanChunk, &chunk);
    if (!chunk.empty()) IVDB_RETURN_NOT_OK(visit(chunk));
    if (chunk.size() < kScanChunk) return Status::OK();
    // The next chunk starts just past this one's last key.
    const Slice last = chunk.key(chunk.size() - 1);
    cursor.assign(last.data(), last.size());
    cursor.push_back('\0');
  }
}

void BTree::Clear() {
  WriterMutexLock latch(&latch_);
  root_ = std::make_unique<Node>(/*is_leaf=*/true);
  first_leaf_ = root_.get();
  size_.store(0, std::memory_order_relaxed);
}

void BTree::SerializeTo(std::string* dst) const {
  ReaderMutexLock latch(&latch_);
  PutVarint64(dst, size_.load(std::memory_order_relaxed));
  for (const Node* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
    for (size_t i = 0; i < leaf->keys.size(); i++) {
      PutLengthPrefixed(dst, leaf->keys[i]);
      PutLengthPrefixed(dst, leaf->values[i]);
    }
  }
}

Status BTree::DeserializeFrom(Slice* input) {
  Clear();
  uint64_t count = 0;
  if (!GetVarint64(input, &count)) {
    return Status::Corruption("btree snapshot header");
  }
  if (count == 0) return Status::OK();
  // Every entry takes at least two bytes (two length prefixes), which also
  // bounds the allocations below for a corrupt count.
  if (count > input->size() / 2) {
    return Status::Corruption("btree snapshot entry truncated");
  }

  // Bottom-up build: SerializeTo emits entries in key order, so they fill
  // leaves left to right. The fewest leaves that hold `count` entries,
  // filled evenly, each hold kMinEntries..kMaxEntries (a lone leaf is the
  // root and may hold fewer). Nothing is installed until every entry has
  // parsed, so a failure leaves the tree empty.
  const size_t n = static_cast<size_t>(count);
  const size_t leaf_count = (n + kMaxEntries - 1) / kMaxEntries;
  std::vector<std::unique_ptr<Node>> level;
  level.reserve(leaf_count);
  const std::string* prev_key = nullptr;
  Node* prev_leaf = nullptr;
  for (size_t l = 0; l < leaf_count; l++) {
    const size_t take = n / leaf_count + (l < n % leaf_count ? 1 : 0);
    auto leaf = std::make_unique<Node>(/*is_leaf=*/true);
    leaf->keys.resize(take);
    leaf->values.resize(take);
    for (size_t i = 0; i < take; i++) {
      if (!GetLengthPrefixed(input, &leaf->keys[i]) ||
          !GetLengthPrefixed(input, &leaf->values[i])) {
        return Status::Corruption("btree snapshot entry truncated");
      }
      if (prev_key != nullptr && !(*prev_key < leaf->keys[i])) {
        return Status::Corruption("btree snapshot keys not strictly ascending");
      }
      prev_key = &leaf->keys[i];
    }
    leaf->prev = prev_leaf;
    if (prev_leaf != nullptr) prev_leaf->next = leaf.get();
    prev_leaf = leaf.get();
    level.push_back(std::move(leaf));
  }
  Node* first_leaf = level.front().get();

  // Internal levels the same way: the fewest nodes of at most
  // kMaxEntries + 1 children, filled evenly, until one root remains. A
  // separator is the smallest key of the subtree to its right.
  while (level.size() > 1) {
    constexpr size_t kMaxChildren = kMaxEntries + 1;
    const size_t parent_count =
        (level.size() + kMaxChildren - 1) / kMaxChildren;
    std::vector<std::unique_ptr<Node>> parents;
    parents.reserve(parent_count);
    size_t next = 0;
    for (size_t p = 0; p < parent_count; p++) {
      const size_t take = level.size() / parent_count +
                          (p < level.size() % parent_count ? 1 : 0);
      auto parent = std::make_unique<Node>(/*is_leaf=*/false);
      parent->keys.reserve(take - 1);
      parent->children.reserve(take);
      for (size_t i = 0; i < take; i++, next++) {
        if (i > 0) {
          const Node* leftmost = level[next].get();
          while (!leftmost->leaf) leftmost = leftmost->children.front().get();
          parent->keys.push_back(leftmost->keys.front());
        }
        parent->children.push_back(std::move(level[next]));
      }
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }

  WriterMutexLock latch(&latch_);
  root_ = std::move(level.front());
  first_leaf_ = first_leaf;
  size_.store(count, std::memory_order_relaxed);
  return Status::OK();
}

int BTree::Depth() const {
  ReaderMutexLock latch(&latch_);
  int depth = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    depth++;
  }
  return depth;
}

Status BTree::ValidateRec(const Node* node, int depth, int leaf_depth,
                          const std::string* lower,
                          const std::string* upper) const {
  // Keys strictly ascending within the node.
  for (size_t i = 1; i < node->keys.size(); i++) {
    if (!(node->keys[i - 1] < node->keys[i])) {
      return Status::Corruption("keys out of order within node");
    }
  }
  for (const std::string& k : node->keys) {
    if (lower != nullptr && k < *lower) {
      return Status::Corruption("key below subtree lower bound");
    }
    if (upper != nullptr && !(k < *upper)) {
      return Status::Corruption("key at or above subtree upper bound");
    }
  }
  if (node->leaf) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaves at differing depths");
    }
    if (node->keys.size() != node->values.size()) {
      return Status::Corruption("leaf key/value count mismatch");
    }
    if (node != root_.get() && node->keys.size() < kMinEntries) {
      return Status::Corruption("underfull non-root leaf");
    }
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Corruption("internal child/separator count mismatch");
  }
  if (node != root_.get() && node->children.size() < kMinEntries) {
    return Status::Corruption("underfull non-root internal node");
  }
  if (node == root_.get() && node->children.size() < 2) {
    return Status::Corruption("internal root with fewer than 2 children");
  }
  for (size_t i = 0; i < node->children.size(); i++) {
    const std::string* child_lower = (i == 0) ? lower : &node->keys[i - 1];
    const std::string* child_upper =
        (i == node->keys.size()) ? upper : &node->keys[i];
    IVDB_RETURN_NOT_OK(ValidateRec(node->children[i].get(), depth + 1,
                                   leaf_depth, child_lower, child_upper));
  }
  return Status::OK();
}

Status BTree::Validate() const {
  ReaderMutexLock latch(&latch_);
  int leaf_depth = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    leaf_depth++;
  }
  IVDB_RETURN_NOT_OK(ValidateRec(root_.get(), 1, leaf_depth, nullptr, nullptr));

  // Leaf chain covers exactly size() entries, globally sorted, and starts at
  // the leftmost leaf.
  if (node != first_leaf_) {
    return Status::Corruption("first_leaf does not match leftmost leaf");
  }
  uint64_t count = 0;
  const std::string* prev = nullptr;
  for (const Node* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
    if (leaf->next != nullptr && leaf->next->prev != leaf) {
      return Status::Corruption("leaf chain prev/next mismatch");
    }
    for (const std::string& k : leaf->keys) {
      if (prev != nullptr && !(*prev < k)) {
        return Status::Corruption("leaf chain out of order");
      }
      prev = &k;
      count++;
    }
  }
  if (count != size()) {
    return Status::Corruption("leaf chain count != size()");
  }
  return Status::OK();
}

}  // namespace ivdb
