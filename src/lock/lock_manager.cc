#include "lock/lock_manager.h"

#include <algorithm>
#include <functional>

#include "common/lock_order.h"
#include "common/logging.h"

namespace ivdb {

namespace {

// Default stripe count. Sixteen independent cache-line-aligned buckets is
// enough that a committer fleet hashing random keys almost never collides,
// while keeping the fixed footprint trivial.
constexpr size_t kDefaultLockStripes = 16;

}  // namespace

LockManagerMetrics::LockManagerMetrics(obs::MetricsRegistry* registry)
    : acquisitions(registry->GetCounter("ivdb_lock_acquisitions_total")),
      immediate_grants(
          registry->GetCounter("ivdb_lock_immediate_grants_total")),
      waits(registry->GetCounter("ivdb_lock_waits_total")),
      deadlocks(registry->GetCounter("ivdb_lock_deadlocks_total")),
      timeouts(registry->GetCounter("ivdb_lock_timeouts_total")),
      conversions(registry->GetCounter("ivdb_lock_conversions_total")),
      wait_micros(registry->GetCounter("ivdb_lock_wait_micros_total")),
      escalations(registry->GetCounter("ivdb_lock_escalations_total")),
      covered_by_object_lock(
          registry->GetCounter("ivdb_lock_covered_by_object_lock_total")),
      wait_latency(registry->GetHistogram("ivdb_lock_wait_micros")) {}

LockManager::LockManager(Options options)
    : options_(options),
      owned_registry_(options.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_registry_.get()),
      clock_(options.clock != nullptr ? options.clock : Clock::Default()) {
  const size_t n =
      options_.stripes != 0 ? options_.stripes : kDefaultLockStripes;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::string ResourceId::ToString() const {
  std::string out = "obj" + std::to_string(object_id);
  if (!key.empty()) {
    out += "/key(";
    for (char c : key) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
      out += buf;
    }
    out += ")";
  }
  return out;
}

LockManager::Stripe& LockManager::StripeFor(const ResourceId& res) const {
  size_t h = std::hash<uint32_t>{}(res.object_id);
  h ^= std::hash<std::string>{}(res.key) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return *stripes_[h % stripes_.size()];
}

Status LockManager::Lock(TxnId txn, const ResourceId& res, LockMode mode) {
  return LockInternal(txn, res, mode, /*wait=*/true);
}

Status LockManager::TryLock(TxnId txn, const ResourceId& res, LockMode mode) {
  return LockInternal(txn, res, mode, /*wait=*/false);
}

bool LockManager::CanGrant(const Stripe& stripe, const LockQueue& queue,
                           const LockRequest& req) const {
  (void)stripe;
  bool is_conversion = req.converting_from != LockMode::kNL;
  for (const LockRequest& other : queue.requests) {
    if (&other == &req) {
      // Fresh requests queue FIFO: anything after our own position arrived
      // later and cannot block us. Conversions keep scanning — they must be
      // compatible with *every* other holder regardless of position.
      if (!is_conversion) break;
      continue;
    }
    // A waiting conversion still *holds* its original mode; its target mode
    // is not held yet. Granted requests hold `mode`.
    LockMode held =
        other.granted ? other.mode : other.converting_from;
    if (held != LockMode::kNL) {
      if (!LockModesCompatible(req.mode, held)) return false;
    }
    if (!other.granted && !is_conversion) {
      // Strict FIFO among fresh waiters: do not overtake an earlier waiter.
      // (Conversions may overtake: they already hold a lock here, and making
      // them queue behind fresh waiters would turn every upgrade into a
      // deadlock with the waiter.)
      return false;
    }
  }
  return true;
}

void LockManager::RollbackRequest(const Stripe& stripe, const ResourceId& res,
                                  LockQueue* queue,
                                  std::list<LockRequest>::iterator request,
                                  bool is_conversion, LockMode restore_mode) {
  if (is_conversion) {
    // If the conversion was granted in a window where the stripe was
    // unlocked (deadlock verdict racing a grant), this simply downgrades
    // back — semantically the conversion never happened.
    request->mode = restore_mode;
    request->converting_from = LockMode::kNL;
    request->granted = true;
  } else {
    queue->requests.erase(request);
  }
  GrantWaiters(stripe, res, queue);
}

Status LockManager::LockInternal(TxnId txn, const ResourceId& res,
                                 LockMode mode, bool wait) {
  metrics_.acquisitions->Add();

  // Coarse-lock coverage: a key request already implied by a held
  // object-level lock (e.g. after escalation) is granted without creating
  // a key-level request at all. The object lives in another stripe, so
  // this is its own earlier critical section; the mode read is stable
  // because only this transaction (serialized by its engine owner latch)
  // ever changes its own object-level holds.
  if (!res.IsObjectLevel()) {
    const ResourceId object_res = ResourceId::Object(res.object_id);
    Stripe& object_stripe = StripeFor(object_res);
    LockMode object_mode;
    {
      MutexLock object_guard(&object_stripe.lock_stripe_mu_);
      object_mode = HeldModeLocked(object_stripe, txn, object_res);
    }
    if (object_mode != LockMode::kNL && LockModeCovers(object_mode, mode)) {
      metrics_.covered_by_object_lock->Add();
      metrics_.immediate_grants->Add();
      return Status::OK();
    }
  }

  Stripe& stripe = StripeFor(res);
  UniqueMutexLock guard(&stripe.lock_stripe_mu_);

  auto& queue_ptr = stripe.queues[res];
  if (queue_ptr == nullptr) queue_ptr = std::make_unique<LockQueue>();
  LockQueue* queue = queue_ptr.get();

  // Locate an existing request by this transaction.
  auto it = std::find_if(queue->requests.begin(), queue->requests.end(),
                         [txn](const LockRequest& r) { return r.txn == txn; });

  bool is_conversion = false;
  bool fresh_request = false;
  LockMode restore_mode = LockMode::kNL;
  if (it != queue->requests.end()) {
    IVDB_CHECK_MSG(it->granted, "transaction already waiting on this lock");
    if (LockModeCovers(it->mode, mode)) {
      metrics_.immediate_grants->Add();
      return Status::OK();  // already strong enough
    }
    // Lock conversion: keep position (within the granted region), switch to
    // the supremum mode, and wait until compatible with all other holders.
    is_conversion = true;
    restore_mode = it->mode;
    it->converting_from = it->mode;
    it->mode = LockModeSupremum(it->mode, mode);
    it->granted = false;
    metrics_.conversions->Add();
  } else {
    queue->requests.push_back(LockRequest{txn, mode, LockMode::kNL, false});
    it = std::prev(queue->requests.end());
    fresh_request = true;
  }

  if (CanGrant(stripe, *queue, *it)) {
    it->granted = true;
    it->converting_from = LockMode::kNL;
    metrics_.immediate_grants->Add();
    guard.Unlock();
    FinishGrant(txn, res, fresh_request, is_conversion);
    return Status::OK();
  }

  if (!wait) {
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
    return Status::Busy("lock not immediately available: " + res.ToString());
  }

  // The request is queued; release the stripe before touching the graph
  // (stripes rank above graph_mu_, never the reverse). The queue entry —
  // and therefore `queue` and `it` — stay valid while unlocked: only this
  // transaction may erase its own request, and a queue with requests in it
  // is never reclaimed.
  guard.Unlock();

  // The wait opens before the deadlock probe, so a victim's lock_wait span
  // still shows what it was about to wait on when the detector chose it.
  // Wait accounting goes through the Clock seam (virtual time in tests);
  // the condition-variable deadline below necessarily stays on real time.
  const uint64_t wait_start = clock_->NowMicros();

  // Publish the wait edge and probe for a cycle in ONE graph_mu_ critical
  // section: every edge is published before its owner's DFS runs, so the
  // last transaction to close a cycle is guaranteed to observe the whole
  // cycle and elect itself the victim.
  bool deadlock = false;
  if (options_.detect_deadlocks) {
    MutexLock graph_guard(&graph_mu_);
    waiting_on_[txn] = res;
    if (WouldDeadlockLocked(txn)) {
      waiting_on_.erase(txn);
      deadlock = true;
    }
  } else {
    MutexLock graph_guard(&graph_mu_);
    waiting_on_[txn] = res;
  }
  if (deadlock) {
    guard.Lock();
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
    guard.Unlock();
    metrics_.deadlocks->Add();
    const uint64_t now = clock_->NowMicros();
    EmitFlight(obs::FlightEventType::kLockWait, wait_start, now - wait_start,
               txn, res.object_id);
    EmitFlight(obs::FlightEventType::kLockDeadlock, now, 0, txn,
               res.object_id);
    return Status::Deadlock(std::string("deadlock acquiring ") +
                            LockModeName(mode) + " on " + res.ToString());
  }

  metrics_.waits->Add();
  const auto deadline =
      std::chrono::steady_clock::now() + options_.wait_timeout;
  bool granted = false;
  guard.Lock();
  while (true) {
    if (it->granted) {
      // Possibly granted while the stripe was unlocked around the deadlock
      // probe — the predicate check before the first wait catches it.
      granted = true;
      break;
    }
    if (queue->cv.WaitUntil(&guard, deadline) == std::cv_status::timeout) {
      // Re-check once under the lock: the grant may have raced the timeout.
      granted = it->granted;
      break;
    }
  }
  if (!granted) {
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
  }
  guard.Unlock();
  {
    MutexLock graph_guard(&graph_mu_);
    waiting_on_.erase(txn);
  }
  const uint64_t waited = clock_->NowMicros() - wait_start;
  metrics_.wait_micros->Add(waited);
  metrics_.wait_latency->Record(waited);
  EmitFlight(obs::FlightEventType::kLockWait, wait_start, waited, txn,
             res.object_id);
  if (granted) {
    FinishGrant(txn, res, fresh_request, is_conversion);
    return Status::OK();
  }
  metrics_.timeouts->Add();
  EmitFlight(obs::FlightEventType::kLockTimeout, wait_start + waited, 0, txn,
             res.object_id);
  return Status::TimedOut("lock wait timeout on " + res.ToString());
}

void LockManager::FinishGrant(TxnId txn, const ResourceId& res,
                              bool fresh_request, bool is_conversion) {
  // Runs after the stripe is released: a transaction's own bookkeeping is
  // stable under its engine owner latch, so nothing can observe the gap.
  MutexLock graph_guard(&graph_mu_);
  if (fresh_request) txn_locks_[txn].insert(res);
  if (is_conversion || res.IsObjectLevel()) return;
  size_t count = ++key_counts_[{txn, res.object_id}];
  if (options_.escalation_threshold > 0 &&
      count >= options_.escalation_threshold) {
    TryEscalateLocked(txn, res.object_id);
  }
}

void LockManager::GrantWaiters(const Stripe& stripe, const ResourceId& res,
                               LockQueue* queue) {
  (void)res;
  bool any_granted = false;
  bool fresh_blocked = false;
  for (LockRequest& req : queue->requests) {
    if (req.granted) continue;
    bool is_conversion = req.converting_from != LockMode::kNL;
    if (!is_conversion && fresh_blocked) continue;
    if (CanGrant(stripe, *queue, req)) {
      req.granted = true;
      req.converting_from = LockMode::kNL;
      any_granted = true;
    } else if (!is_conversion) {
      fresh_blocked = true;
    }
  }
  if (any_granted) queue->cv.NotifyAll();
}

std::vector<TxnId> LockManager::BlockersOfLocked(TxnId txn) const {
  std::vector<TxnId> blockers;
  auto wait_it = waiting_on_.find(txn);
  if (wait_it == waiting_on_.end()) return blockers;
  const ResourceId& res = wait_it->second;

  // Re-read live queue state under the resource's stripe (taken inside
  // graph_mu_, 28 -> 30, one stripe at a time). A stale wait edge — its
  // owner already granted — yields no blockers here.
  Stripe& stripe = StripeFor(res);
  MutexLock stripe_guard(&stripe.lock_stripe_mu_);
  auto queue_it = stripe.queues.find(res);
  if (queue_it == stripe.queues.end()) return blockers;
  const LockQueue& queue = *queue_it->second;

  auto self = std::find_if(queue.requests.begin(), queue.requests.end(),
                           [txn](const LockRequest& r) { return r.txn == txn; });
  if (self == queue.requests.end() || self->granted) return blockers;
  bool is_conversion = self->converting_from != LockMode::kNL;

  for (auto it = queue.requests.begin(); it != queue.requests.end(); ++it) {
    if (it->txn == txn) {
      if (!is_conversion && it == self) break;  // fresh: earlier reqs only
      continue;
    }
    LockMode held = it->granted ? it->mode : it->converting_from;
    if (held != LockMode::kNL && !LockModesCompatible(self->mode, held)) {
      blockers.push_back(it->txn);
    } else if (!it->granted && !is_conversion) {
      // An earlier fresh waiter blocks us through FIFO ordering.
      blockers.push_back(it->txn);
    }
  }
  return blockers;
}

bool LockManager::WouldDeadlockLocked(TxnId requester) const {
  // DFS over the waits-for graph looking for a cycle back to `requester`.
  std::vector<TxnId> stack = BlockersOfLocked(requester);
  std::set<TxnId> visited;
  while (!stack.empty()) {
    TxnId t = stack.back();
    stack.pop_back();
    if (t == requester) return true;
    if (!visited.insert(t).second) continue;
    for (TxnId b : BlockersOfLocked(t)) stack.push_back(b);
  }
  return false;
}

void LockManager::EraseRequest(Stripe& stripe, TxnId txn,
                               const ResourceId& res, LockQueue* queue) {
  queue->requests.remove_if(
      [txn](const LockRequest& r) { return r.txn == txn; });
  GrantWaiters(stripe, res, queue);
  if (queue->requests.empty()) stripe.queues.erase(res);
}

void LockManager::ReleaseAll(TxnId txn) {
  // Snapshot-and-clear the bookkeeping first (graph_mu_), then walk the
  // stripes one at a time. The set cannot change in between: only the
  // owning transaction adds entries, and it is not running — it is here.
  std::set<ResourceId> resources;
  {
    MutexLock graph_guard(&graph_mu_);
    auto it = txn_locks_.find(txn);
    if (it != txn_locks_.end()) {
      resources.swap(it->second);
      txn_locks_.erase(it);
    }
    waiting_on_.erase(txn);
    key_counts_.erase(key_counts_.lower_bound({txn, 0}),
                      key_counts_.upper_bound({txn, UINT32_MAX}));
  }
  for (const ResourceId& res : resources) {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it == stripe.queues.end()) continue;
    EraseRequest(stripe, txn, res, queue_it->second.get());
  }
}

void LockManager::Unlock(TxnId txn, const ResourceId& res) {
  {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it != stripe.queues.end()) {
      EraseRequest(stripe, txn, res, queue_it->second.get());
    }
  }
  MutexLock graph_guard(&graph_mu_);
  auto it = txn_locks_.find(txn);
  if (it != txn_locks_.end()) {
    it->second.erase(res);
    if (it->second.empty()) txn_locks_.erase(it);
  }
  if (!res.IsObjectLevel()) {
    auto count_it = key_counts_.find({txn, res.object_id});
    if (count_it != key_counts_.end() && count_it->second > 0) {
      count_it->second--;
    }
  }
}

LockMode LockManager::HeldModeLocked(const Stripe& stripe, TxnId txn,
                                     const ResourceId& res) const {
  auto queue_it = stripe.queues.find(res);
  if (queue_it == stripe.queues.end()) return LockMode::kNL;
  for (const LockRequest& r : queue_it->second->requests) {
    if (r.txn == txn) {
      if (r.granted) return r.mode;
      if (r.converting_from != LockMode::kNL) return r.converting_from;
      return LockMode::kNL;
    }
  }
  return LockMode::kNL;
}

LockMode LockManager::HeldMode(TxnId txn, const ResourceId& res) const {
  Stripe& stripe = StripeFor(res);
  MutexLock guard(&stripe.lock_stripe_mu_);
  return HeldModeLocked(stripe, txn, res);
}

void LockManager::TryEscalateLocked(TxnId txn, uint32_t object_id) {
  auto locks_it = txn_locks_.find(txn);
  if (locks_it == txn_locks_.end()) return;

  // Collect this txn's granted key locks on the object and derive the
  // escalation target: S when everything held is shared, X otherwise
  // (an object-level E would not license arbitrary key access). Each key's
  // stripe is taken one at a time under graph_mu_; the modes read are
  // stable because only this transaction changes its own holds.
  std::vector<ResourceId> key_locks;
  bool all_shared = true;
  for (auto it = locks_it->second.lower_bound(ResourceId::Object(object_id));
       it != locks_it->second.end() && it->object_id == object_id; ++it) {
    if (it->IsObjectLevel()) continue;
    LockMode held;
    {
      Stripe& stripe = StripeFor(*it);
      MutexLock stripe_guard(&stripe.lock_stripe_mu_);
      held = HeldModeLocked(stripe, txn, *it);
    }
    if (held == LockMode::kNL) return;  // a key wait is in flight: bail
    if (held != LockMode::kS && held != LockMode::kIS) all_shared = false;
    key_locks.push_back(*it);
  }
  if (key_locks.empty()) return;
  LockMode target = all_shared ? LockMode::kS : LockMode::kX;

  // Upgrade (or freshly take) the object-level lock, without waiting. The
  // object queue alone arbitrates this: every transaction touching keys of
  // the object holds an intention mode on the object, so a grant against
  // this one queue is a grant against all concurrent key activity — no
  // cross-stripe atomicity is needed.
  ResourceId object_res = ResourceId::Object(object_id);
  {
    Stripe& object_stripe = StripeFor(object_res);
    MutexLock object_guard(&object_stripe.lock_stripe_mu_);
    auto& queue_ptr = object_stripe.queues[object_res];
    if (queue_ptr == nullptr) queue_ptr = std::make_unique<LockQueue>();
    LockQueue* queue = queue_ptr.get();
    auto self =
        std::find_if(queue->requests.begin(), queue->requests.end(),
                     [txn](const LockRequest& r) { return r.txn == txn; });
    if (self != queue->requests.end()) {
      if (!self->granted) return;  // waiting on the object already: bail
      if (LockModeCovers(self->mode, target)) {
        // Already strong enough (repeat escalation attempt).
      } else {
        LockMode restore = self->mode;
        self->converting_from = self->mode;
        self->mode = LockModeSupremum(self->mode, target);
        self->granted = false;
        if (CanGrant(object_stripe, *queue, *self)) {
          self->granted = true;
          self->converting_from = LockMode::kNL;
        } else {
          self->mode = restore;
          self->converting_from = LockMode::kNL;
          self->granted = true;
          return;  // conflicting holders: try again at the next trigger
        }
      }
    } else {
      queue->requests.push_back(
          LockRequest{txn, target, LockMode::kNL, false});
      auto inserted = std::prev(queue->requests.end());
      if (CanGrant(object_stripe, *queue, *inserted)) {
        inserted->granted = true;
        txn_locks_[txn].insert(object_res);
      } else {
        queue->requests.erase(inserted);
        return;
      }
    }
  }

  // Escalated: the key locks are now redundant — drop them so the lock
  // table shrinks (the point of the exercise).
  for (const ResourceId& res : key_locks) {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it != stripe.queues.end()) {
      EraseRequest(stripe, txn, res, queue_it->second.get());
    }
    locks_it->second.erase(res);
  }
  key_counts_.erase({txn, object_id});
  metrics_.escalations->Add();
  EmitFlight(obs::FlightEventType::kLockEscalation, clock_->NowMicros(), 0,
             txn, object_id);
}

int LockManager::NumHolders(const ResourceId& res) const {
  Stripe& stripe = StripeFor(res);
  MutexLock guard(&stripe.lock_stripe_mu_);
  auto queue_it = stripe.queues.find(res);
  if (queue_it == stripe.queues.end()) return 0;
  int n = 0;
  for (const LockRequest& r : queue_it->second->requests) {
    // A waiting conversion still holds its original lock.
    if (r.granted || r.converting_from != LockMode::kNL) n++;
  }
  return n;
}

}  // namespace ivdb
