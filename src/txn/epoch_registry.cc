#include "txn/epoch_registry.h"

#include "common/clock.h"
#include "common/invariant.h"

namespace ivdb {

size_t EpochReaderRegistry::SlotForThisThread() {
  static thread_local const size_t slot = ThisThreadHash() % kSlots;
  return slot;
}

size_t EpochReaderRegistry::Enter(uint64_t pin) {
  size_t idx = SlotForThisThread();
  Slot& slot = slots_[idx];
  MutexLock guard(&slot.epoch_slot_mu_);
  slot.pins.insert(pin);
  return idx;
}

void EpochReaderRegistry::Leave(size_t slot_idx, uint64_t pin) {
  Slot& slot = slots_[slot_idx];
  MutexLock guard(&slot.epoch_slot_mu_);
  auto it = slot.pins.find(pin);
  IVDB_INVARIANT(it != slot.pins.end(),
                 "epoch Leave without a matching Enter");
  slot.pins.erase(it);
}

uint64_t EpochReaderRegistry::MinActivePin() const {
  uint64_t min_pin = UINT64_MAX;
  for (const Slot& slot : slots_) {
    MutexLock guard(&slot.epoch_slot_mu_);
    if (!slot.pins.empty() && *slot.pins.begin() < min_pin) {
      min_pin = *slot.pins.begin();
    }
  }
  return min_pin;
}

uint64_t EpochReaderRegistry::ActivePins() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    MutexLock guard(&slot.epoch_slot_mu_);
    total += slot.pins.size();
  }
  return total;
}

}  // namespace ivdb
