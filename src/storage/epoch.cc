#include "src/storage/epoch.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <thread>

#include "src/common/check.h"

namespace srtree {

EpochManager::~EpochManager() {
  for (size_t i = 0; i < kMaxReaders; ++i) {
    CHECK_EQ(slots_[i].epoch.load(std::memory_order_seq_cst), 0u);
  }
  MutexLock lock(retired_mu_);
  retired_.clear();  // no readers left; dropping the references frees all
}

size_t EpochManager::ClaimSlot(bool pin) {
  for (;;) {
    // The announce value is read before the CAS publishes it. A value that
    // goes stale while scanning is only ever *older* than the true current
    // epoch, which delays reclamation but never makes it unsafe.
    const uint64_t e = global_epoch_.load(std::memory_order_seq_cst) |
                       (pin ? kPinBit : 0);
    for (size_t i = 0; i < kMaxReaders; ++i) {
      uint64_t expected = 0;
      if (slots_[i].epoch.compare_exchange_strong(expected, e,
                                                  std::memory_order_seq_cst)) {
        return i;
      }
    }
    std::this_thread::yield();  // every slot taken: wait for a reader to exit
  }
}

void EpochManager::Retire(std::shared_ptr<const void> obj) {
  const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  MutexLock lock(retired_mu_);
  retired_.push_back(Retiree{std::move(obj), e});
}

void EpochManager::AdvanceAndReclaim() {
  global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  ReclaimExpired();
}

size_t EpochManager::ReclaimExpired() {
  // Reclamation respects every announce; the hung-reader heuristic looks at
  // plain guards only (`min_reader`), never at deliberate pins.
  uint64_t min_active = std::numeric_limits<uint64_t>::max();
  uint64_t min_reader = std::numeric_limits<uint64_t>::max();
  size_t oldest_reader = kMaxReaders;
  for (size_t i = 0; i < kMaxReaders; ++i) {
    const uint64_t raw = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (raw == 0) continue;
    const uint64_t e = raw & ~kPinBit;
    min_active = std::min(min_active, e);
    if ((raw & kPinBit) == 0 && e < min_reader) {
      min_reader = e;
      oldest_reader = i;
    }
  }

  MutexLock lock(retired_mu_);
  size_t freed = 0;
  size_t kept = 0;
  for (Retiree& r : retired_) {
    if (r.epoch < min_active) {
      ++freed;  // dropping the reference is the free
    } else {
      retired_[kept++] = std::move(r);
    }
  }
  retired_.resize(kept);

  const uint64_t global = global_epoch_.load(std::memory_order_seq_cst);
  if (oldest_reader != kMaxReaders && kept >= kStuckBacklog &&
      global - min_reader >= kStuckEpochGap) {
    // Only the retirees this reader holds back count against it; older
    // ones wait on a pin.
    const size_t waiting = static_cast<size_t>(std::count_if(
        retired_.begin(), retired_.end(),
        [&](const Retiree& r) { return r.epoch >= min_reader; }));
    if (waiting >= kStuckBacklog && stuck_warnings_++ % kWarnEvery == 0) {
      std::fprintf(stderr,
                   "[srtree/epoch] reader slot %zu pinned at epoch %" PRIu64
                   " while the global epoch is %" PRIu64 "; %zu retired "
                   "object(s) are waiting on it (possible hung reader — "
                   "memory is held, not leaked)\n",
                   oldest_reader, min_reader, global, waiting);
    }
  }
  return freed;
}

size_t EpochManager::retired_count() const {
  MutexLock lock(retired_mu_);
  return retired_.size();
}

uint64_t EpochManager::hung_reader_warning_count() const {
  MutexLock lock(retired_mu_);
  return stuck_warnings_;
}

size_t EpochManager::active_readers() const {
  size_t n = 0;
  for (size_t i = 0; i < kMaxReaders; ++i) {
    if (slots_[i].epoch.load(std::memory_order_seq_cst) != 0) ++n;
  }
  return n;
}

}  // namespace srtree
