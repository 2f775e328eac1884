// Epoch-based reclamation for the PageFile commit protocol.
//
// The single-writer/many-readers scheme publishes immutable page-table
// versions (PageFile::Commit) that readers pin with an EpochGuard. Retired
// state — superseded version tables and copy-on-write page buffers — must
// outlive every reader that might still dereference it, without making the
// read path take locks. Epochs provide exactly that:
//
//   * a global epoch counter advances on every commit;
//   * each active reader announces, in its own cache-line-aligned slot, the
//     epoch it observed when it entered (EpochGuard's constructor);
//   * the writer retires objects tagged with the epoch current at retire
//     time, and frees a retiree only once every announced epoch is strictly
//     newer — no reader that could have reached it is still inside.
//
// Soundness rests on unlink-before-retire: an object is passed to Retire()
// only after it is unreachable from the published state, so a reader that
// announces after the unlink can never acquire a pointer to it. All epoch
// loads/stores are seq_cst; with the announce-then-acquire order on the
// reader side and unlink-then-scan on the writer side, a reader holding a
// retiree always has an announced epoch <= the retiree's tag.
//
// Hung-reader behavior: reclamation never frees under an active announce,
// so a stuck reader pins memory instead of racing it. ReclaimExpired()
// detects the pattern (old announce + growing retire backlog) and logs it
// to stderr rather than leaking silently. A deliberate pin — the EpochPin
// behind an IndexSnapshot, which a QueryEngine batch holds for the whole
// batch — holds memory back the same way but is never reported: it is
// long-lived by design, not forgotten.

#ifndef SRTREE_STORAGE_EPOCH_H_
#define SRTREE_STORAGE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace srtree {

class EpochGuard;

class EpochManager {
 public:
  // Upper bound on concurrently active readers (guards). A guard constructed
  // with every slot occupied spins until one frees; 64 slots is far above
  // any worker-pool size this library runs.
  static constexpr size_t kMaxReaders = 64;

  // Hung-reader heuristic (see ReclaimExpired): warn only when a plain
  // guard's announce is kStuckEpochGap epochs behind the global counter AND
  // at least kStuckBacklog retirees are waiting on it; a healthy reader
  // holds a snapshot for a handful of commits, so tripping both thresholds
  // means someone forgot to release a guard. EpochPin announces are never
  // reported. kWarnEvery rate-limits the log to one line per that many
  // suppressed detections. Public so tests can construct the scenario
  // exactly at the boundary.
  static constexpr uint64_t kStuckEpochGap = 512;
  static constexpr size_t kStuckBacklog = 4096;
  static constexpr uint64_t kWarnEvery = 256;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Frees every remaining retiree. Destroying the manager while a reader
  // guard is still alive is a use-after-free in the making; CHECKs instead.
  ~EpochManager();

  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  // Writer side: takes ownership of an object that is already unreachable
  // from the published state (unlink-before-retire) and frees it once no
  // active reader's announced epoch is <= the current epoch. The object is
  // type-erased as a shared_ptr so "free" is simply dropping the reference.
  void Retire(std::shared_ptr<const void> obj) EXCLUDES(retired_mu_);

  // Writer side: advances the global epoch (typically right after a commit
  // publishes new state) and then reclaims whatever became unreachable.
  void AdvanceAndReclaim() EXCLUDES(retired_mu_);

  // Frees every retiree whose tag epoch is older than the oldest announced
  // epoch (all of them when no reader is active). Returns the number freed.
  // Also performs hung-reader detection: a plain guard's announce far
  // behind the global epoch while the retire backlog it holds grows is
  // logged to stderr.
  size_t ReclaimExpired() EXCLUDES(retired_mu_);

  // Number of objects retired but not yet freed (tests assert this reaches
  // zero after readers quiesce).
  size_t retired_count() const EXCLUDES(retired_mu_);

  // Number of currently announced (active) reader slots.
  size_t active_readers() const;

  // Total hung-reader detections so far (including rate-limited ones that
  // produced no stderr line). Tests assert the warning fires exactly at
  // the kStuckEpochGap/kStuckBacklog boundary, stays silent below it, and
  // stays silent for deliberate pins.
  uint64_t hung_reader_warning_count() const EXCLUDES(retired_mu_);

 private:
  friend class EpochGuard;

  // One announce slot per active reader; 0 = free. Cache-line aligned so
  // concurrent readers entering/exiting do not false-share. A deliberate
  // pin's announce carries kPinBit; every epoch comparison masks it off.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{0};
  };
  static constexpr uint64_t kPinBit = uint64_t{1} << 63;

  // Claims a free slot and announces the current epoch in it (tagged with
  // kPinBit for a deliberate pin). Spins (with yields) when all
  // kMaxReaders slots are taken.
  size_t ClaimSlot(bool pin);
  void ReleaseSlot(size_t slot) {
    slots_[slot].epoch.store(0, std::memory_order_seq_cst);
  }

  struct Retiree {
    std::shared_ptr<const void> obj;
    uint64_t epoch = 0;
  };

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxReaders] UNGUARDED_OK(
      "fixed slot array; each slot is a single reader-owned atomic");

  mutable Mutex retired_mu_;
  std::vector<Retiree> retired_ GUARDED_BY(retired_mu_);
  uint64_t stuck_warnings_ GUARDED_BY(retired_mu_) = 0;
};

// RAII announce: while an EpochGuard lives, no state retired at or after
// the epoch it announced is freed, so every pointer acquired from the
// published state during its lifetime stays valid. Readers construct one,
// acquire a PageFile::Snapshot against it, and release both together.
//
// Deliberately not a Clang TSA capability: snapshot objects hold guards as
// members across virtual calls, a shape the static analysis cannot track.
// The pragmatic enforcement is PageFile::AcquireSnapshot requiring a guard
// reference, so snapshot acquisition cannot compile without one.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& epochs) : EpochGuard(epochs, false) {}
  ~EpochGuard() { epochs_.ReleaseSlot(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  uint64_t announced_epoch() const {
    return epochs_.slots_[slot_].epoch.load(std::memory_order_seq_cst) &
           ~EpochManager::kPinBit;
  }

 protected:
  EpochGuard(EpochManager& epochs, bool pin)
      : epochs_(epochs), slot_(epochs.ClaimSlot(pin)) {}

 private:
  EpochManager& epochs_;
  size_t slot_;
};

// The guard an IndexSnapshot holds for its whole lifetime: a deliberate,
// possibly long pin (a QueryEngine batch keeps one across every commit the
// batch overlaps). It protects and holds back memory exactly like any
// EpochGuard, but the hung-reader heuristic does not report it.
class EpochPin : public EpochGuard {
 public:
  explicit EpochPin(EpochManager& epochs) : EpochGuard(epochs, true) {}
};

}  // namespace srtree

#endif  // SRTREE_STORAGE_EPOCH_H_
