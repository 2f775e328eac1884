#include "src/storage/epoch.h"

#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "src/core/sr_tree.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(EpochManagerTest, QuiescedReclaimFreesEverything) {
  EpochManager epochs;
  auto obj = std::make_shared<int>(42);
  std::weak_ptr<int> probe = obj;

  epochs.Retire(std::move(obj));
  EXPECT_EQ(epochs.retired_count(), 1u);
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);  // no readers: frees immediately
  EXPECT_TRUE(probe.expired());
  EXPECT_EQ(epochs.retired_count(), 0u);
}

// The ordering soundness hinges on: a reader that announced before Retire()
// ran might already hold a pointer to the retiree (it entered between the
// writer's unlink and the retire call), so reclamation must keep the object
// until that reader exits — its announce equals the retiree's tag, and only
// strictly-newer announces allow the free.
TEST(EpochManagerTest, RetireeHeldWhileReaderAnnouncedBetweenUnlinkAndRetire) {
  EpochManager epochs;
  // "Unlink": this local is now the only reference; nothing published
  // reaches the object anymore.
  auto obj = std::make_shared<int>(7);
  std::weak_ptr<int> probe = obj;

  {
    EpochGuard reader(epochs);       // announces the pre-retire epoch...
    epochs.Retire(std::move(obj));   // ...which equals the retiree's tag
    epochs.AdvanceAndReclaim();
    EXPECT_FALSE(probe.expired());   // conservatively held, not freed
    EXPECT_EQ(epochs.retired_count(), 1u);
    EXPECT_EQ(epochs.active_readers(), 1u);
  }
  // The reader is gone; the hold must not outlive it.
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_TRUE(probe.expired());
  EXPECT_EQ(epochs.retired_count(), 0u);
}

// The flip side: a reader that announces after the epoch advanced past the
// retiree's tag can never have acquired a pointer to it (unlink-before-
// retire), so it must not pin the backlog — otherwise a steady reader
// stream would hold memory forever.
TEST(EpochManagerTest, LateReaderDoesNotPinEarlierRetiree) {
  EpochManager epochs;
  auto obj = std::make_shared<int>(9);
  std::weak_ptr<int> probe = obj;

  std::optional<EpochGuard> early;
  early.emplace(epochs);           // pins the retire-time epoch
  epochs.Retire(std::move(obj));
  epochs.AdvanceAndReclaim();      // held: early's announce == the tag
  ASSERT_FALSE(probe.expired());

  EpochGuard late(epochs);         // announces the post-advance epoch
  early.reset();
  // Only `late` is active now, and its announce is strictly newer than the
  // retiree's tag: the free proceeds despite the active reader.
  EXPECT_EQ(epochs.active_readers(), 1u);
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_TRUE(probe.expired());
  EXPECT_EQ(epochs.retired_count(), 0u);
}

// Hung-reader detection needs BOTH a stale announce (>= kStuckEpochGap
// behind the global epoch) and a real backlog (>= kStuckBacklog retirees
// waiting); either alone is normal operation and must stay silent. The
// counter ticks on every detection — only the stderr line is rate-limited.
TEST(EpochManagerTest, HungReaderWarningFiresOnlyPastBothThresholds) {
  EpochManager epochs;
  EpochGuard reader(epochs);  // pins min_active at the initial epoch

  for (size_t i = 0; i + 1 < EpochManager::kStuckBacklog; ++i) {
    epochs.Retire(std::make_shared<int>(0));
  }
  // Gap far past its threshold, backlog one short of its own: silent.
  for (uint64_t i = 0; i < EpochManager::kStuckEpochGap + 16; ++i) {
    epochs.AdvanceAndReclaim();
  }
  EXPECT_EQ(epochs.hung_reader_warning_count(), 0u);
  EXPECT_EQ(epochs.retired_count(), EpochManager::kStuckBacklog - 1);

  // Cross the backlog threshold too: every reclaim now detects.
  epochs.Retire(std::make_shared<int>(0));
  epochs.AdvanceAndReclaim();
  EXPECT_EQ(epochs.hung_reader_warning_count(), 1u);
  epochs.AdvanceAndReclaim();
  EXPECT_EQ(epochs.hung_reader_warning_count(), 2u);
}

// The same scenario with a deliberate pin (the guard an IndexSnapshot
// holds): memory is still held back, but nothing is reported.
TEST(EpochManagerTest, DeliberatePinIsNeverReportedAsHungReader) {
  EpochManager epochs;
  {
    EpochPin pin(epochs);
    for (size_t i = 0; i < EpochManager::kStuckBacklog + 16; ++i) {
      epochs.Retire(std::make_shared<int>(0));
    }
    for (uint64_t i = 0; i < EpochManager::kStuckEpochGap + 16; ++i) {
      epochs.AdvanceAndReclaim();
    }
    EXPECT_EQ(epochs.retired_count(), EpochManager::kStuckBacklog + 16);
    EXPECT_EQ(epochs.hung_reader_warning_count(), 0u);

    // A plain guard entering now holds nothing back (every retiree is
    // older than its announce), so it is not reported either.
    EpochGuard fresh(epochs);
    epochs.AdvanceAndReclaim();
    EXPECT_EQ(epochs.hung_reader_warning_count(), 0u);
  }
  epochs.ReclaimExpired();
  EXPECT_EQ(epochs.retired_count(), 0u);
}

// End to end: an SR-tree snapshot (what QueryEngine::RunBatch holds for a
// whole batch) pinned across more than kStuckEpochGap commits, with at
// least kStuckBacklog retirees waiting on it, is not a hung reader.
TEST(EpochManagerTest, SnapshotHeldAcrossManyCommitsIsNotAHungReader) {
  SRTree::Options options;
  options.dim = 4;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  SRTree tree(options);
  const Dataset data = MakeUniformDataset(3000, options.dim, /*seed=*/5);
  const std::unique_ptr<IndexSnapshot> snapshot = tree.AcquireSnapshot();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EpochManager& epochs = tree.epochs_for_test();
  ASSERT_GT(tree.AcquireSnapshot()->version() - snapshot->version(),
            EpochManager::kStuckEpochGap);
  ASSERT_GE(epochs.retired_count(), EpochManager::kStuckBacklog);
  EXPECT_EQ(epochs.hung_reader_warning_count(), 0u);
  EXPECT_EQ(snapshot->size(), 0u);  // the pinned version is still served
}

}  // namespace
}  // namespace srtree
