// Non-finite input is rejected at every entry point of every index.
//
// A NaN or infinite coordinate compares false against every bound, so a
// structure that accepted one could neither place nor find it: queries came
// back OK with no neighbours from some trees and with arbitrary ones from
// others, and inserted points were unreachable. Every structure — each
// IndexType, which includes the static SR-tree and the tiered index — must
// instead answer InvalidArgument from Search (all three query kinds),
// Insert, Delete and BulkLoad, and leave its contents unchanged.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

constexpr int kDim = 4;
constexpr size_t kPoints = 300;

std::unique_ptr<PointIndex> MakeSmall(IndexType type) {
  IndexConfig config;
  config.dim = kDim;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  return MakeIndex(type, config);
}

// One valid point with coordinate `axis` replaced by `bad`.
Point BadPoint(double bad, int axis) {
  Point p(kDim, 0.5);
  p[static_cast<size_t>(axis)] = bad;
  return p;
}

const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

class NonFiniteInputTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(NonFiniteInputTest, QueriesAndMutationsAreRejected) {
  const Dataset data = MakeUniformDataset(kPoints, kDim, /*seed=*/31);
  std::unique_ptr<PointIndex> index = MakeSmall(GetParam());
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  ASSERT_EQ(index->size(), kPoints);

  const QuerySpec specs[] = {QuerySpec::Knn(5), QuerySpec::KnnBestFirst(5),
                             QuerySpec::Range(0.2)};
  for (const double bad : kNonFinite) {
    for (int axis = 0; axis < kDim; axis += kDim - 1) {
      const Point p = BadPoint(bad, axis);
      const std::string where =
          "value " + std::to_string(bad) + " at axis " + std::to_string(axis);
      for (const QuerySpec& spec : specs) {
        const QueryResult r = index->Search(p, spec);
        EXPECT_TRUE(r.status.IsInvalidArgument())
            << where << ": " << r.status.ToString();
        EXPECT_TRUE(r.neighbors.empty()) << where;
      }
      const Status inserted = index->Insert(p, /*oid=*/9000);
      EXPECT_TRUE(inserted.IsInvalidArgument())
          << where << ": " << inserted.ToString();
      const Status deleted = index->Delete(p, /*oid=*/0);
      EXPECT_TRUE(deleted.IsInvalidArgument())
          << where << ": " << deleted.ToString();
      EXPECT_EQ(index->size(), kPoints) << where;
    }
  }
  const Status audit = index->CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_P(NonFiniteInputTest, BulkLoadRejectsAnyBadPointAndLoadsNothing) {
  const Dataset data = MakeUniformDataset(kPoints, kDim, /*seed=*/37);
  for (const double bad : kNonFinite) {
    std::vector<Point> points = data.ToPoints();
    points[kPoints / 2] = BadPoint(bad, /*axis=*/1);
    std::unique_ptr<PointIndex> index = MakeSmall(GetParam());
    const Status status = index->BulkLoad(points, data.SequentialOids());
    EXPECT_TRUE(status.IsInvalidArgument())
        << "value " << bad << ": " << status.ToString();
    EXPECT_EQ(index->size(), 0u) << "value " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, NonFiniteInputTest,
    ::testing::Values(IndexType::kSRTree, IndexType::kSSTree,
                      IndexType::kRStarTree, IndexType::kKdbTree,
                      IndexType::kVamSplitRTree, IndexType::kXTree,
                      IndexType::kTvTree, IndexType::kScan,
                      IndexType::kStaticSRTree, IndexType::kTieredSRTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      std::string name = IndexTypeName(info.param);
      for (char& c : name) {
        if (c == '-' || c == '*' || c == ' ') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace srtree
