// Exact read-count gate for the k-NN and range traversals.
//
// The paper's metric is disk reads per query, and a seeded run makes it
// deterministic, so it is held exactly here rather than within a bound:
//
//   * PaperFig3Fig10Uniform20k — the reduced-scale Figure 3 / Figure 10
//     point at n = 20,000 (uniform data, D = 16, seed 1, k = 21, the 100
//     default query anchors) for the five evaluated structures, one build
//     per tree shared by both figures: total, leaf and non-leaf reads over
//     the 100 queries, and the tree height.
//   * SmallUniform / SmallClustered — every page-based structure plus the
//     tiered index at n = 2,000 on small pages (deep trees), for all three
//     query kinds: total, leaf and non-leaf reads, and a hash of the
//     (oid, distance bits) results.
//
// Any change to a golden value below moves a paper number or a result bit;
// it must be deliberate and named in CHANGES.md.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchlib/experiment.h"
#include "src/core/sr_tree.h"
#include "src/index/brute_force.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

struct Counts {
  uint64_t reads = 0;
  uint64_t leaf_reads = 0;
  uint64_t nonleaf_reads = 0;
  uint64_t result_hash = 0;

  bool operator==(const Counts&) const = default;
};

// FNV-1a over the (oid, distance bits) of every neighbor, in result order.
void HashNeighbors(const std::vector<Neighbor>& neighbors, uint64_t& hash) {
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const Neighbor& n : neighbors) {
    mix(n.oid);
    mix(std::bit_cast<uint64_t>(n.distance));
  }
}

Counts RunQueries(const PointIndex& index, const std::vector<Point>& queries,
                  const std::vector<QuerySpec>& specs) {
  Counts counts;
  counts.result_hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult result = index.Search(queries[i], specs[i]);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    counts.reads += result.io.reads;
    counts.leaf_reads += result.io.leaf_reads;
    counts.nonleaf_reads += result.io.nonleaf_reads;
    HashNeighbors(result.neighbors, counts.result_hash);
  }
  return counts;
}

std::string Describe(const Counts& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "}",
                c.reads, c.leaf_reads, c.nonleaf_reads, c.result_hash);
  return buf;
}

// ---------------------------------------------------------------------------
// Figures 3 and 10 at n = 20,000
// ---------------------------------------------------------------------------

struct PaperGolden {
  IndexType type;
  int height;
  uint64_t reads;  // summed over the 100 queries
  uint64_t leaf_reads;
  uint64_t nonleaf_reads;
};

TEST(TraversalReadsExact, PaperFig3Fig10Uniform20k) {
  // bench_fig3_baselines_uniform / bench_fig10_sr_uniform defaults:
  // --dim 16 --k 21 --seed 1, 100 queries sampled with seed + 17.
  const Dataset data = MakeUniformDataset(20000, 16, /*seed=*/1);
  const std::vector<Point> queries =
      SampleQueriesFromDataset(data, 100, /*seed=*/18);
  const std::vector<PaperGolden> golden = {
      {IndexType::kKdbTree, 4, 216744, 204664, 12080},
      {IndexType::kRStarTree, 4, 182168, 173074, 9094},
      {IndexType::kSSTree, 3, 195051, 189951, 5100},
      {IndexType::kVamSplitRTree, 4, 137390, 131705, 5685},
      {IndexType::kSRTree, 4, 185696, 170996, 14700},
  };

  // Independent builds, one thread each, so the gate stays quick.
  std::vector<std::unique_ptr<PointIndex>> indexes(golden.size());
  std::vector<std::thread> builders;
  for (size_t t = 0; t < golden.size(); ++t) {
    builders.emplace_back([&, t] {
      IndexConfig config;
      config.dim = 16;
      indexes[t] = MakeIndex(golden[t].type, config);
      BuildIndexFromDataset(*indexes[t], data);
    });
  }
  for (std::thread& b : builders) b.join();

  const std::vector<QuerySpec> specs(queries.size(), QuerySpec::Knn(21));
  for (size_t t = 0; t < golden.size(); ++t) {
    const PaperGolden& g = golden[t];
    const Counts c = RunQueries(*indexes[t], queries, specs);
    const int height = indexes[t]->GetTreeStats().height;
    EXPECT_EQ(height, g.height) << IndexTypeName(g.type);
    EXPECT_EQ(c.reads, g.reads) << IndexTypeName(g.type);
    EXPECT_EQ(c.leaf_reads, g.leaf_reads) << IndexTypeName(g.type);
    EXPECT_EQ(c.nonleaf_reads, g.nonleaf_reads) << IndexTypeName(g.type);
    if (height != g.height || c.reads != g.reads) {
      std::printf("actual: %s height %d reads/leaf/nonleaf %s\n",
                  IndexTypeName(g.type), height, Describe(c).c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Every page-based structure at n = 2,000, all three query kinds
// ---------------------------------------------------------------------------

enum class Structure {
  kSR,
  kSRSphereOnly,  // SR-tree with use_rect_in_mindist = false
  kSS,
  kRStar,
  kKdb,
  kVamSplit,
  kX,
  kTv,
  kStatic,
  kTiered,
};

const char* StructureName(Structure s) {
  switch (s) {
    case Structure::kSR: return "SR";
    case Structure::kSRSphereOnly: return "SR sphere-only";
    case Structure::kSS: return "SS";
    case Structure::kRStar: return "R*";
    case Structure::kKdb: return "K-D-B";
    case Structure::kVamSplit: return "VAMSplit";
    case Structure::kX: return "X";
    case Structure::kTv: return "TV";
    case Structure::kStatic: return "static SR";
    case Structure::kTiered: return "tiered";
  }
  return "?";
}

constexpr int kSmallDim = 16;
constexpr size_t kSmallN = 2000;

// Builds `s` over `data` on 2 KB pages. The tiered index bulk-loads the
// first 80% into its static tier, inserts the rest into the delta and
// deletes every seventh bulk point, so its searches cross both tiers and
// the tombstone filter.
std::unique_ptr<PointIndex> BuildSmall(Structure s, const Dataset& data) {
  const IndexConfig config = testing::SmallPageConfig(kSmallDim);
  std::unique_ptr<PointIndex> index;
  switch (s) {
    case Structure::kSR: index = MakeIndex(IndexType::kSRTree, config); break;
    case Structure::kSRSphereOnly: {
      SRTree::Options options;
      options.dim = kSmallDim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      options.use_rect_in_mindist = false;
      index = std::make_unique<SRTree>(options);
      break;
    }
    case Structure::kSS: index = MakeIndex(IndexType::kSSTree, config); break;
    case Structure::kRStar:
      index = MakeIndex(IndexType::kRStarTree, config);
      break;
    case Structure::kKdb: index = MakeIndex(IndexType::kKdbTree, config); break;
    case Structure::kVamSplit:
      index = MakeIndex(IndexType::kVamSplitRTree, config);
      break;
    case Structure::kX: index = MakeIndex(IndexType::kXTree, config); break;
    case Structure::kTv: index = MakeIndex(IndexType::kTvTree, config); break;
    case Structure::kStatic:
      index = MakeIndex(IndexType::kStaticSRTree, config);
      break;
    case Structure::kTiered: {
      index = MakeIndex(IndexType::kTieredSRTree, config);
      const size_t bulk = data.size() * 4 / 5;
      std::vector<Point> points;
      std::vector<uint32_t> oids;
      for (size_t i = 0; i < bulk; ++i) {
        points.emplace_back(data.point(i).begin(), data.point(i).end());
        oids.push_back(static_cast<uint32_t>(i));
      }
      EXPECT_TRUE(index->BulkLoad(points, oids).ok());
      for (size_t i = bulk; i < data.size(); ++i) {
        EXPECT_TRUE(index->Insert(data.point(i), static_cast<uint32_t>(i)).ok());
      }
      for (size_t i = 0; i < bulk; i += 7) {
        EXPECT_TRUE(index->Delete(data.point(i), static_cast<uint32_t>(i)).ok());
      }
      return index;
    }
  }
  BuildIndexFromDataset(*index, data);
  return index;
}

struct SmallGolden {
  Structure structure;
  Counts knn;
  Counts best_first;
  Counts range;
};

// 25 anchors from the data set plus 5 uniform ones; k = 10; the range
// radius of each query is its exact 10-NN distance over the full data set.
void CheckSmall(testing::DistKind kind, uint64_t seed,
                const std::vector<SmallGolden>& golden) {
  const Dataset data = testing::MakeTestDataset(kind, kSmallN, kSmallDim, seed);
  std::vector<Point> queries = SampleQueriesFromDataset(data, 25, seed + 1);
  for (Point& q : SampleUniformQueries(kSmallDim, 5, seed + 2)) {
    queries.push_back(std::move(q));
  }
  BruteForceIndex::Options bf_options;
  bf_options.dim = kSmallDim;
  BruteForceIndex oracle(bf_options);
  BuildIndexFromDataset(oracle, data);

  std::vector<QuerySpec> knn, best_first, range;
  for (const Point& q : queries) {
    knn.push_back(QuerySpec::Knn(10));
    best_first.push_back(QuerySpec::KnnBestFirst(10));
    range.push_back(QuerySpec::Range(
        oracle.Search(q, QuerySpec::Knn(10)).neighbors.back().distance));
  }

  for (const SmallGolden& g : golden) {
    const std::unique_ptr<PointIndex> index = BuildSmall(g.structure, data);
    const Counts c_knn = RunQueries(*index, queries, knn);
    const Counts c_bf = RunQueries(*index, queries, best_first);
    const Counts c_range = RunQueries(*index, queries, range);
    const char* name = StructureName(g.structure);
    EXPECT_EQ(c_knn, g.knn) << name << " kKnn actual " << Describe(c_knn);
    EXPECT_EQ(c_bf, g.best_first)
        << name << " kKnnBestFirst actual " << Describe(c_bf);
    EXPECT_EQ(c_range, g.range)
        << name << " kRange actual " << Describe(c_range);
  }
}

TEST(TraversalReadsExact, SmallUniform) {
  CheckSmall(testing::DistKind::kUniform, /*seed=*/101,
             {
                 {Structure::kSR,
                  {6755, 4985, 1770, 0xea2d0b97699d26d4},
                  {6741, 4971, 1770, 0xea2d0b97699d26d4},
                  {6741, 4971, 1770, 0x6b1de0f4d585d7ac}},
                 {Structure::kSRSphereOnly,
                  {6777, 5007, 1770, 0xea2d0b97699d26d4},
                  {6776, 5006, 1770, 0xea2d0b97699d26d4},
                  {6776, 5006, 1770, 0x6b1de0f4d585d7ac}},
                 {Structure::kSS,
                  {5429, 4889, 540, 0xea2d0b97699d26d4},
                  {5429, 4889, 540, 0xea2d0b97699d26d4},
                  {5429, 4889, 540, 0x6b1de0f4d585d7ac}},
                 {Structure::kRStar,
                  {6870, 5310, 1560, 0xea2d0b97699d26d4},
                  {6857, 5297, 1560, 0xea2d0b97699d26d4},
                  {6857, 5297, 1560, 0x6b1de0f4d585d7ac}},
                 {Structure::kKdb,
                  {7205, 5736, 1469, 0xea2d0b97699d26d4},
                  {7202, 5733, 1469, 0xea2d0b97699d26d4},
                  {7202, 5733, 1469, 0x6b1de0f4d585d7ac}},
                 {Structure::kVamSplit,
                  {4689, 3978, 711, 0xea2d0b97699d26d4},
                  {4689, 3978, 711, 0xea2d0b97699d26d4},
                  {4689, 3978, 711, 0x6b1de0f4d585d7ac}},
                 {Structure::kX,
                  {6900, 5640, 1260, 0xea2d0b97699d26d4},
                  {6885, 5625, 1260, 0xea2d0b97699d26d4},
                  {6885, 5625, 1260, 0x6b1de0f4d585d7ac}},
                 {Structure::kTv,
                  {5917, 5347, 570, 0xea2d0b97699d26d4},
                  {5907, 5337, 570, 0xea2d0b97699d26d4},
                  {5907, 5337, 570, 0x6b1de0f4d585d7ac}},
                 {Structure::kStatic,
                  {5064, 3986, 1078, 0xea2d0b97699d26d4},
                  {5061, 3983, 1078, 0xea2d0b97699d26d4},
                  {5061, 3983, 1078, 0x6b1de0f4d585d7ac}},
                 {Structure::kTiered,
                  {5450, 4220, 1230, 0xee039f08ca7eaf18},
                  {5448, 4218, 1230, 0xee039f08ca7eaf18},
                  {5436, 4206, 1230, 0xfa64ea484bf16814}},
             });
}

TEST(TraversalReadsExact, SmallClustered) {
  CheckSmall(testing::DistKind::kCluster, /*seed=*/202,
             {
                 {Structure::kSR,
                  {1161, 773, 388, 0x7c4bbde5f1b4aabb},
                  {1118, 738, 380, 0x7c4bbde5f1b4aabb},
                  {1118, 738, 380, 0xf23883fac08859f2}},
                 {Structure::kSRSphereOnly,
                  {1336, 900, 436, 0x7c4bbde5f1b4aabb},
                  {1197, 799, 398, 0x7c4bbde5f1b4aabb},
                  {1197, 799, 398, 0xf23883fac08859f2}},
                 {Structure::kSS,
                  {1882, 1564, 318, 0x7c4bbde5f1b4aabb},
                  {1039, 818, 221, 0x7c4bbde5f1b4aabb},
                  {1039, 818, 221, 0xf23883fac08859f2}},
                 {Structure::kRStar,
                  {1399, 1000, 399, 0x7c4bbde5f1b4aabb},
                  {1252, 865, 387, 0x7c4bbde5f1b4aabb},
                  {1252, 865, 387, 0xf23883fac08859f2}},
                 {Structure::kKdb,
                  {2347, 1592, 755, 0x7c4bbde5f1b4aabb},
                  {2326, 1574, 752, 0x7c4bbde5f1b4aabb},
                  {2326, 1574, 752, 0xf23883fac08859f2}},
                 {Structure::kVamSplit,
                  {812, 605, 207, 0x7c4bbde5f1b4aabb},
                  {810, 603, 207, 0x7c4bbde5f1b4aabb},
                  {810, 603, 207, 0xf23883fac08859f2}},
                 {Structure::kX,
                  {1415, 979, 436, 0x7c4bbde5f1b4aabb},
                  {1351, 922, 429, 0x7c4bbde5f1b4aabb},
                  {1351, 922, 429, 0xf23883fac08859f2}},
                 {Structure::kTv,
                  {1540, 1309, 231, 0x7c4bbde5f1b4aabb},
                  {1514, 1283, 231, 0x7c4bbde5f1b4aabb},
                  {1514, 1283, 231, 0xf23883fac08859f2}},
                 {Structure::kStatic,
                  {953, 610, 343, 0x7c4bbde5f1b4aabb},
                  {946, 603, 343, 0x7c4bbde5f1b4aabb},
                  {946, 603, 343, 0xf23883fac08859f2}},
                 {Structure::kTiered,
                  {1744, 1186, 558, 0x2c0bf27473b220dd},
                  {1696, 1144, 552, 0x2c0bf27473b220dd},
                  {950, 631, 319, 0xbbe2a75753195a23}},
             });
}

}  // namespace
}  // namespace srtree
