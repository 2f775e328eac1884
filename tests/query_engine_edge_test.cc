// QueryEngine edge cases: degenerate batch shapes and lifecycle corners
// that the main query_engine_test's steady-state batches never hit. Every
// batch result is compared against a sequential Search() loop over the same
// queries — the engine's determinism contract says they must be identical.

#include "src/engine/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

constexpr int kDim = 4;

std::unique_ptr<PointIndex> BuildSmallIndex(size_t n) {
  IndexConfig config;
  config.dim = kDim;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  auto index = MakeIndex(IndexType::kSRTree, config);
  const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/211);
  const Status status = index->BulkLoad(data.ToPoints(), data.SequentialOids());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return index;
}

// The sequential oracle: the same queries, one at a time, on the same index.
std::vector<QueryResult> RunSequential(const PointIndex& index,
                                       const std::vector<Query>& queries) {
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const Query& q : queries) {
    results.push_back(index.Search(q.point, q.spec));
  }
  return results;
}

void ExpectSameAnswers(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status.code(), want[i].status.code()) << "query " << i;
    EXPECT_EQ(got[i].neighbors, want[i].neighbors) << "query " << i;
  }
}

TEST(QueryEngineEdgeTest, EmptyBatchCompletesAndCountsZero) {
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(BuildSmallIndex(200), options);

  const std::vector<QueryResult> results = engine.RunBatch({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.last_batch_stats().queries, 0u);
  EXPECT_EQ(engine.last_batch_stats().chunks, 0u);

  // The pool must stay healthy: an empty batch followed by a real one.
  const std::vector<Query> queries = {
      {Point(kDim, 0.5), QuerySpec::Knn(3)},
  };
  ExpectSameAnswers(engine.RunBatch(queries),
                    RunSequential(engine.index(), queries));
}

TEST(QueryEngineEdgeTest, MoreWorkersThanQueries) {
  EngineOptions options;
  options.num_workers = 8;
  options.steal_grain = 1;  // every query is its own chunk
  QueryEngine engine(BuildSmallIndex(200), options);

  std::vector<Query> queries;
  for (const Point& q : SampleUniformQueries(kDim, 3, /*seed=*/223)) {
    queries.push_back({q, QuerySpec::Knn(5)});
  }
  ASSERT_LT(queries.size(), 8u);

  const std::vector<QueryResult> results = engine.RunBatch(queries);
  ExpectSameAnswers(results, RunSequential(engine.index(), queries));
  EXPECT_EQ(engine.last_batch_stats().queries, queries.size());
}

TEST(QueryEngineEdgeTest, KLargerThanDataset) {
  constexpr size_t kPoints = 40;
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(BuildSmallIndex(kPoints), options);

  std::vector<Query> queries;
  for (const Point& q : SampleUniformQueries(kDim, 6, /*seed=*/227)) {
    queries.push_back({q, QuerySpec::Knn(10 * kPoints)});
  }
  const std::vector<QueryResult> results = engine.RunBatch(queries);
  ExpectSameAnswers(results, RunSequential(engine.index(), queries));
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.neighbors.size(), kPoints);  // the whole dataset, ranked
  }
}

TEST(QueryEngineEdgeTest, DestructionWithIdlePool) {
  // Workers park on the work CV immediately; the destructor must wake and
  // join them without a batch ever having run.
  for (const int workers : {1, 2, 8}) {
    EngineOptions options;
    options.num_workers = workers;
    QueryEngine engine(BuildSmallIndex(50), options);
    EXPECT_EQ(engine.num_workers(), workers);
  }
}

TEST(QueryEngineEdgeTest, BackToBackBatchesNeverCrossEpochs) {
  // Regression test for a cross-batch use-after-free: a worker that drains
  // the last queries of batch N can still be in its drain loop when the
  // caller dispatches batch N+1, and it once ran N+1 work against the stale
  // results pointer of N — a write through a destroyed vector. A worker now
  // holds batch N's own state, whose cursor is exhausted, so it can claim
  // nothing until it picks up N+1's state under the engine lock. Tiny
  // batches with single-query cursor steps maximize the
  // dispatch-while-draining window; a regression can surface under TSan as
  // a data race / heap-use-after-free, or in any build as a wrong or
  // missing result.
  EngineOptions options;
  options.num_workers = 8;
  options.steal_grain = 1;
  QueryEngine engine(BuildSmallIndex(200), options);

  std::vector<Query> queries;
  for (const Point& q : SampleUniformQueries(kDim, 5, /*seed=*/229)) {
    queries.push_back({q, QuerySpec::Knn(4)});
  }
  const std::vector<QueryResult> want = RunSequential(engine.index(), queries);
  for (int round = 0; round < 500; ++round) {
    ExpectSameAnswers(engine.RunBatch(queries), want);
  }
}

TEST(QueryEngineEdgeTest, ConcurrentCallersMatchSequential) {
  // RunBatch may be called from several threads at once; batches are
  // serialized internally. Four callers hammer one engine with batches of
  // different sizes and single-query cursor steps, so a worker late from
  // one caller's batch keeps overlapping the next caller's dispatch. Every
  // answer must still be the sequential one, per-query read counts
  // included.
  constexpr int kCallers = 4;
  constexpr int kBatchesPerCaller = 50;
  EngineOptions options;
  options.num_workers = 4;
  options.steal_grain = 1;
  QueryEngine engine(BuildSmallIndex(300), options);

  std::vector<std::vector<Query>> batches(kCallers);
  std::vector<std::vector<QueryResult>> wants(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    const std::vector<Point> points = SampleUniformQueries(
        kDim, 3 + 2 * static_cast<size_t>(c), /*seed=*/241 + c);
    for (size_t i = 0; i < points.size(); ++i) {
      const QuerySpec spec = (i % 3 == 0)   ? QuerySpec::Knn(4)
                             : (i % 3 == 1) ? QuerySpec::KnnBestFirst(6)
                                            : QuerySpec::Range(0.3);
      batches[c].push_back({points[i], spec});
    }
    wants[c] = RunSequential(engine.index(), batches[c]);
  }

  std::vector<std::vector<std::vector<QueryResult>>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int b = 0; b < kBatchesPerCaller; ++b) {
        got[c].push_back(engine.RunBatch(batches[c]));
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<size_t>(kBatchesPerCaller));
    for (const std::vector<QueryResult>& results : got[c]) {
      ExpectSameAnswers(results, wants[c]);
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].io.reads, wants[c][i].io.reads)
            << "caller " << c << " query " << i;
      }
    }
  }
}

TEST(QueryEngineEdgeTest, ReleaseIndexAfterEmptyBatch) {
  EngineOptions options;
  options.num_workers = 2;
  QueryEngine engine(BuildSmallIndex(100), options);
  (void)engine.RunBatch({});
  std::unique_ptr<PointIndex> index = engine.ReleaseIndex();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 100u);
}

}  // namespace
}  // namespace srtree
