// Concurrent batch-query engine.
//
// A QueryEngine owns a PointIndex plus a fixed pool of worker threads, and
// executes batches of queries through the thread-safe snapshot read path.
// Scheduling is one shared cursor: RunBatch publishes a heap-allocated
// batch state, and every worker claims the next `steal_grain` queries from
// its atomic `next` cursor until the cursor passes the end. Results are
// written by query position, which makes RunBatch deterministic: the output
// is byte-identical to a sequential loop no matter which worker claimed
// which range.
//
// Cross-batch safety comes from ownership: each worker holds
// a shared_ptr to the batch state it is draining. A worker that is still
// in its drain loop when RunBatch returns holds that batch's exhausted
// state — its cursor is past the end, so it claims nothing and never
// touches the results of the batch that follows.
//
// Snapshot isolation: RunBatch acquires ONE IndexSnapshot for the whole
// batch and every worker queries through it, so all results are evaluated
// against the same pinned version — byte-identical to a sequential loop
// over that snapshot even while a writer commits mid-batch (SR-tree; for
// the frozen-tree structures the snapshot is a pass-through and the old
// no-mutation contract still applies). The engine itself never mutates the
// index, and RunBatch serializes callers.

#ifndef SRTREE_ENGINE_QUERY_ENGINE_H_
#define SRTREE_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/geometry/point.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/storage/io_stats.h"

namespace srtree {

// One unit of batch work: the query point and what to run on it.
struct Query {
  Point point;
  QuerySpec spec;
};

struct EngineOptions {
  // Worker threads in the pool; clamped to >= 1. Hardware concurrency is a
  // reasonable default for throughput benches.
  int num_workers = 1;
  // Queries a worker claims per step of the shared cursor. Small grains
  // balance better under skewed per-query cost; large grains touch the
  // cursor less often.
  size_t steal_grain = 16;
};

// Aggregate accounting for the most recent RunBatch() call.
struct BatchStats {
  size_t queries = 0;
  size_t chunks = 0;         // cursor steps: ceil(queries / steal_grain)
  size_t steals = 0;         // always 0: workers share one cursor
  double wall_seconds = 0.0; // whole-batch wall time on the calling thread
  IoStatsDelta io;           // sum of the per-query deltas
};

class QueryEngine {
 public:
  explicit QueryEngine(std::unique_ptr<PointIndex> index,
                       const EngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Runs every query and returns results in query order: results[i] is
  // queries[i]'s QueryResult, complete with per-query IoStatsDelta and
  // wall-clock latency. Callers may invoke RunBatch concurrently; batches
  // are serialized internally.
  std::vector<QueryResult> RunBatch(std::span<const Query> queries)
      EXCLUDES(batch_mu_, mu_, stats_mu_);

  const PointIndex& index() const { return *index_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Accounting for the last completed batch (call after RunBatch returns).
  BatchStats last_batch_stats() const EXCLUDES(stats_mu_);

  // Hands the index back; the engine accepts no further batches. Lets one
  // built tree move between engine configs.
  std::unique_ptr<PointIndex> ReleaseIndex() EXCLUDES(batch_mu_);

 private:
  // One RunBatch call's work, shared by the caller and every worker that
  // drains it. `queries`, `results` and `snapshot` are written before the
  // state is published under mu_ and are read only after a successful
  // claim from `next`; RunBatch returns (and its results vector dies) only
  // once `done` reaches queries.size(), after which no claim can succeed.
  struct Batch {
    std::span<const Query> queries;
    std::vector<QueryResult>* results = nullptr;
    // The one pinned view every query of the batch runs against. Released
    // by RunBatch once the batch completes, so a worker still holding the
    // exhausted state does not keep a version pinned.
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::atomic<size_t> next{0};  // first unclaimed query
    std::atomic<size_t> done{0};  // queries completed
  };

  void WorkerLoop();
  // Claims and runs `steal_grain`-sized ranges of `batch` until its cursor
  // passes the end; signals done_cv_ when it completes the last query.
  void Drain(Batch& batch) EXCLUDES(mu_);

  // EngineOptions with num_workers and steal_grain clamped to >= 1, so
  // options_ can be initialized (and stay) const.
  static EngineOptions Sanitized(EngineOptions options);

  // Written in the constructor and by ReleaseIndex() only; workers reach it
  // only through a batch snapshot, which RunBatch takes and releases while
  // holding batch_mu_ — the same lock ReleaseIndex() takes. Search() is
  // const and re-entrant by the PointIndex contract, so traversals need no
  // lock.
  std::unique_ptr<PointIndex> index_ UNGUARDED_OK(
      "written by ctor and batch_mu_-serialized ReleaseIndex only");
  const EngineOptions options_;

  std::vector<std::thread> workers_ UNGUARDED_OK(
      "spawned in the constructor, joined in the destructor");

  // Capability map: batch_mu_ serializes RunBatch/ReleaseIndex callers and
  // guards no data; mu_ guards the published batch and the shutdown flag;
  // stats_mu_ guards last_stats_.
  Mutex batch_mu_;
  Mutex mu_;
  CondVar work_cv_;  // workers wait here for a new batch
  CondVar done_cv_;  // RunBatch waits here for completion
  bool shutdown_ GUARDED_BY(mu_) = false;
  // The most recently published batch; a worker drains it when it differs
  // from the one the worker already holds.
  std::shared_ptr<Batch> batch_ GUARDED_BY(mu_);

  mutable Mutex stats_mu_;
  BatchStats last_stats_ GUARDED_BY(stats_mu_);
};

}  // namespace srtree

#endif  // SRTREE_ENGINE_QUERY_ENGINE_H_
