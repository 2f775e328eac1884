#include "src/engine/query_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace srtree {

EngineOptions QueryEngine::Sanitized(EngineOptions options) {
  options.num_workers = std::max(1, options.num_workers);
  options.steal_grain = std::max<size_t>(1, options.steal_grain);
  return options;
}

QueryEngine::QueryEngine(std::unique_ptr<PointIndex> index,
                         const EngineOptions& options)
    : index_(std::move(index)), options_(Sanitized(options)) {
  CHECK(index_ != nullptr);
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryEngine::WorkerLoop, this);
  }
}

QueryEngine::~QueryEngine() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

std::vector<QueryResult> QueryEngine::RunBatch(
    std::span<const Query> queries) {
  MutexLock batch_lock(batch_mu_);
  CHECK(index_ != nullptr);  // ReleaseIndex() ends the engine's service life

  const WallTimer timer;
  std::vector<QueryResult> results(queries.size());
  const size_t grain = options_.steal_grain;
  if (!queries.empty()) {
    auto batch = std::make_shared<Batch>();
    batch->queries = queries;
    batch->results = &results;
    // One pinned view for the whole batch: every query, on any worker, runs
    // against the same committed version, so the results are byte-identical
    // to a sequential loop over this snapshot even if a writer commits while
    // the batch drains.
    batch->snapshot = index_->AcquireSnapshot();
    {
      MutexLock lock(mu_);
      batch_ = batch;
    }
    work_cv_.NotifyAll();
    {
      // Explicit wait loop (not a predicate lambda) so the analysis sees
      // the wait under mu_; Drain signals under mu_, so the last completion
      // cannot slip between this check and the wait.
      MutexLock lock(mu_);
      while (batch->done.load() != queries.size()) done_cv_.Wait(mu_);
    }
    // Every claim has completed, so no worker reads the snapshot again.
    batch->snapshot.reset();
  }

  BatchStats stats;
  stats.queries = queries.size();
  stats.chunks = (queries.size() + grain - 1) / grain;
  stats.wall_seconds = timer.ElapsedSeconds();
  for (const QueryResult& r : results) stats.io.MergeFrom(r.io);
  {
    MutexLock lock(stats_mu_);
    last_stats_ = stats;
  }
  return results;
}

BatchStats QueryEngine::last_batch_stats() const {
  MutexLock lock(stats_mu_);
  return last_stats_;
}

std::unique_ptr<PointIndex> QueryEngine::ReleaseIndex() {
  MutexLock batch_lock(batch_mu_);
  return std::move(index_);
}

void QueryEngine::WorkerLoop() {
  // The batch this worker drained last. Holding it keeps its address from
  // being reused, so "batch_ differs from held" always means a new batch.
  std::shared_ptr<Batch> held;
  while (true) {
    {
      // Explicit wait loop (not a predicate lambda) so the analysis sees
      // the guarded reads of shutdown_/batch_ under mu_.
      MutexLock lock(mu_);
      while (!shutdown_ && batch_ == held) work_cv_.Wait(mu_);
      if (shutdown_) return;
      held = batch_;
    }
    Drain(*held);
  }
}

void QueryEngine::Drain(Batch& batch) {
  const size_t n = batch.queries.size();
  const size_t grain = options_.steal_grain;
  while (true) {
    const size_t begin = batch.next.fetch_add(grain);
    if (begin >= n) return;
    const size_t end = std::min(n, begin + grain);
    for (size_t i = begin; i < end; ++i) {
      const Query& q = batch.queries[i];
      (*batch.results)[i] = batch.snapshot->Search(q.point, q.spec);
    }
    const size_t count = end - begin;
    if (batch.done.fetch_add(count) + count == n) {
      MutexLock lock(mu_);
      done_cv_.NotifyAll();
    }
  }
}

}  // namespace srtree
