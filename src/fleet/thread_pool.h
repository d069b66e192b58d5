// A small worker pool for the fleet partitioning service.
//
// The unit of work is an indexed task batch: ParallelFor(count, task) runs
// task(0..count-1) across the workers and blocks until all complete.
// Indices are claimed dynamically, so uneven per-cohort analysis costs
// load-balance; results must be written to per-index slots, which keeps
// every output independent of claim order — the determinism contract the
// fleet CLI's byte-identical output rests on.

#ifndef COIGN_SRC_FLEET_THREAD_POOL_H_
#define COIGN_SRC_FLEET_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coign {

class WorkerPool {
 public:
  // threads <= 1 spawns no workers: ParallelFor runs inline on the caller
  // — the serial path, with zero synchronization overhead, that the fleet
  // bench compares parallel runs against.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Worker threads owned by the pool (0 in serial mode).
  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Runs task(i) for i in [0, count), blocking until every index has
  // finished. Tasks run concurrently and must not touch shared mutable
  // state without their own synchronization. Not re-entrant: one
  // ParallelFor at a time, from one coordinating thread.
  void ParallelFor(size_t count, const std::function<void(size_t)>& task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(size_t)>* task_ = nullptr;  // Guarded by mutex_.
  size_t next_index_ = 0;
  size_t total_ = 0;
  size_t completed_ = 0;
  uint64_t batch_generation_ = 0;
  bool stopping_ = false;
};

}  // namespace coign

#endif  // COIGN_SRC_FLEET_THREAD_POOL_H_
