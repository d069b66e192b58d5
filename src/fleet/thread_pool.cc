#include "src/fleet/thread_pool.h"

namespace coign {

WorkerPool::WorkerPool(int threads) {
  for (int i = 1; i < threads; ++i) {
    // threads counts workers including the coordinating caller, which
    // participates in every batch — so an N-thread pool spawns N-1.
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t seen_generation = 0;
  for (;;) {
    work_ready_.wait(lock, [&] {
      return stopping_ || (batch_generation_ != seen_generation && task_ != nullptr);
    });
    if (stopping_) {
      return;
    }
    seen_generation = batch_generation_;
    while (next_index_ < total_) {
      const size_t index = next_index_++;
      const std::function<void(size_t)>* task = task_;
      lock.unlock();
      (*task)(index);
      lock.lock();
      if (++completed_ == total_) {
        batch_done_.notify_all();
      }
    }
  }
}

void WorkerPool::ParallelFor(size_t count, const std::function<void(size_t)>& task) {
  if (count == 0) {
    return;
  }
  if (workers_.empty()) {
    for (size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  task_ = &task;
  next_index_ = 0;
  total_ = count;
  completed_ = 0;
  ++batch_generation_;
  work_ready_.notify_all();

  // The coordinator is a worker too.
  while (next_index_ < total_) {
    const size_t index = next_index_++;
    lock.unlock();
    task(index);
    lock.lock();
    ++completed_;
  }
  batch_done_.wait(lock, [&] { return completed_ == total_; });
  task_ = nullptr;
}

}  // namespace coign
