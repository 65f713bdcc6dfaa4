// Host-side concurrency for the two places that run independent jobs at
// once: dgc-serve's concurrent launches (ThreadPool::Submit) and the
// parallel Fig. 6 sweep runner (ParallelFor, used by ensemble::RunSweeps).
//
// Both start jobs in order; completion order is up to the host scheduler,
// so callers that need deterministic output write results into
// pre-assigned slots and assemble them once every job has finished
// (exactly what the sweep runner and the serve scheduler do).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/status.h"

namespace dgc {

/// A fixed set of workers draining one FIFO queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 picks DefaultThreads().
  explicit ThreadPool(unsigned num_threads = 0);
  /// Drains the queue, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return unsigned(workers_.size()); }

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned DefaultThreads();

  /// Enqueues one job (must be non-null); jobs start in submission order.
  /// The future completes when the job returns or throws.
  std::future<void> Submit(std::function<void()> job);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(0), ..., body(count-1) to completion.
///
/// `threads` <= 1 runs inline in index order, with no extra thread, and
/// throws at the first failing index. Otherwise min(threads, count) - 1
/// temporary threads plus the calling thread pull indices from one counter,
/// so bodies start in index order (largest-first schedules rely on it).
/// The caller always takes part, so a call from inside a pool worker makes
/// progress even when that pool is full. Every index runs; then the
/// exception of the smallest failing index is rethrown.
///
/// Rejects count == 0 and a null body with kInvalidArgument before anything
/// runs.
Status ParallelFor(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body);

}  // namespace dgc
