#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace dgc {

unsigned ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> job) {
  DGC_CHECK(job != nullptr);
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

Status ParallelFor(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return Status(ErrorCode::kInvalidArgument, "ParallelFor: no jobs to run");
  }
  if (body == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "ParallelFor: null body");
  }
  const unsigned concurrency = unsigned(std::min<std::size_t>(threads, count));
  if (concurrency <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return Status::Ok();
  }
  // One slot per index, each written by the one thread that ran it and read
  // only after the joins, so the smallest failing index wins under any race.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit, also when spawning one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(concurrency - 1);
    for (unsigned t = 1; t < concurrency; ++t) helpers.emplace_back(drain);
    drain();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return Status::Ok();
}

}  // namespace dgc
