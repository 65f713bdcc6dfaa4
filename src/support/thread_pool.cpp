#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dgc {

unsigned DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
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
