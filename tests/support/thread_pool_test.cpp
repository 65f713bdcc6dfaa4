// Tests for the serve worker pool and the sweep runner's ParallelFor
// (support/thread_pool.h).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dgc {
namespace {

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ThreadPool, ZeroRequestedThreadsFallsBackToDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
}

TEST(ThreadPool, SubmitRunsJobAndCompletesFuture) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto future = pool.Submit([&] { value = 42; });
  future.get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (std::future<void>& future : futures) future.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(ThreadPool, FirstIndexExceptionPropagatesAfterAllJobsFinish) {
  std::atomic<int> completed{0};
  try {
    (void)ParallelFor(4, 4, [&](std::size_t i) {
      if (i == 1) throw std::runtime_error("job 1 failed");
      if (i == 2) throw std::logic_error("job 2 failed");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // The smallest-index throwing job wins, not whichever finished first.
    EXPECT_STREQ(e.what(), "job 1 failed");
  }
  EXPECT_EQ(completed, 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    constexpr std::size_t kCount = 40;
    std::vector<int> hits(kCount, 0);
    ASSERT_TRUE(
        ParallelFor(kCount, threads, [&](std::size_t i) { hits[i] += 1; })
            .ok());
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPool, ParallelForStartsBodiesInIndexOrder) {
  // Two threads, and body(i) may only return once body(i + 1) started.
  // Claiming in index order keeps i and i + 1 in flight together; any other
  // order parks both threads on indices nobody can start (the wait times
  // out and the test fails instead of hanging).
  constexpr std::size_t kCount = 32;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<bool> started(kCount, false);
  std::atomic<int> timeouts{0};
  ASSERT_TRUE(ParallelFor(kCount, 2, [&](std::size_t i) {
                std::unique_lock<std::mutex> lock(mutex);
                started[i] = true;
                cv.notify_all();
                if (i + 1 == kCount) return;
                if (!cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return bool(started[i + 1]); })) {
                  ++timeouts;
                }
              }).ok());
  EXPECT_EQ(timeouts.load(), 0);
}

TEST(ThreadPool, ParallelForRejectsEmptyRangeAndNullBody) {
  EXPECT_EQ(ParallelFor(0, 2, [](std::size_t) {}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParallelFor(3, 2, nullptr).code(), ErrorCode::kInvalidArgument);
}

TEST(ThreadPool, ParallelForInlineModeThrowsAtFirstFailingIndex) {
  std::vector<std::size_t> seen;
  EXPECT_THROW(ParallelFor(8, 1,
                           [&](std::size_t i) {
                             seen.push_back(i);
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// --- Nested use (a sweep fanned out from inside a pool worker) -----------

TEST(ThreadPool, ParallelForFromInsidePoolWorkerCompletes) {
  // The caller takes part in its own ParallelFor, so a call from the only
  // worker of a pool can neither deadlock nor leave the caller idle.
  ThreadPool pool(1);
  std::atomic<int> hits{0};
  auto outer = pool.Submit([&] {
    const Status status =
        ParallelFor(16, 4, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_TRUE(status.ok()) << status.ToString();
  });
  outer.get();
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, NestedParticipatingBatchesPropagateExceptions) {
  ThreadPool pool(1);
  auto outer = pool.Submit([&] {
    EXPECT_THROW(
        {
          (void)ParallelFor(2, 2, [](std::size_t i) {
            if (i == 1) throw std::runtime_error("inner boom");
          });
        },
        std::runtime_error);
  });
  outer.get();
}

}  // namespace
}  // namespace dgc
