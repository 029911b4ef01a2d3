#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace alert {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr int kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(kCount, [&](int i) { visits[static_cast<size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroAndNegativeCountsAreNoOps) {
  int calls = 0;
  ParallelFor(0, [&](int) { ++calls; });
  ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ParallelFor(0, [](int) { FAIL(); });
}

TEST(ParallelForTest, SingleThreadFallback) {
  int sum = 0;
  ParallelFor(10, [&](int i) { sum += i; }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, PropagatesWorkerExceptionInsteadOfTerminating) {
  EXPECT_THROW(
      ParallelFor(
          64, [](int i) {
            if (i == 17) {
              throw std::runtime_error("worker failure");
            }
          },
          /*max_threads=*/4),
      std::runtime_error);
}

TEST(ParallelForTest, PropagatedExceptionCarriesTheWorkerMessage) {
  try {
    ParallelFor(
        8, [](int) { throw std::runtime_error("boom"); }, /*max_threads=*/4);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelForTest, FailureStopsHandingOutNewIndices) {
  // After a worker throws, remaining indices are abandoned; with one item per worker
  // round this must keep the processed count well below the total.
  constexpr int kCount = 100000;
  std::atomic<int> processed{0};
  EXPECT_THROW(ParallelFor(
                   kCount,
                   [&](int i) {
                     if (i == 0) {
                       throw std::logic_error("early failure");
                     }
                     processed.fetch_add(1);
                   },
                   /*max_threads=*/4),
               std::logic_error);
  EXPECT_LT(processed.load(), kCount);
}

TEST(ParallelForTest, SerialPathPropagatesToo) {
  EXPECT_THROW(ParallelFor(
                   4, [](int i) {
                     if (i == 2) {
                       throw std::runtime_error("serial failure");
                     }
                   },
                   /*max_threads=*/1),
               std::runtime_error);
}

}  // namespace
}  // namespace alert
