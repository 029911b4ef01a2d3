#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/estimator/sliding_window.h"

namespace alert {
namespace {

TEST(SlidingWindowTest, FillsThenWraps) {
  SlidingWindow w(3);
  w.Add(1.0);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_FALSE(w.full());
  w.Add(2.0);
  w.Add(3.0);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.Add(10.0);  // evicts 1.0
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 10.0);
}

TEST(SlidingWindowTest, OldValuesFullyForgotten) {
  SlidingWindow w(4);
  for (double x : {100.0, 100.0, 100.0, 100.0}) {
    w.Add(x);
  }
  for (double x : {1.0, 1.0, 1.0, 1.0}) {
    w.Add(x);
  }
  EXPECT_DOUBLE_EQ(w.mean(), 1.0);
  EXPECT_DOUBLE_EQ(w.max(), 1.0);
}

TEST(SlidingWindowTest, VarianceOverWindow) {
  SlidingWindow w(4);
  for (double x : {2.0, 4.0, 4.0, 6.0}) {
    w.Add(x);
  }
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  EXPECT_DOUBLE_EQ(w.variance(), 2.0);
}

TEST(SlidingWindowTest, PercentileMatchesSortedOrder) {
  SlidingWindow w(5);
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    w.Add(x);
  }
  EXPECT_DOUBLE_EQ(w.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(w.Percentile(1.0), 5.0);
}

TEST(SlidingWindowTest, TailEstimateUseCase) {
  // The soft-WCET use: p99-in-window of a noisy latency stream sits well above the
  // mean but below the global max of a heavy-tailed distribution.
  Rng rng(7);
  SlidingWindow w(200);
  for (int i = 0; i < 200; ++i) {
    w.Add(rng.LogNormal(0.0, 0.2));
  }
  EXPECT_GT(w.Percentile(0.99), w.mean());
  EXPECT_LE(w.Percentile(0.99), w.max());
}

TEST(SlidingWindowTest, RejectsZeroCapacity) {
  EXPECT_DEATH(SlidingWindow(0), "capacity");
}

}  // namespace
}  // namespace alert
