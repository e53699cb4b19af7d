#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace pjoin {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(42), 42);
}

Result<int> Doubled(int x) {
  PJOIN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInClosedRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximately) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.25);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.NowMicros(), 250);
  clock.AdvanceBy(50);
  EXPECT_EQ(clock.NowMicros(), 300);
}

TEST(WallClockTest, MovesForward) {
  WallClock clock;
  TimeMicros a = clock.NowMicros();
  TimeMicros b = clock.NowMicros();
  EXPECT_GE(b, a);
}

TEST(TimeSeriesTest, RecordsAllWithoutInterval) {
  TimeSeries ts;
  ts.Record(0, 1);
  ts.Record(1, 2);
  ts.Record(1, 3);
  EXPECT_EQ(ts.samples().size(), 3u);
  EXPECT_EQ(ts.MaxValue(), 3);
  EXPECT_EQ(ts.LastValue(), 3);
  EXPECT_DOUBLE_EQ(ts.MeanValue(), 2.0);
}

TEST(TimeSeriesTest, ThinsByInterval) {
  TimeSeries ts(10);
  ts.Record(0, 1);
  ts.Record(5, 2);   // dropped: within 10 of previous
  ts.Record(10, 3);  // kept
  ts.Record(25, 4);  // kept
  EXPECT_EQ(ts.samples().size(), 3u);
}

TEST(TimeSeriesTest, ResampleCarriesLastForward) {
  TimeSeries ts;
  ts.Record(10, 5);
  ts.Record(90, 9);
  auto grid = ts.Resample(100, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].time, 25);
  EXPECT_EQ(grid[0].value, 5);
  EXPECT_EQ(grid[2].value, 5);
  EXPECT_EQ(grid[3].value, 9);
}

TEST(CounterSetTest, AddAndGet) {
  CounterSet c;
  EXPECT_EQ(c.Get("x"), 0);
  c.Add("x");
  c.Add("x", 4);
  c.Add("y", 2);
  EXPECT_EQ(c.Get("x"), 5);
  EXPECT_EQ(c.Get("y"), 2);
  EXPECT_EQ(c.ToString(), "x=5 y=2");
  c.Reset();
  EXPECT_EQ(c.Get("x"), 0);
}

}  // namespace
}  // namespace pjoin
