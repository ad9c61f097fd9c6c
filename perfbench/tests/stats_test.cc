// Tests of perfbench's own arithmetic: the percentile and tail rules,
// utilization from busy seconds, and the host clocks.
#include <gtest/gtest.h>

#include <ctime>
#include <numeric>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);  // rank clamps to 1
}

TEST(Percentile, UnsortedInputAndMedian) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(median(v), 5);
  EXPECT_EQ(median({}), 0);
}

TEST(Tail, PicksHighestRungWithTenBeyond) {
  // n = 1000: p99 is rank 990, 10 beyond; p99.9 (rank 999) has only 1.
  const auto t = tail_percentile(one_to(1000));
  EXPECT_EQ(t.label, "p99");
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(Tail, JustBelowARungFallsToTheNext) {
  // n = 999: p99 is rank ceil(989.01) = 990, 9 beyond -> p95 (rank 950).
  const auto t = tail_percentile(one_to(999));
  EXPECT_EQ(t.label, "p95");
  EXPECT_EQ(t.value, 950);
  EXPECT_EQ(t.beyond, 49u);
}

TEST(Tail, LargeSamplesReachTheFinestRungs) {
  EXPECT_EQ(tail_percentile(one_to(10000)).label, "p99.9");
  EXPECT_EQ(tail_percentile(one_to(100000)).label, "p99.99");
}

TEST(Tail, SmallSamples) {
  // n = 20: p50 is rank 10 with 10 beyond, the last rung that qualifies.
  const auto t20 = tail_percentile(one_to(20));
  EXPECT_EQ(t20.label, "p50");
  EXPECT_EQ(t20.value, 10);
  // n = 40: p75 is rank 30 with 10 beyond.
  EXPECT_EQ(tail_percentile(one_to(40)).label, "p75");
  // n = 19: no rung has 10 beyond; the tail is the maximum.
  const auto t19 = tail_percentile(one_to(19));
  EXPECT_EQ(t19.label, "max");
  EXPECT_EQ(t19.value, 19);
  EXPECT_EQ(t19.beyond, 0u);
  // Empty sample: zero, labelled max.
  const auto t0 = tail_percentile({});
  EXPECT_EQ(t0.label, "max");
  EXPECT_EQ(t0.value, 0);
  EXPECT_EQ(t0.samples, 0u);
}

TEST(Tail, MinBeyondIsAParameter) {
  EXPECT_EQ(tail_percentile(one_to(100), /*min_beyond=*/1).label, "p99");
  EXPECT_EQ(tail_percentile(one_to(100), /*min_beyond=*/50).label, "p50");
}

TEST(Utilization, BusySecondsOverMakespan) {
  EXPECT_DOUBLE_EQ(utilization(0.25, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(utilization(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(utilization(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(utilization(1.0, 0.0), 0.0);  // empty makespan
}

TEST(HostClock, CpuTimeAdvancesWithWorkAndNotWithSleep) {
  const double c0 = process_cpu_seconds();
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1;
  const double c1 = process_cpu_seconds();
  EXPECT_GT(c1, c0);

  const CpuStopwatch sw;
  const double w0 = wall_seconds();
  timespec ts{0, 50'000'000};  // 50 ms asleep: wall advances, CPU barely
  nanosleep(&ts, nullptr);
  EXPECT_GE(wall_seconds() - w0, 0.045);
  EXPECT_LT(sw.seconds(), 0.02);
}

TEST(HostClock, ReferenceKernelTakesMeasurableCpuTime) {
  const double first = reference_kernel_seconds();
  const double second = reference_kernel_seconds();
  EXPECT_GT(first, 0.001);
  EXPECT_GT(second, 0.001);
  EXPECT_LT(second, 10 * kReferenceKernelSeconds);  // same work each call
}

TEST(HostClock, PeakRssIsPositiveAndGrows) {
  const double before = peak_rss_mib();
  EXPECT_GT(before, 0.0);
  std::vector<char> block(64u << 20, 1);  // touch 64 MiB
  EXPECT_GE(peak_rss_mib(), before + 32.0);
  EXPECT_EQ(block[12345], 1);
}

}  // namespace
}  // namespace perfbench
