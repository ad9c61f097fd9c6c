#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// Nearest rank (1-based) of percentile p in a sample of n. The epsilon
// keeps decimal rungs such as 99.9 from rounding up a whole rank.
std::size_t rank_of(double p, std::size_t n) {
  const auto r =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

std::string rung_label(double p) {
  std::string s = std::to_string(p);
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return "p" + s;
}

volatile std::uint64_t g_kernel_sink = 0;  // keeps the reference kernel's work live

double seconds_of(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t r = rank_of(p, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   values.end());
  return values[r - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

Tail tail_percentile(const std::vector<double>& values, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    tail.label = "max";
    return tail;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  for (const double p : kLadder) {
    const std::size_t r = rank_of(p, n);
    if (n - r >= min_beyond) {
      tail.value = sorted[r - 1];
      tail.label = rung_label(p);
      tail.beyond = n - r;
      return tail;
    }
  }
  tail.value = sorted.back();
  tail.label = "max";
  return tail;
}

double utilization(double busy_seconds_delta, double makespan_seconds) {
  return makespan_seconds > 0.0 ? busy_seconds_delta / makespan_seconds : 0.0;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return seconds_of(ts);
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return seconds_of(ts);
}

double reference_kernel_seconds() {
  const CpuStopwatch cpu;
  std::uint64_t h = 1;
  for (std::uint32_t i = 0; i < 20'000'000; ++i) {
    h = h * 6364136223846793005ull + i;
    h ^= h >> 29;
  }
  g_kernel_sink = h;
  return cpu.seconds();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
