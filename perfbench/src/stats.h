// The benchmark's own arithmetic: percentiles, the tail rule, link
// utilization and the host clocks. Kept free of simulator types so the
// rules can be unit-tested on their own (perfbench/tests/stats_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an unsorted sample: the value at 1-based rank
// ceil(p/100 * n), clamped to [1, n]. Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

// The tail of a latency sample: the highest percentile on the ladder
// {50, 75, 90, 95, 99, 99.9, 99.99} that still has at least
// `min_beyond` samples ranked above it. Below 2 * min_beyond samples no
// rung qualifies and the tail is the maximum, labelled "max".
struct Tail {
  double value = 0.0;
  std::string label;       // "p99", "p99.9", ... or "max"
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked strictly above the chosen one
};
Tail tail_percentile(const std::vector<double>& values, std::size_t min_beyond = 10);

double median(std::vector<double> values);

// Share of a makespan a link was busy: the channel's busy-seconds delta
// over the virtual makespan, 0 when the makespan is empty. Busy seconds
// integrate aggregate rate / capacity, so the result lies in [0, 1] for a
// channel that never exceeds its capacity.
double utilization(double busy_seconds_delta, double makespan_seconds);

// Host clocks. process_cpu_seconds() is the CPU time of the whole process
// (all threads), the benchmark's host clock; wall_seconds() is monotonic
// wall time, used only to bound how long a run measures.
double process_cpu_seconds();
double wall_seconds();
// Peak resident set of this process in MiB.
double peak_rss_mib();

// Host CPU seconds of a fixed reference kernel: a chain of 20 million
// dependent integer multiply-xor steps. It touches no memory, so its time
// depends neither on the heap nor on the caches a workload leaves behind,
// and it is not repository code, so no change to the program moves it. On
// a shared host the CPU speed this process gets drifts by tens of percent
// for minutes at a time, and the kernel's time drifts with it: host
// metrics are reported at the reference speed, at which the kernel takes
// kReferenceKernelSeconds (perfbench/README.md has the measurements).
double reference_kernel_seconds();
// About the kernel's time on a quiet 4-core x86-64 virtual machine.
inline constexpr double kReferenceKernelSeconds = 0.040;

// CPU time elapsed since construction.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_{process_cpu_seconds()} {}
  double seconds() const { return process_cpu_seconds() - start_; }

 private:
  double start_;
};

}  // namespace perfbench
