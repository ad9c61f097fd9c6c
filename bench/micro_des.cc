// Host cost of the discrete-event engine (sim/engine.h), measured with
// google-benchmark:
//   BM_ResumeEvents/N          coroutine resume events, N processes all awake
//   BM_CallbackEvents/N        callback events beside N parked processes
//   BM_SpawnRetire/N           spawn-to-retire of a process beside N parked ones
//   BM_ResettableChurn/N       create + destroy of a SimMutex beside N registered
// Each runs at N = 10 and N = 10,000. The engine's bookkeeping is O(1) per
// event, so the per-item cost at 10,000 must stay within kMaxScaling of the
// cost at 10 (a binary heap adds only its log factor). The binary exits
// non-zero when a family breaks that bound, so a short run in ctest
// (`micro_des --benchmark_min_time=0.05`) catches a return to O(n).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/sync.h"

namespace portus::sim {
namespace {

using namespace std::chrono_literals;

constexpr double kMaxScaling = 8.0;

Process park(Engine& eng) { co_await eng.sleep(1h); }

Process tick_forever(Engine& eng) {
  for (;;) co_await eng.sleep(1ns);
}

Process finish_at_once() { co_return; }

void BM_ResumeEvents(benchmark::State& state) {
  const auto live = static_cast<int>(state.range(0));
  Engine eng;
  for (int i = 0; i < live; ++i) eng.spawn(tick_forever(eng));
  eng.run_until(eng.now());
  for (auto _ : state) {
    eng.run_until(eng.now() + 1ns);  // every process wakes once
  }
  state.SetItemsProcessed(state.iterations() * live);
  benchmark::DoNotOptimize(eng.events_processed());
}

void BM_CallbackEvents(benchmark::State& state) {
  Engine eng;
  for (int i = 0; i < state.range(0); ++i) eng.spawn(park(eng));
  eng.run_until(eng.now());
  std::uint64_t fired = 0;
  for (auto _ : state) {
    eng.schedule(1ns, [&fired] { ++fired; });
    eng.run_until(eng.now() + 1ns);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(fired);
}

void BM_SpawnRetire(benchmark::State& state) {
  Engine eng;
  for (int i = 0; i < state.range(0); ++i) eng.spawn(park(eng));
  eng.run_until(eng.now());
  for (auto _ : state) {
    eng.spawn(finish_at_once());
    eng.run_until(eng.now());  // runs it to completion and retires it
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(eng.events_processed());
}

void BM_ResettableChurn(benchmark::State& state) {
  Engine eng;
  std::vector<std::unique_ptr<SimMutex>> registered;
  for (int i = 0; i < state.range(0); ++i) registered.push_back(std::make_unique<SimMutex>(eng));
  for (auto _ : state) {
    SimMutex m{eng};
    benchmark::DoNotOptimize(&m);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ResumeEvents)->Arg(10)->Arg(10'000);
BENCHMARK(BM_CallbackEvents)->Arg(10)->Arg(10'000);
BENCHMARK(BM_SpawnRetire)->Arg(10)->Arg(10'000);
BENCHMARK(BM_ResettableChurn)->Arg(10)->Arg(10'000);

// Prints as the console reporter does, and keeps each run's items/s so the
// scaling bound can be checked once every benchmark has run.
class ScalingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      const auto it = run.counters.find("items_per_second");
      if (run.run_type != Run::RT_Iteration || it == run.counters.end()) continue;
      const std::string name = run.benchmark_name();
      const auto slash = name.find('/');
      rates_[name.substr(0, slash)][name.substr(slash + 1)] = it->second.value;
    }
  }

  // True when every family's per-item cost at 10,000 is within kMaxScaling
  // of its cost at 10.
  bool scaling_ok() const {
    bool ok = true;
    for (const auto& [family, by_arg] : rates_) {
      const auto small = by_arg.find("10");
      const auto large = by_arg.find("10000");
      if (small == by_arg.end() || large == by_arg.end()) continue;
      const double scaling = small->second / large->second;
      const bool pass = scaling <= kMaxScaling;
      std::printf("%-20s per-item cost at 10000 / at 10: %.2fx (bound %.0fx) %s\n",
                  family.c_str(), scaling, kMaxScaling, pass ? "ok" : "FAIL");
      ok = ok && pass;
    }
    return ok;
  }

 private:
  std::map<std::string, std::map<std::string, double>> rates_;
};

}  // namespace
}  // namespace portus::sim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  portus::sim::ScalingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return reporter.scaling_ok() ? 0 : 1;
}
