// Workload interface and the probes every workload shares.
//
// A run is a sequence of *sessions*. Each session builds its own simulated
// testbed (the timed set-up), drives the workload's measured phase, checks
// the outputs, and tears the testbed down. Session i takes the seed
// mix(seed, i), so a session's virtual-time results are a pure function of
// the run's seed and i.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/daemon/daemon.h"
#include "net/cluster.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace core = portus::core;
namespace net = portus::net;
namespace sim = portus::sim;

// Named sums (and maxima) the per-layer metrics are computed from.
class Counters {
 public:
  void add(const std::string& key, double v) { values_[key] += v; }
  void keep_max(const std::string& key, double v) {
    auto& slot = values_[key];
    if (v > slot) slot = v;
  }
  double get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? 0.0 : it->second;
  }
  // Sums add, keys that hold maxima ("*_max") keep the larger value.
  void merge(const Counters& other);

 private:
  std::map<std::string, double> values_;
};

// What one session contributes to the run's metrics.
struct Tally {
  // Virtual-time samples of client-visible op latency, in ms.
  std::vector<double> ckpt_ms;
  std::vector<double> high_ckpt_ms;  // highest priority class present
  std::vector<double> restore_ms;
  // Per checkpoint op: bytes made durable / latency, in GB/s.
  std::vector<double> ckpt_gbps;
  // Training view, summed over jobs: iterations run, the virtual time they
  // took (compute plus checkpoint stall), and the stall part of it.
  double train_iters = 0.0;
  double train_seconds = 0.0;
  double stall_seconds = 0.0;
  // Client ops attempted / failed after all retries.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Host side: ops completed in the measured phase and its CPU seconds.
  std::uint64_t host_ops = 0;
  double measured_cpu_s = 0.0;
  // Host CPU seconds of each testbed build (see timed_setups).
  std::vector<double> setup_cpu_s;
  // Mean CPU seconds of the reference kernel (stats.h) timed just before
  // and just after the session, outside every window above.
  double reference_s = 0.0;
  // Host CPU of the benchmark's own checks and probes (verification CRCs,
  // weight painting, the CRC probe), kept out of the tracing overhead.
  double bench_cpu_s = 0.0;
  // Spans recorded by the run's span log up to the end of this session.
  std::size_t spans_so_far = 0;
  // Correctness failures (restore CRC mismatch, unclean fsck, lost epoch).
  std::vector<std::string> errors;
  Counters layers;
};

struct SessionCtx {
  std::uint64_t seed = 0;
  int index = 0;
  SpanLog& spans;
  Tally& tally;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Sessions whose virtual-time results form the run's end-to-end
  // metrics; fixing the count keeps them deterministic per seed.
  virtual int virtual_sessions() const = 0;
  virtual void session(SessionCtx& ctx) = 0;
};

std::unique_ptr<Workload> make_zoo_roundtrip();
std::unique_ptr<Workload> make_fleet_churn();
std::unique_ptr<Workload> make_gpt_async();

// Snapshot of every layer counter of one testbed; end() adds the deltas
// since begin() to a Counters under the per-layer key names.
class LayerProbe {
 public:
  LayerProbe(net::Cluster& cluster, std::vector<core::PortusDaemon*> daemons,
             std::vector<std::string> client_nodes, std::vector<std::string> storage_nodes);
  void begin();
  void end(Counters& out) const;

 private:
  struct Link {
    std::string kind;
    sim::BandwidthChannel* channel;
    double busy0 = 0.0;
  };
  struct DaemonSnap {
    core::PortusDaemon::Stats stats;
    core::AdmissionController::Stats admission;
    std::uint64_t allocs = 0, frees = 0, reuse_hits = 0, steals = 0, scan_steps = 0;
    std::uint64_t persists = 0;
  };
  static DaemonSnap snap(core::PortusDaemon& d);

  net::Cluster& cluster_;
  std::vector<core::PortusDaemon*> daemons_;
  std::vector<Link> links_;
  std::vector<DaemonSnap> begin_;
  std::int64_t virt0_ = 0;
  std::uint64_t fabric_ops0_ = 0;
  double fabric_bytes0_ = 0.0;
  std::uint64_t events0_ = 0;
};

// Builds the session's testbed `times` times with `build` (which returns a
// unique_ptr to a rig with an `eng`), timing each build's host CPU into
// ctx.tally.setup_cpu_s under a "setup" span, and keeps the last rig. A
// set-up is short and its host time noisy, so a run reports the median over
// many builds.
template <class Build>
auto timed_setups(SessionCtx& ctx, int times, const char* name, Build build) {
  decltype(build()) rig;
  for (int k = 0; k < times; ++k) {
    rig.reset();
    ScopedSpan span{ctx.spans, "setup", name, 0};
    const CpuStopwatch cpu;
    rig = build();
    ctx.tally.setup_cpu_s.push_back(cpu.seconds());
    span.set_end(rig->eng.now().count());
    if (k + 1 < times) ctx.spans.advance_virtual_base(rig->eng.now().count());
  }
  return rig;
}

// Run the engine to quiescence under an "engine.run" span, charging its
// host CPU time and events to `layers`; rethrows a failed root process.
void run_engine(sim::Engine& engine, sim::Process root, SessionCtx& ctx,
                const char* what);

// Time Crc32::of over `bytes` (host), adding to crc.bytes / crc.seconds.
void time_crc(const std::vector<std::byte>& bytes, Counters& layers);

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
