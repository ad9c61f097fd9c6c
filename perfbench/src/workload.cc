#include "workload.h"

#include <algorithm>

#include "common/crc32.h"
#include "stats.h"

namespace perfbench {

void Counters::merge(const Counters& other) {
  for (const auto& [key, v] : other.values_) {
    if (key.size() >= 4 && key.compare(key.size() - 4, 4, "_max") == 0) {
      keep_max(key, v);
    } else {
      add(key, v);
    }
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 over seed ^ salt-stream: distinct, well-spread sub-seeds.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

LayerProbe::LayerProbe(net::Cluster& cluster, std::vector<core::PortusDaemon*> daemons,
                       std::vector<std::string> client_nodes,
                       std::vector<std::string> storage_nodes)
    : cluster_{cluster}, daemons_{std::move(daemons)} {
  for (const auto& name : client_nodes) {
    auto& node = cluster_.node(name);
    links_.push_back({"nic_client", &node.nic().link()});
    links_.push_back({"dram", &node.dram_channel()});
    for (std::size_t g = 0; g < node.gpu_count(); ++g) {
      links_.push_back({"pcie", &node.gpu(g).pcie()});
    }
  }
  for (const auto& name : storage_nodes) {
    auto& node = cluster_.node(name);
    links_.push_back({"nic_server", &node.nic().link()});
    links_.push_back({"dram", &node.dram_channel()});
    if (node.has_devdax()) {
      links_.push_back({"pmem_write", &node.devdax_write_channel()});
      links_.push_back({"pmem_read", &node.devdax_read_channel()});
    }
  }
}

LayerProbe::DaemonSnap LayerProbe::snap(core::PortusDaemon& d) {
  DaemonSnap s;
  s.stats = d.stats();
  if (d.admission() != nullptr) s.admission = d.admission()->stats();
  for (const auto& sh : d.allocator().shard_stats()) {
    s.allocs += sh.allocs;
    s.frees += sh.frees;
    s.reuse_hits += sh.reuse_hits;
    s.steals += sh.steals;
    s.scan_steps += sh.scan_steps;
  }
  s.persists = d.device().persist_seq();
  return s;
}

void LayerProbe::begin() {
  for (auto& l : links_) l.busy0 = l.channel->busy_seconds();
  begin_.clear();
  for (auto* d : daemons_) begin_.push_back(snap(*d));
  virt0_ = cluster_.engine().now().count();
  fabric_ops0_ = cluster_.fabric().ops_executed();
  fabric_bytes0_ = static_cast<double>(cluster_.fabric().bytes_moved());
  events0_ = cluster_.engine().events_processed();
}

void LayerProbe::end(Counters& out) const {
  const double makespan =
      static_cast<double>(cluster_.engine().now().count() - virt0_) / 1e9;
  out.add("links.makespan_s", makespan);
  // Per link kind, the busiest instance's utilization, weighted by the
  // makespan so sessions combine into one time-weighted figure.
  std::map<std::string, double> busiest;
  for (const auto& l : links_) {
    auto& b = busiest[l.kind];
    b = std::max(b, utilization(l.channel->busy_seconds() - l.busy0, makespan));
  }
  for (const auto& [kind, util] : busiest) out.add("links." + kind, util * makespan);

  out.add("rdma.ops", static_cast<double>(cluster_.fabric().ops_executed() - fabric_ops0_));
  out.add("rdma.bytes",
          static_cast<double>(cluster_.fabric().bytes_moved()) - fabric_bytes0_);
  out.add("sim.events",
          static_cast<double>(cluster_.engine().events_processed() - events0_));

  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    auto& d = *daemons_[i];
    const DaemonSnap now = snap(d);
    const DaemonSnap& was = begin_[i];
    const auto delta = [](auto a, auto b) { return static_cast<double>(a - b); };
    const auto& s = now.stats;
    const auto& s0 = was.stats;
    out.add("daemon.ops", delta(s.checkpoints + s.restores, s0.checkpoints + s0.restores));
    out.add("daemon.backpressure", delta(s.backpressure_rejects, s0.backpressure_rejects));
    out.add("pipeline.busy_s", s.pipeline_busy_seconds - s0.pipeline_busy_seconds);
    out.add("pipeline.window_chunk_s", s.window_chunk_seconds - s0.window_chunk_seconds);
    out.add("pipeline.queue_delay_s", portus::to_seconds(s.queue_delay_total - s0.queue_delay_total));
    out.add("pipeline.chunks", delta(s.chunks_posted, s0.chunks_posted));
    out.add("pipeline.local_chunks", delta(s.local_chunks, s0.local_chunks));
    out.add("pipeline.wrs", delta(s.wrs_posted, s0.wrs_posted));
    out.add("pipeline.rdma_bytes", delta(s.rdma_bytes, s0.rdma_bytes));
    out.add("pipeline.doorbells", delta(s.doorbells, s0.doorbells));
    out.add("pipeline.windows", delta(s.admission_windows, s0.admission_windows));

    const auto& a = now.admission;
    const auto& a0 = was.admission;
    out.add("admission.admitted", delta(a.admitted, a0.admitted));
    out.add("admission.rejected", delta(a.rejected, a0.rejected));
    out.add("admission.paced", delta(a.paced, a0.paced));
    out.add("admission.wait_s", portus::to_seconds(a.queue_wait_total - a0.queue_wait_total));
    out.keep_max("admission.wait_s_max", portus::to_seconds(a.queue_wait_max));
    out.add("admission.paused_s", portus::to_seconds(a.paused_total - a0.paused_total));

    out.add("alloc.allocs", delta(now.allocs, was.allocs));
    out.add("alloc.frees", delta(now.frees, was.frees));
    out.add("alloc.reuse_hits", delta(now.reuse_hits, was.reuse_hits));
    out.add("alloc.steals", delta(now.steals, was.steals));
    out.add("alloc.scan_steps", delta(now.scan_steps, was.scan_steps));
    out.add("alloc.live_bytes", static_cast<double>(d.allocator().live_bytes()));
    out.add("alloc.consumed_bytes", static_cast<double>(d.allocator().consumed_bytes()));

    out.add("pmem.persists", delta(now.persists, was.persists));
  }
}

void run_engine(sim::Engine& engine, sim::Process root, SessionCtx& ctx, const char* what) {
  ScopedSpan span{ctx.spans, "engine", what, engine.now().count()};
  const std::uint64_t events0 = engine.events_processed();
  const CpuStopwatch cpu;
  auto proc = engine.spawn(std::move(root));
  engine.run();
  ctx.tally.layers.add("sim.engine_host_s", cpu.seconds());
  ctx.tally.layers.add("sim.engine_events",
                       static_cast<double>(engine.events_processed() - events0));
  span.set_end(engine.now().count());
  proc.check();
}

void time_crc(const std::vector<std::byte>& bytes, Counters& layers) {
  const CpuStopwatch cpu;
  portus::Crc32::of(bytes);
  layers.add("crc.seconds", cpu.seconds());
  layers.add("crc.bytes", static_cast<double>(bytes.size()));
}

}  // namespace perfbench
