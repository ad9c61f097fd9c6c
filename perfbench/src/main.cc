// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload zoo-roundtrip|fleet-churn|gpt-async --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced (--trace 0): runs sessions until S seconds of wall time have
// passed (at least the workload's fixed count of virtual-time sessions),
// then prints the end-to-end metrics. Virtual-time metrics come from the
// first, fixed number of sessions, so they are a pure function of the seed;
// host-time metrics are medians over every session (setup_s over every
// testbed build), at the reference speed of stats.h.
//
// Traced (--trace 1): runs every session twice back to back, once untraced
// and once with spans recorded around every call into a layer, for the same
// number of sessions; prints the per-layer metrics and span table, writes a
// Chrome trace to DIR, and reports the tracing overhead as the host CPU
// difference between the two passes (the benchmark's own checks and probes
// excluded). Layer counts come from the fixed virtual-time sessions, host
// ratios from every session.
//
// The last line of stdout is one JSON object; the process exits 1 when any
// output check failed (restore CRC, fsck after recover, committed epoch).
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/strformat.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload zoo-roundtrip|fleet-churn|gpt-async --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = val == "1";
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "zoo-roundtrip") return make_zoo_roundtrip();
  if (name == "fleet-churn") return make_fleet_churn();
  if (name == "gpt-async") return make_gpt_async();
  usage("unknown workload " + name);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

struct RunResult {
  std::vector<Tally> tallies;
  // Host CPU over all sessions, set-up included, the benchmark's own checks
  // and probes excluded.
  double cpu_s = 0.0;
};

// Runs sessions 0, 1, ... until `seconds` of wall time have passed (at
// least `min_sessions`). Each session runs once per span log in `passes`,
// back to back with the same seed, so the passes see identical work; the
// order of the passes alternates between sessions so neither pass always
// runs on a warmer heap.
std::vector<RunResult> run_sessions(Workload& wl, const Args& args,
                                    const std::vector<SpanLog*>& passes, int min_sessions,
                                    double seconds) {
  std::vector<RunResult> out(passes.size());
  const double t0 = wall_seconds();
  for (int i = 0; i < min_sessions || wall_seconds() - t0 < seconds; ++i) {
    for (std::size_t k = 0; k < passes.size(); ++k) {
      const std::size_t p = i % 2 == 0 ? k : passes.size() - 1 - k;
      SpanLog& spans = *passes[p];
      const double reference_before = reference_kernel_seconds();
      const CpuStopwatch cpu;
      Tally& t = out[p].tallies.emplace_back();
      SessionCtx ctx{.seed = mix_seed(args.seed, static_cast<std::uint64_t>(i)),
                     .index = i,
                     .spans = spans,
                     .tally = t};
      {
        ScopedSpan session{spans, "session", portus::strf("session {}", i), 0};
        try {
          wl.session(ctx);
        } catch (const std::exception& e) {
          t.errors.push_back(portus::strf("session {} aborted: {}", i, e.what()));
          ++t.failed;
          ++t.attempted;
        }
      }
      t.spans_so_far = spans.size();
      out[p].cpu_s += cpu.seconds() - t.bench_cpu_s;
      t.reference_s = (reference_before + reference_kernel_seconds()) / 2.0;
    }
  }
  return out;
}

std::vector<Metric> end_to_end(const RunResult& rr, const Workload& wl,
                               std::vector<std::string>& notes) {
  const int virtual_sessions = wl.virtual_sessions();
  std::vector<double> ckpt, high, restore, gbps;
  double iters = 0, train_s = 0, stall_s = 0;
  for (int i = 0; i < virtual_sessions; ++i) {
    const auto& t = rr.tallies[static_cast<std::size_t>(i)];
    ckpt.insert(ckpt.end(), t.ckpt_ms.begin(), t.ckpt_ms.end());
    high.insert(high.end(), t.high_ckpt_ms.begin(), t.high_ckpt_ms.end());
    restore.insert(restore.end(), t.restore_ms.begin(), t.restore_ms.end());
    gbps.insert(gbps.end(), t.ckpt_gbps.begin(), t.ckpt_gbps.end());
    iters += t.train_iters;
    train_s += t.train_seconds;
    stall_s += t.stall_seconds;
  }
  std::vector<double> host_rate, setup;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& t : rr.tallies) {
    // Host times at the reference speed: scaled by how much longer (or
    // shorter) the reference kernel took around this session than
    // kReferenceKernelSeconds. The same rule on every workload and metric.
    const double scale = ratio(kReferenceKernelSeconds, t.reference_s);
    host_rate.push_back(ratio(static_cast<double>(t.host_ops), t.measured_cpu_s * scale));
    for (const double s : t.setup_cpu_s) setup.push_back(s * scale);
    attempted += t.attempted;
    failed += t.failed;
  }
  const Tail ckpt_tail = tail_percentile(ckpt);
  const Tail high_tail = tail_percentile(high);
  const Tail restore_tail = tail_percentile(restore);
  const auto describe = [&](const char* name, const Tail& tl) {
    notes.push_back(portus::strf("{} is {} of {} samples ({} beyond)", name, tl.label,
                                 tl.samples, tl.beyond));
  };
  describe("ckpt_tail_ms", ckpt_tail);
  describe("high_ckpt_tail_ms", high_tail);
  describe("restore_tail_ms", restore_tail);
  notes.push_back(portus::strf("fail_share = {}/{} = {} (share)", failed, attempted,
                               ratio(static_cast<double>(failed), static_cast<double>(attempted))));
  notes.push_back(portus::strf("sessions: {} ({} give the virtual-time metrics)",
                               rr.tallies.size(), virtual_sessions));
  return {
      {"ckpt_p50_ms", median(ckpt), "ms"},
      {"ckpt_tail_ms", ckpt_tail.value, "ms"},
      {"high_ckpt_tail_ms", high_tail.value, "ms"},
      {"restore_p50_ms", median(restore), "ms"},
      {"restore_tail_ms", restore_tail.value, "ms"},
      {"ckpt_gbps", median(gbps), "GB/s"},
      {"train_iters_per_s", ratio(iters, train_s), "1/s"},
      {"stall_share", ratio(stall_s, train_s), "share"},
      {"host_ops_per_s", median(host_rate), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

// Counts and virtual-time ratios come from the first V sessions, like the
// end-to-end virtual-time metrics, so they are a pure function of the seed
// and not of how many sessions the host fits in; host-time ratios use
// every session.
std::vector<Metric> per_layer(const RunResult& traced, int virtual_sessions,
                              double overhead_pct) {
  const auto v = static_cast<std::size_t>(virtual_sessions);
  Counters L, H;
  double host_cpu_s = 0, stall_s = 0, worst_op_s = 0;
  for (std::size_t i = 0; i < traced.tallies.size(); ++i) {
    const auto& t = traced.tallies[i];
    H.merge(t.layers);
    host_cpu_s += t.measured_cpu_s;
    if (i >= v) continue;
    L.merge(t.layers);
    stall_s += t.stall_seconds;
    for (const auto* ms : {&t.ckpt_ms, &t.restore_ms}) {
      if (!ms->empty()) {
        worst_op_s = std::max(worst_op_s, *std::max_element(ms->begin(), ms->end()) / 1e3);
      }
    }
  }
  const auto g = [&](const char* key) { return L.get(key); };
  const auto h = [&](const char* key) { return H.get(key); };
  const double ops = g("client.ops");  // client checkpoint + restore ops
  const double allocs = g("alloc.allocs");
  const double makespan = g("links.makespan_s");
  return {
      {"client.ctrl_us_per_op", ratio(g("client.latency_s") - g("pipeline.busy_s"), ops) * 1e6,
       "us"},
      {"client.retries_per_op", ratio(g("client.retries"), ops), "count/op"},
      {"client.backpressure", g("client.backpressure"), "count"},
      {"admission.wait_share", ratio(g("admission.wait_s"), g("client.latency_s")), "share"},
      {"admission.wait_max_share", ratio(g("admission.wait_s_max"), worst_op_s), "share"},
      {"admission.rejected", g("admission.rejected"), "count"},
      {"admission.paced", g("admission.paced"), "count"},
      {"admission.paused_share", ratio(g("admission.paused_s"), makespan), "share"},
      {"pipeline.busy_ms_per_op", ratio(g("pipeline.busy_s"), g("daemon.ops")) * 1e3, "ms"},
      {"pipeline.mean_window", ratio(g("pipeline.window_chunk_s"), g("pipeline.busy_s")),
       "chunks"},
      {"pipeline.queue_delay_us_mean",
       ratio(g("pipeline.queue_delay_s"), g("pipeline.chunks")) * 1e6, "us"},
      {"pipeline.wrs_per_op", ratio(g("pipeline.wrs"), g("daemon.ops")), "count/op"},
      {"pipeline.bytes_per_wr", ratio(g("pipeline.rdma_bytes"), g("pipeline.wrs")), "B"},
      {"pipeline.doorbells_per_window", ratio(g("pipeline.doorbells"), g("pipeline.windows")),
       "count"},
      {"pipeline.local_chunk_share", ratio(g("pipeline.local_chunks"), g("pipeline.chunks")),
       "share"},
      {"alloc.ops", allocs + g("alloc.frees"), "count"},
      {"alloc.reuse_ratio", ratio(g("alloc.reuse_hits"), allocs), "share"},
      {"alloc.steal_ratio", ratio(g("alloc.steals"), allocs), "share"},
      {"alloc.scan_steps_per_alloc", ratio(g("alloc.scan_steps"), allocs), "count"},
      {"alloc.live_over_consumed", ratio(g("alloc.live_bytes"), g("alloc.consumed_bytes")),
       "share"},
      {"repack.passes", g("repack.passes"), "count"},
      {"repack.freed_mib", g("repack.freed_bytes") / (1024.0 * 1024.0), "MiB"},
      {"repack.pause_share", ratio(g("repack.paused_s"), makespan), "share"},
      {"rdma.ops_per_op", ratio(g("rdma.ops"), ops), "count/op"},
      {"rdma.gib", g("rdma.bytes") / (1024.0 * 1024.0 * 1024.0), "GiB"},
      {"util.nic_server", ratio(g("links.nic_server"), makespan), "share"},
      {"util.nic_client", ratio(g("links.nic_client"), makespan), "share"},
      {"util.pcie", ratio(g("links.pcie"), makespan), "share"},
      {"util.pmem_write", ratio(g("links.pmem_write"), makespan), "share"},
      {"util.pmem_read", ratio(g("links.pmem_read"), makespan), "share"},
      {"util.dram", ratio(g("links.dram"), makespan), "share"},
      {"pmem.persists_per_op", ratio(g("pmem.persists"), ops), "count/op"},
      {"sim.events_per_op", ratio(g("sim.events"), ops), "count/op"},
      {"sim.host_ns_per_event", ratio(h("sim.engine_host_s"), h("sim.engine_events")) * 1e9,
       "ns"},
      {"crc.host_gbps", ratio(h("crc.bytes"), h("crc.seconds")) / 1e9, "GB/s"},
      {"checkfreq.host_share", ratio(h("checkfreq.host_s"), host_cpu_s), "share"},
      {"checkfreq.persist_gbps", ratio(g("checkfreq.persist_bytes"), g("checkfreq.persist_s")) / 1e9,
       "GB/s"},
      {"checkfreq.throttled", g("checkfreq.throttled"), "count"},
      {"train.stall_ms", ratio(stall_s, virtual_sessions) * 1e3, "ms"},
      {"train.throttled_ckpts", g("train.throttled"), "count"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.spans", static_cast<double>(traced.tallies[v - 1].spans_so_far), "count"},
  };
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const auto& m : ms) {
    std::cout << portus::strf("  {:<32} {:>16.6g} {}\n", m.name, m.value, m.unit);
  }
}

int run(const Args& args) {
  auto wl = make(args.workload);
  const int vsessions = wl->virtual_sessions();
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  SpanLog off{false};
  SpanLog on{true};
  std::vector<RunResult> runs;
  if (!args.trace) {
    runs = run_sessions(*wl, args, {&off}, vsessions, args.seconds);
    metrics = end_to_end(runs[0], *wl, notes);
    print_table(portus::strf("end-to-end metrics ({}, seed {})", args.workload, args.seed).c_str(),
                metrics);
  } else {
    // Every session twice, untraced and traced: the host CPU difference
    // between the two passes is the tracing overhead.
    runs = run_sessions(*wl, args, {&off, &on}, vsessions, args.seconds);
    const RunResult& plain = runs[0];
    const RunResult& traced = runs[1];
    const double overhead = (ratio(traced.cpu_s, plain.cpu_s) - 1.0) * 100.0;
    metrics = per_layer(traced, vsessions, overhead);
    notes.push_back(portus::strf("tracing overhead: {:.3f}% host CPU ({:.3f}s traced vs "
                                 "{:.3f}s untraced over {} sessions each)",
                                 overhead, traced.cpu_s, plain.cpu_s, plain.tallies.size()));
    print_table(portus::strf("per-layer metrics ({}, seed {})", args.workload, args.seed).c_str(),
                metrics);
    std::cout << "span table (host CPU; self = not covered by child spans)\n";
    std::cout << portus::strf("  {:<10} {:>8} {:>14} {:>14} {:>14}\n", "layer", "spans",
                              "virtual ms", "host ms", "host self ms");
    for (const auto& [layer, row] : on.layer_table()) {
      std::cout << portus::strf("  {:<10} {:>8} {:>14.3f} {:>14.3f} {:>14.3f}\n", layer,
                                row.spans, row.virt_ms, row.host_ms, row.host_self_ms);
    }
    std::filesystem::create_directories(args.out_dir);
    const auto path = std::filesystem::path{args.out_dir} /
                      portus::strf("{}-seed{}.trace.json", args.workload, args.seed);
    std::ofstream out{path};
    on.write_chrome_json(out);
    notes.push_back("chrome trace: " + path.string());
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const auto& rr : runs) {
    for (const auto& t : rr.tallies) {
      attempted += t.attempted;
      failed += t.failed;
      errors.insert(errors.end(), t.errors.begin(), t.errors.end());
    }
  }
  for (const auto& n : notes) std::cout << "  " << n << "\n";
  for (const auto& e : errors) std::cout << "  CHECK FAILED: " << e << "\n";
  const bool correct = errors.empty() && attempted > 0;

  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    errs += (i ? ", " : "") + json_string(errors[i]);
  }
  errs += "]";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": "
            << json_metrics(metrics) << ", \"errors\": " << errs << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
