// fleet-churn: the loaded control path on phantom payloads.
//
// Four tenancy daemons (sharded allocator, every datapath knob at its
// default) serve 1000 tenants — past the admission knee, where bench/
// fleet_sweep first sees Backpressure. Each tenant is a closed loop: an
// exponential think time, a checkpoint, repeated. When every loop is done
// the fleet restarts: all tenants restore their newest epoch at once. Classes are exactly 15% high / 60% normal / 25% batch,
// assigned by the seed. While the live fleet runs, a FleetGen cohort
// registers, checkpoints and finishes, every daemon sweeps the cohort's
// garbage with Repacker::repack_online under live traffic, and a second
// cohort allocates from the freed extents.
#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/strformat.h"
#include "core/client.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "core/fleet/fleet_gen.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace dnn = portus::dnn;
using portus::Bytes;
using portus::Duration;
using portus::Rng;
using portus::strf;
using namespace portus::literals;

namespace {

constexpr int kDaemons = 4;
constexpr int kTenants = 1000;
constexpr int kCheckpointsPerTenant = 4;
constexpr int kCohortTenants = 150;  // per cohort; two cohorts per session
constexpr int kCohortCheckpoints = 3;
constexpr int kVirtualSessions = 12;
constexpr int kSetups = 3;  // testbed builds per session
constexpr int kTensorsPerModel = 8;

struct ClassShape {
  core::PriorityClass cls;
  double fraction;
  Bytes model_bytes;
  Duration period;  // mean think time between checkpoints
};
// Model size and cadence are class-correlated as in FleetGen: production
// jobs are big and checkpoint rarely, batch jobs are small and spam.
const ClassShape kClasses[] = {
    {core::PriorityClass::kHigh, 0.15, 128_MiB, Duration{60'000'000'000}},
    {core::PriorityClass::kNormal, 0.6, 32_MiB, Duration{5'000'000'000}},
    {core::PriorityClass::kBatch, 0.25, 8_MiB, Duration{60'000'000}},
};

struct Tenant {
  int index = 0;
  core::PriorityClass cls = core::PriorityClass::kNormal;
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::PortusClient> client;
  std::vector<Duration> think;
  std::uint64_t committed = 0;  // newest committed epoch
};

struct FleetRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::sharded_testbed(eng, kDaemons);
  core::QpRendezvous rendezvous;
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  std::vector<std::string> endpoints;
  std::vector<Tenant> tenants;

  ~FleetRig() { eng.shutdown(); }

  std::vector<core::PortusDaemon*> daemon_ptrs() const {
    std::vector<core::PortusDaemon*> out;
    for (const auto& d : daemons) out.push_back(d.get());
    return out;
  }
};

// Exponential think times, stratified: the class's n draws take one
// uniform from each of n equal strata, shuffled across its tenants. Every
// draw is still exponential with the class mean, but the class's total
// think time barely moves between seeds, so one seed's fleet is as busy as
// another's.
void draw_think_times(std::vector<Tenant>& tenants, Rng& rng) {
  for (const auto& shape : kClasses) {
    std::vector<Tenant*> members;
    for (auto& t : tenants) {
      if (t.cls == shape.cls) members.push_back(&t);
    }
    const std::size_t n = members.size() * kCheckpointsPerTenant;
    std::vector<double> u(n);
    for (std::size_t j = 0; j < n; ++j) {
      u[j] = (static_cast<double>(j) + rng.uniform_real(0.0, 1.0)) / static_cast<double>(n);
    }
    std::shuffle(u.begin(), u.end(), rng.engine());
    std::size_t j = 0;
    for (auto* t : members) {
      for (int k = 0; k < kCheckpointsPerTenant; ++k) {
        const double think = -portus::to_seconds(shape.period) * std::log1p(-u[j++]);
        t->think.push_back(portus::from_seconds(think));
      }
    }
  }
}

sim::Process register_tenant(Tenant& tn, FleetRig& rig, SpanLog& spans) {
  const std::uint64_t id = spans.open("client", "register", rig.eng.now().count());
  co_await tn.client->connect();
  co_await tn.client->register_model(*tn.model);
  spans.close(id, rig.eng.now().count());
}

sim::Process register_all(FleetRig& rig, SpanLog& spans) {
  std::vector<sim::Process> procs;
  for (auto& tn : rig.tenants) procs.push_back(rig.eng.spawn(register_tenant(tn, rig, spans)));
  for (auto& p : procs) co_await p.join();
}

sim::Process tenant_loop(Tenant& tn, FleetRig& rig, SessionCtx& ctx) {
  auto& eng = rig.eng;
  auto& t = ctx.tally;
  const double bytes = static_cast<double>(tn.model->total_bytes());
  const char* cls = core::to_string(tn.cls);
  std::uint64_t committed = 0;
  for (int k = 0; k < kCheckpointsPerTenant; ++k) {
    co_await eng.sleep(tn.think[static_cast<std::size_t>(k)]);
    const auto t0 = eng.now();
    const std::uint64_t id = ctx.spans.open("client", strf("checkpoint {}", cls), t0.count());
    ++t.attempted;
    bool ok = true;
    try {
      committed = co_await tn.client->checkpoint(*tn.model, static_cast<std::uint64_t>(k) + 1);
    } catch (const std::exception&) {
      ok = false;
    }
    const Duration lat = eng.now() - t0;
    ctx.spans.close(id, eng.now().count());
    t.train_seconds += portus::to_seconds(tn.think[static_cast<std::size_t>(k)] + lat);
    if (!ok) {
      ++t.failed;
      continue;
    }
    const double ms = portus::to_seconds(lat) * 1e3;
    t.ckpt_ms.push_back(ms);
    if (tn.cls == core::PriorityClass::kHigh) t.high_ckpt_ms.push_back(ms);
    t.ckpt_gbps.push_back(bytes / portus::to_seconds(lat) / 1e9);
    t.stall_seconds += portus::to_seconds(lat);
    t.train_iters += 1.0;
    t.layers.add("client.latency_s", portus::to_seconds(lat));
    t.layers.add("client.ops", 1);
    ++t.host_ops;
  }

  tn.committed = committed;
}

// The fleet restarts: every tenant restores its newest epoch at once.
sim::Process restore_tenant(Tenant& tn, FleetRig& rig, SessionCtx& ctx) {
  auto& eng = rig.eng;
  auto& t = ctx.tally;
  const char* cls = core::to_string(tn.cls);
  const std::uint64_t committed = tn.committed;
  const auto t0 = eng.now();
  const std::uint64_t id = ctx.spans.open("client", strf("restore {}", cls), t0.count());
  ++t.attempted;
  std::uint64_t restored = 0;
  bool ok = true;
  try {
    restored = co_await tn.client->restore(*tn.model);
  } catch (const std::exception&) {
    ok = false;
  }
  const Duration lat = eng.now() - t0;
  ctx.spans.close(id, eng.now().count());
  if (!ok) {
    ++t.failed;
    co_return;
  }
  if (committed != 0 && restored != committed) {
    t.errors.push_back(strf("tenant {}: restored epoch {} but epoch {} was committed",
                            tn.index, restored, committed));
  }
  t.restore_ms.push_back(portus::to_seconds(lat) * 1e3);
  t.layers.add("client.latency_s", portus::to_seconds(lat));
  t.layers.add("client.ops", 1);
  ++t.host_ops;
}

sim::Process repack_one(core::PortusDaemon& daemon, SessionCtx& ctx) {
  const std::uint64_t id = ctx.spans.open("repack", "repack_online " + daemon.config().endpoint,
                                          daemon.engine().now().count());
  core::Repacker repacker{daemon};
  const auto rep = co_await repacker.repack_online();
  ctx.spans.close(id, daemon.engine().now().count());
  auto& L = ctx.tally.layers;
  L.add("repack.passes", rep.passes);
  L.add("repack.freed_bytes", static_cast<double>(rep.freed_outdated + rep.freed_crashed));
  L.add("repack.paused_s", portus::to_seconds(rep.paused_time));
}

sim::Process run_cohort(core::fleet::FleetGen& cohort, FleetRig& rig, SessionCtx& ctx) {
  const std::uint64_t id = ctx.spans.open("client", "cohort", rig.eng.now().count());
  const auto report = co_await cohort.run();
  ctx.spans.close(id, rig.eng.now().count());
  auto& t = ctx.tally;
  t.attempted += static_cast<std::uint64_t>(kCohortTenants) * kCohortCheckpoints;
  t.failed += report.failures;
  t.host_ops += report.checkpoints;
  t.layers.add("client.retries", static_cast<double>(report.retries));
  t.layers.add("client.backpressure", static_cast<double>(report.backpressure));
}

sim::Process measured(FleetRig& rig, std::vector<core::fleet::FleetGen>& cohorts,
                      SessionCtx& ctx) {
  std::vector<sim::Process> live;
  for (auto& tn : rig.tenants) live.push_back(rig.eng.spawn(tenant_loop(tn, rig, ctx)));

  // While the live fleet runs: a cohort registers, checkpoints and
  // finishes; every daemon sweeps its garbage online; a second cohort then
  // allocates from the freed extents.
  co_await rig.eng.spawn(run_cohort(cohorts[0], rig, ctx)).join();
  std::vector<sim::Process> maint;
  for (auto& d : rig.daemons) maint.push_back(rig.eng.spawn(repack_one(*d, ctx)));
  for (auto& p : maint) co_await p.join();
  co_await rig.eng.spawn(run_cohort(cohorts[1], rig, ctx)).join();
  for (auto& p : live) co_await p.join();

  std::vector<sim::Process> restores;
  for (auto& tn : rig.tenants) restores.push_back(rig.eng.spawn(restore_tenant(tn, rig, ctx)));
  for (auto& p : restores) co_await p.join();
}

std::unique_ptr<FleetRig> build_rig(SessionCtx& ctx) {
  auto rig = std::make_unique<FleetRig>();
  Rng rng{mix_seed(ctx.seed, 2)};
  for (int i = 0; i < kDaemons; ++i) {
    core::PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.tenancy = true;
    cfg.model_table_capacity = 512;  // live tenants + cohort per daemon
    cfg.shards = 8;                  // sharded allocator: steals and refills
    rig->daemons.push_back(std::make_unique<core::PortusDaemon>(
        *rig->cluster, rig->cluster->node(strf("pmem{}", i)), rig->rendezvous, cfg));
    rig->daemons.back()->start();
    rig->endpoints.push_back(cfg.endpoint);
  }

  // Exact class mix, shuffled by the seed.
  std::vector<core::PriorityClass> classes;
  for (const auto& shape : kClasses) {
    const int n = static_cast<int>(std::lround(shape.fraction * kTenants));
    classes.insert(classes.end(), static_cast<std::size_t>(n), shape.cls);
  }
  classes.resize(kTenants, core::PriorityClass::kNormal);
  std::shuffle(classes.begin(), classes.end(), rng.engine());

  auto& node = rig->cluster->node("client-volta");
  rig->tenants.resize(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    auto& tn = rig->tenants[static_cast<std::size_t>(i)];
    tn.index = i;
    tn.cls = classes[static_cast<std::size_t>(i)];
    const auto& shape = kClasses[static_cast<int>(tn.cls)];
    auto& gpu = node.gpu(static_cast<std::size_t>(i) % node.gpu_count());
    tn.model = std::make_unique<dnn::Model>(strf("live/t{:04}", i), gpu);
    const Bytes model_bytes = static_cast<Bytes>(static_cast<double>(shape.model_bytes) *
                                                 rng.uniform_real(0.9, 1.1));
    const Bytes per_tensor = model_bytes / kTensorsPerModel / 4 * 4;
    for (int k = 0; k < kTensorsPerModel; ++k) {
      tn.model->add_tensor(
          dnn::TensorMeta{.name = strf("w{}", k),
                          .dtype = dnn::DType::kF32,
                          .shape = {static_cast<std::int64_t>(per_tensor / 4)}},
          /*phantom=*/true);
    }
    tn.client = std::make_unique<core::PortusClient>(
        *rig->cluster, node, gpu, rig->rendezvous,
        rig->endpoints[static_cast<std::size_t>(i) % rig->endpoints.size()]);
    tn.client->set_tenant(core::PortusClient::TenantSpec{
        .id = strf("live-{:04}", i),
        .priority = static_cast<std::uint8_t>(tn.cls),
        .requested_capacity = 0,
        .requested_rate = 0});
    // The saturation transient lasts seconds; the retry budget must
    // outlast it so Backpressure turns into delay, not failure.
    tn.client->set_retry_policy(core::PortusClient::RetryPolicy{
        .max_retries = 30,
        .base_backoff = Duration{500'000},
        .max_backoff = Duration{400'000'000},
        .retry_timeouts = false,
        .jitter_seed = mix_seed(ctx.seed, 1000 + static_cast<std::uint64_t>(i))});
  }
  draw_think_times(rig->tenants, rng);
  run_engine(rig->eng, register_all(*rig, ctx.spans), ctx, "register");
  return rig;
}

class FleetChurn final : public Workload {
 public:
  int virtual_sessions() const override { return kVirtualSessions; }

  void session(SessionCtx& ctx) override {
    auto& t = ctx.tally;
    auto built = timed_setups(ctx, kSetups, "fleet setup", [&] { return build_rig(ctx); });
    FleetRig& rig = *built;

    std::vector<core::fleet::FleetGen> cohorts;
    for (const char* prefix : {"cohort-a", "cohort-b"}) {
      core::fleet::FleetConfig cc;
      cc.tenants = kCohortTenants;
      cc.checkpoints_per_tenant = kCohortCheckpoints;
      cc.name_prefix = prefix;
      cc.finish_jobs = true;
      cc.high_period = cc.normal_period = cc.batch_period = Duration{5'000'000};
      cc.retry.max_retries = 30;
      cc.retry.max_backoff = Duration{400'000'000};
      cc.seed = mix_seed(ctx.seed, 3 + cohorts.size());
      cohorts.emplace_back(*rig.cluster, rig.cluster->node("client-volta"), rig.rendezvous,
                           rig.endpoints, cc);
    }

    std::vector<std::string> storage;
    for (int i = 0; i < kDaemons; ++i) storage.push_back(strf("pmem{}", i));
    LayerProbe probe{*rig.cluster, rig.daemon_ptrs(), {"client-volta"}, storage};
    probe.begin();
    {
      const CpuStopwatch cpu;
      run_engine(rig.eng, measured(rig, cohorts, ctx), ctx, "live fleet");
      t.measured_cpu_s = cpu.seconds();
    }
    probe.end(t.layers);
    for (const auto& tn : rig.tenants) {
      t.layers.add("client.retries", static_cast<double>(tn.client->stats().retries));
      t.layers.add("client.backpressure", static_cast<double>(tn.client->stats().backpressure));
    }

    for (auto& d : rig.daemons) {
      ScopedSpan s{ctx.spans, "recovery", "fsck verify " + d->config().endpoint,
                   rig.eng.now().count()};
      if (!core::Fsck{*d}.run(/*repair=*/false).clean()) {
        t.errors.push_back(d->config().endpoint + ": fsck after the live fleet is not clean");
      }
    }
    ctx.spans.advance_virtual_base(rig.eng.now().count());
  }
};

}  // namespace

std::unique_ptr<Workload> make_fleet_churn() { return std::make_unique<FleetChurn>(); }

}  // namespace perfbench
