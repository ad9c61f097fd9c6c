// gpt-async: training stall across many concurrent ranks.
//
// A 16-rank (TP8 x PP2) gpt-1.5b job with phantom payloads trains
// kIterations iterations, checkpointing every kInterval iterations through
// Portus in asynchronous mode (one core::PortusHook per rank: the pull
// overlaps the next forward/backward and stalls only the update it runs
// into), then restores the whole job. The same job then trains under
// CheckFreq persisting to BeeGFS (one baselines::CheckFreqHook per rank).
// The seed scales the job's parameter count and iteration time by up to
// +-2%, so every seed measures a distinct job.
#include <algorithm>

#include "baselines/checkfreq.h"
#include "common/rng.h"
#include "common/strformat.h"
#include "core/async_coordinator.h"
#include "core/client.h"
#include "dnn/model_zoo.h"
#include "dnn/parallel.h"
#include "dnn/training.h"
#include "stats.h"
#include "storage/beegfs.h"
#include "storage/serializer.h"
#include "workload.h"

namespace perfbench {

namespace dnn = portus::dnn;
namespace storage = portus::storage;
namespace baselines = portus::baselines;
using portus::Duration;
using portus::Rng;
using portus::strf;

namespace {

constexpr std::uint64_t kIterations = 20;
constexpr std::uint64_t kInterval = 5;
constexpr int kVirtualSessions = 3;
constexpr int kSetups = 9;  // testbed builds per session (a few ms each)

struct Rank {
  dnn::ShardSpec shard;
  portus::gpu::GpuDevice* gpu = nullptr;
  net::Node* node = nullptr;
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::PortusClient> portus;
  std::unique_ptr<storage::BeeGfsMount> beegfs;
};

struct GptRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;
  std::unique_ptr<storage::BeeGfsServer> beegfs_server;
  std::vector<Rank> ranks;

  ~GptRig() { eng.shutdown(); }
};

// Fans every hook call out to one hook per rank, concurrently, and returns
// when all ranks have returned: the job-level view of per-rank policies.
class JobHook final : public dnn::CheckpointHook {
 public:
  JobHook(sim::Engine& eng, std::vector<dnn::CheckpointHook*> ranks)
      : eng_{eng}, ranks_{std::move(ranks)} {}

  sim::SubTask<> on_iteration_end(std::uint64_t iteration) override {
    std::vector<sim::Process> procs;
    for (auto* h : ranks_) procs.push_back(eng_.spawn(end_one(*h, iteration)));
    for (auto& p : procs) co_await p.join();
  }
  sim::SubTask<> before_update(std::uint64_t iteration) override {
    std::vector<sim::Process> procs;
    for (auto* h : ranks_) procs.push_back(eng_.spawn(update_one(*h, iteration)));
    for (auto& p : procs) co_await p.join();
  }

 private:
  static sim::Process end_one(dnn::CheckpointHook& h, std::uint64_t iteration) {
    co_await h.on_iteration_end(iteration);
  }
  static sim::Process update_one(dnn::CheckpointHook& h, std::uint64_t iteration) {
    co_await h.before_update(iteration);
  }

  sim::Engine& eng_;
  std::vector<dnn::CheckpointHook*> ranks_;
};

sim::Process register_all(GptRig& rig, SpanLog& spans) {
  for (auto& r : rig.ranks) {
    const std::uint64_t id = spans.open("client", "register " + r.shard.spec.name,
                                        rig.eng.now().count());
    co_await r.portus->connect();
    co_await r.portus->register_model(*r.model);
    spans.close(id, rig.eng.now().count());
  }
}

// Portus leg: train with per-rank async hooks, record every rank pull as
// it completes, drain, then restore the whole job.
struct PortusLeg {
  std::vector<std::unique_ptr<core::PortusHook>> hooks;
  std::vector<std::uint64_t> seen;  // completed pulls already sampled, per rank
  dnn::TrainingStats stats;
  std::vector<std::uint64_t> restored;
};

void sample_pulls(GptRig& rig, PortusLeg& leg, Tally& t) {
  for (std::size_t i = 0; i < rig.ranks.size(); ++i) {
    const auto done = leg.hooks[i]->stats().completed;
    if (done == leg.seen[i]) continue;
    leg.seen[i] = done;
    const auto& r = rig.ranks[i];
    const Duration lat = r.portus->stats().last_checkpoint;
    t.ckpt_ms.push_back(portus::to_seconds(lat) * 1e3);
    t.ckpt_gbps.push_back(static_cast<double>(r.model->total_bytes()) /
                          portus::to_seconds(lat) / 1e9);
    t.layers.add("client.latency_s", portus::to_seconds(lat));
    t.layers.add("client.ops", 1);
  }
}

// Samples each rank's newest pull latency at every update boundary (where
// async pulls are guaranteed to have landed).
class SamplingHook final : public dnn::CheckpointHook {
 public:
  SamplingHook(JobHook& job, GptRig& rig, PortusLeg& leg, Tally& t)
      : job_{job}, rig_{rig}, leg_{leg}, t_{t} {}
  sim::SubTask<> on_iteration_end(std::uint64_t iteration) override {
    co_await job_.on_iteration_end(iteration);
  }
  sim::SubTask<> before_update(std::uint64_t iteration) override {
    co_await job_.before_update(iteration);
    sample_pulls(rig_, leg_, t_);
  }

 private:
  JobHook& job_;
  GptRig& rig_;
  PortusLeg& leg_;
  Tally& t_;
};

sim::Process restore_rank(Rank& r, SessionCtx& ctx, std::uint64_t& restored) {
  auto& eng = r.gpu->engine();
  const auto t0 = eng.now();
  const std::uint64_t id = ctx.spans.open("client", "restore " + r.shard.spec.name, t0.count());
  ++ctx.tally.attempted;
  restored = co_await r.portus->restore(*r.model);
  const Duration lat = eng.now() - t0;
  ctx.spans.close(id, eng.now().count());
  ctx.tally.restore_ms.push_back(portus::to_seconds(lat) * 1e3);
  ctx.tally.layers.add("client.latency_s", portus::to_seconds(lat));
  ctx.tally.layers.add("client.ops", 1);
}

sim::Process portus_leg(GptRig& rig, PortusLeg& leg, dnn::TrainingConfig cfg, SessionCtx& ctx) {
  std::vector<dnn::CheckpointHook*> per_rank;
  for (auto& h : leg.hooks) per_rank.push_back(h.get());
  JobHook job{rig.eng, per_rank};
  SamplingHook hook{job, rig, leg, ctx.tally};
  {
    const std::uint64_t id = ctx.spans.open("train", "train portus-async", rig.eng.now().count());
    co_await rig.eng
        .spawn(dnn::train(rig.eng, *rig.ranks[0].gpu, nullptr, cfg, kIterations, hook, leg.stats))
        .join();
    for (auto& h : leg.hooks) co_await h->drain();
    sample_pulls(rig, leg, ctx.tally);
    ctx.spans.close(id, rig.eng.now().count());
  }
  leg.restored.assign(rig.ranks.size(), 0);
  std::vector<sim::Process> procs;
  for (std::size_t i = 0; i < rig.ranks.size(); ++i) {
    procs.push_back(rig.eng.spawn(restore_rank(rig.ranks[i], ctx, leg.restored[i])));
  }
  for (auto& p : procs) co_await p.join();
}

sim::Process checkfreq_leg(GptRig& rig, std::vector<std::unique_ptr<baselines::CheckFreqHook>>& hooks,
                           dnn::TrainingConfig cfg, dnn::TrainingStats& stats, SessionCtx& ctx) {
  std::vector<dnn::CheckpointHook*> per_rank;
  for (auto& h : hooks) per_rank.push_back(h.get());
  JobHook job{rig.eng, per_rank};
  const std::uint64_t id = ctx.spans.open("train", "train checkfreq", rig.eng.now().count());
  co_await rig.eng
      .spawn(dnn::train(rig.eng, *rig.ranks[0].gpu, nullptr, cfg, kIterations, job, stats))
      .join();
  for (auto& h : hooks) co_await h->drain();
  ctx.spans.close(id, rig.eng.now().count());
}

std::unique_ptr<GptRig> build_rig(const dnn::ModelSpec& spec, SessionCtx& ctx) {
  auto rig = std::make_unique<GptRig>();
  rig->daemon = std::make_unique<core::PortusDaemon>(*rig->cluster, rig->cluster->node("server"),
                                                     rig->rendezvous);
  rig->daemon->start();
  rig->beegfs_server = std::make_unique<storage::BeeGfsServer>(rig->cluster->node("server"));
  const dnn::MegatronPartitioner partitioner{/*tensor_parallel=*/8, /*pipeline_parallel=*/2};
  for (const auto& shard : partitioner.partition(spec)) {
    // PP stage 0 on client-ampere (8 GPUs), stage 1 on client-volta.
    auto& node = rig->cluster->node(shard.pp_rank == 0 ? "client-ampere" : "client-volta");
    auto& gpu = node.gpu(static_cast<std::size_t>(shard.tp_rank) % node.gpu_count());
    Rank r;
    r.shard = shard;
    r.gpu = &gpu;
    r.node = &node;
    dnn::ModelZoo::Options opt;
    opt.force_phantom = true;
    r.model = std::make_unique<dnn::Model>(dnn::ModelZoo::create_from_spec(gpu, shard.spec, opt));
    r.portus = std::make_unique<core::PortusClient>(*rig->cluster, node, gpu, rig->rendezvous);
    r.beegfs = std::make_unique<storage::BeeGfsMount>(*rig->cluster, node, *rig->beegfs_server,
                                                      "mnt-" + shard.spec.name);
    rig->ranks.push_back(std::move(r));
  }
  run_engine(rig->eng, register_all(*rig, ctx.spans), ctx, "register");
  return rig;
}

class GptAsync final : public Workload {
 public:
  int virtual_sessions() const override { return kVirtualSessions; }

  void session(SessionCtx& ctx) override {
    auto& t = ctx.tally;
    Rng rng{mix_seed(ctx.seed, 4)};
    dnn::ModelSpec spec = dnn::ModelZoo::spec("gpt-1.5b");
    spec.checkpoint_bytes = static_cast<portus::Bytes>(static_cast<double>(spec.checkpoint_bytes) *
                                                       rng.uniform_real(0.98, 1.02));
    spec.iteration_time =
        portus::from_seconds(portus::to_seconds(spec.iteration_time) * rng.uniform_real(0.98, 1.02));
    auto cfg = dnn::TrainingConfig::from_spec(spec);
    cfg.mutate_weights = false;

    auto built = timed_setups(ctx, kSetups, "gpt setup", [&] { return build_rig(spec, ctx); });
    GptRig& rig = *built;

    LayerProbe probe{*rig.cluster, {rig.daemon.get()}, {"client-ampere", "client-volta"},
                     {"server"}};
    PortusLeg leg;
    for (auto& r : rig.ranks) {
      leg.hooks.push_back(std::make_unique<core::PortusHook>(*r.portus, *r.model, kInterval,
                                                             core::PortusHook::Mode::kAsync));
    }
    leg.seen.assign(rig.ranks.size(), 0);
    probe.begin();
    const CpuStopwatch cpu;
    run_engine(rig.eng, portus_leg(rig, leg, cfg, ctx), ctx, "portus leg");
    probe.end(t.layers);

    std::vector<std::unique_ptr<baselines::CheckFreqHook>> cf;
    for (auto& r : rig.ranks) {
      cf.push_back(std::make_unique<baselines::CheckFreqHook>(
          *r.node, *r.gpu, *r.model, *r.beegfs, kInterval, "/cf/" + r.shard.spec.name));
    }
    dnn::TrainingStats cf_stats;
    const CpuStopwatch cf_cpu;
    run_engine(rig.eng, checkfreq_leg(rig, cf, cfg, cf_stats, ctx), ctx, "checkfreq leg");
    t.layers.add("checkfreq.host_s", cf_cpu.seconds());
    t.measured_cpu_s = cpu.seconds();

    // Outputs: every rank restored its newest epoch; CheckFreq's last
    // trigger is durable on BeeGFS.
    std::uint64_t job_ckpts = kIterations;
    for (std::size_t i = 0; i < rig.ranks.size(); ++i) {
      const auto& hs = leg.hooks[i]->stats();
      job_ckpts = std::min(job_ckpts, hs.completed);
      if (leg.restored[i] != hs.completed) {
        t.errors.push_back(strf("{}: restored epoch {} but {} checkpoints were committed",
                                rig.ranks[i].shard.spec.name, leg.restored[i], hs.completed));
      }
      const auto& cs = cf[i]->stats();
      if (cf[i]->last_persisted_iteration() != kIterations ||
          !rig.ranks[i].beegfs->exists(cf[i]->last_persisted_path())) {
        t.errors.push_back(strf("{}: CheckFreq's iteration-{} checkpoint is not on BeeGFS",
                                rig.ranks[i].shard.spec.name, kIterations));
      }
      t.layers.add("checkfreq.persist_s", portus::to_seconds(cs.persist_time));
      t.layers.add("checkfreq.persist_bytes",
                   static_cast<double>(cs.persists) * static_cast<double>(
                       storage::CheckpointSerializer::container_size(*rig.ranks[i].model)));
      t.layers.add("checkfreq.throttled", static_cast<double>(cs.throttled_triggers));
      t.layers.add("client.retries", static_cast<double>(rig.ranks[i].portus->stats().retries));
      t.layers.add("client.backpressure",
                   static_cast<double>(rig.ranks[i].portus->stats().backpressure));
    }
    std::uint64_t stalled = 0;
    for (const auto& h : leg.hooks) stalled = std::max(stalled, h->stats().stalled_updates);
    const std::uint64_t cf_ckpts = cf.front()->stats().persists;
    t.attempted += rig.ranks.size() * (kIterations / kInterval);
    t.host_ops = job_ckpts + cf_ckpts;
    t.high_ckpt_ms = t.ckpt_ms;  // untenanted: every op is in the one default class
    t.train_iters += static_cast<double>(leg.stats.iterations_done);
    t.train_seconds += portus::to_seconds(leg.stats.wall());
    t.stall_seconds += portus::to_seconds(leg.stats.checkpoint_stall);
    t.layers.add("train.throttled", static_cast<double>(stalled));
    ctx.spans.advance_virtual_base(rig.eng.now().count());
  }
};

}  // namespace

std::unique_ptr<Workload> make_gpt_async() { return std::make_unique<GptAsync>(); }

}  // namespace perfbench
