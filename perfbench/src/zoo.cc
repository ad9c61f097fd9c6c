// zoo-roundtrip: the unloaded datapath on real bytes.
//
// One daemon with default Config{}, the seven Table II models scaled down
// (real payloads), one client op in flight at a time. Per round and model:
// one training iteration of compute and a full checkpoint, then two more
// iterations that each dirty a seeded set of tensors (20% of the bytes)
// followed by an incremental checkpoint, then a restore verified against
// Model::weights_crc(). The session ends with a
// fresh daemon recovering the image from PMEM and a verify-only fsck, both
// of which must be clean, and every model's newest committed epoch present.
#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "common/strformat.h"
#include "core/client.h"
#include "core/daemon/fsck.h"
#include "dnn/model_zoo.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace dnn = portus::dnn;
using portus::Duration;
using portus::Rng;
using portus::strf;

namespace {

constexpr double kScale = 1.0 / 32.0;  // ~125 MiB of real tensor bytes
constexpr double kScaleJitter = 0.02;  // per-model size varies +-2% by seed
constexpr int kRounds = 4;             // rounds per session
constexpr int kIncrementalsPerRound = 2;
constexpr double kDirtyShare = 0.2;    // of a model's bytes, per incremental
constexpr int kVirtualSessions = 3;
constexpr int kSetups = 3;             // testbed builds per session

struct ZooRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;
  std::vector<std::unique_ptr<dnn::Model>> models;
  std::vector<std::unique_ptr<core::PortusClient>> clients;
  std::vector<Duration> iteration_time;
  std::vector<std::uint64_t> committed;  // newest committed epoch per model

  ~ZooRig() { eng.shutdown(); }
};

struct RoundCtx {
  ZooRig& rig;
  SessionCtx& ctx;
};

// Model::weights_crc under a "crc" span, with its host time set aside.
std::uint32_t verified_crc(RoundCtx& rc, const dnn::Model& model) {
  const std::uint64_t id =
      rc.ctx.spans.open("crc", "weights_crc " + model.name(), rc.rig.eng.now().count());
  const CpuStopwatch cpu;
  const std::uint32_t crc = model.weights_crc();
  rc.ctx.tally.bench_cpu_s += cpu.seconds();
  rc.ctx.spans.close(id, rc.rig.eng.now().count());
  return crc;
}

sim::Process register_all(ZooRig& rig, SpanLog& spans) {
  for (std::size_t m = 0; m < rig.models.size(); ++m) {
    const std::uint64_t id =
        spans.open("client", "register " + rig.models[m]->name(), rig.eng.now().count());
    co_await rig.clients[m]->connect();
    co_await rig.clients[m]->register_model(*rig.models[m]);
    spans.close(id, rig.eng.now().count());
  }
}

void fail(SessionCtx& ctx, std::string what) { ctx.tally.errors.push_back(std::move(what)); }

// Training dirties a seeded set of whole tensors holding kDirtyShare of
// the model's bytes; returns their indices, ascending.
std::vector<std::uint32_t> paint_dirty_set(dnn::Model& model, Rng& rng) {
  std::vector<std::uint32_t> order(model.layer_count());
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng.engine());
  const double target = kDirtyShare * static_cast<double>(model.total_bytes());
  double painted = 0.0;
  std::vector<std::uint32_t> dirty;
  for (const std::uint32_t i : order) {
    if (painted >= target) break;
    auto& buf = model.tensor(i).buffer();
    buf.segment().fill(buf.offset(), buf.size(), static_cast<std::byte>(rng.uniform(0, 255)));
    painted += static_cast<double>(buf.size());
    dirty.push_back(i);
  }
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

sim::Process rounds(RoundCtx& rc) {
  auto& rig = rc.rig;
  auto& ctx = rc.ctx;
  auto& t = ctx.tally;
  auto& eng = rig.eng;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t m = 0; m < rig.models.size(); ++m) {
      auto& model = *rig.models[m];
      auto& client = *rig.clients[m];
      Rng rng{mix_seed(ctx.seed, 100 + static_cast<std::uint64_t>(r) * 64 + m)};
      std::uint64_t iter = static_cast<std::uint64_t>(r) * (1 + kIncrementalsPerRound);
      const auto record = [&](Duration d) {
        const double s = portus::to_seconds(d);
        t.ckpt_ms.push_back(s * 1e3);
        t.ckpt_gbps.push_back(static_cast<double>(model.total_bytes()) / s / 1e9);
        t.stall_seconds += s;
        t.train_seconds += s + portus::to_seconds(rig.iteration_time[m]);
        t.train_iters += 1.0;
        t.layers.add("client.latency_s", portus::to_seconds(d));
        t.layers.add("client.ops", 1);
        ++t.host_ops;
      };

      // An iteration, then a full checkpoint of its weights.
      co_await eng.sleep(rig.iteration_time[m]);
      ++iter;
      {
        const CpuStopwatch cpu;
        model.mutate_weights(mix_seed(ctx.seed, iter));
        t.bench_cpu_s += cpu.seconds();
      }
      auto t0 = eng.now();
      std::uint64_t id = ctx.spans.open("client", "checkpoint " + model.name(), t0.count());
      ++t.attempted;
      co_await client.checkpoint(model, iter);
      record(eng.now() - t0);
      ctx.spans.close(id, eng.now().count());

      // Iterations that each dirty a seeded set, each followed by an
      // incremental checkpoint.
      std::uint32_t expect = 0;
      std::uint64_t epoch = 0;
      for (int k = 0; k < kIncrementalsPerRound; ++k) {
        co_await eng.sleep(rig.iteration_time[m]);
        ++iter;
        std::vector<std::uint32_t> dirty;
        {
          const CpuStopwatch cpu;
          dirty = paint_dirty_set(model, rng);
          t.bench_cpu_s += cpu.seconds();
        }
        expect = verified_crc(rc, model);
        t0 = eng.now();
        id = ctx.spans.open("client", "checkpoint_incremental " + model.name(), t0.count());
        ++t.attempted;
        epoch = co_await client.checkpoint_incremental(model, iter, std::move(dirty));
        record(eng.now() - t0);
        ctx.spans.close(id, eng.now().count());
        if (client.stats().last_payload_crc != expect) {
          fail(ctx, strf("{}: incremental checkpoint CRC {:08x} != weights {:08x}",
                         model.name(), client.stats().last_payload_crc, expect));
        }
      }
      rig.committed[m] = epoch;

      // Wreck every tensor's head, restore, and compare.
      {
        const CpuStopwatch cpu;
        model.mutate_weights(mix_seed(ctx.seed, 7777 + iter));
        t.bench_cpu_s += cpu.seconds();
      }
      t0 = eng.now();
      id = ctx.spans.open("client", "restore " + model.name(), t0.count());
      ++t.attempted;
      const std::uint64_t restored = co_await client.restore(model);
      const Duration rest = eng.now() - t0;
      ctx.spans.close(id, eng.now().count());
      t.restore_ms.push_back(portus::to_seconds(rest) * 1e3);
      t.layers.add("client.latency_s", portus::to_seconds(rest));
      t.layers.add("client.ops", 1);
      ++t.host_ops;
      if (restored != epoch) {
        fail(ctx, strf("{}: restored epoch {} but epoch {} was committed", model.name(),
                       restored, epoch));
      }
      const std::uint32_t got = verified_crc(rc, model);
      if (got != expect) {
        fail(ctx, strf("{}: restore CRC mismatch {:08x} != {:08x}", model.name(), got, expect));
      }
    }
  }
  t.high_ckpt_ms = t.ckpt_ms;  // untenanted: every op is in the one default class
}

std::unique_ptr<ZooRig> build_rig(SessionCtx& ctx) {
  auto rig = std::make_unique<ZooRig>();
  rig->daemon = std::make_unique<core::PortusDaemon>(*rig->cluster, rig->cluster->node("server"),
                                                     rig->rendezvous);
  rig->daemon->start();
  auto& node = rig->cluster->node("client-volta");
  const auto names = dnn::ModelZoo::table2_names();
  Rng rng{mix_seed(ctx.seed, 1)};
  for (std::size_t m = 0; m < names.size(); ++m) {
    auto& gpu = node.gpu(m % node.gpu_count());
    dnn::ModelZoo::Options opt;
    opt.scale = kScale * rng.uniform_real(1.0 - kScaleJitter, 1.0 + kScaleJitter);
    opt.force_real = true;
    opt.weight_seed = mix_seed(ctx.seed, 10 + m);
    rig->models.push_back(
        std::make_unique<dnn::Model>(dnn::ModelZoo::create(gpu, names[m], opt)));
    rig->clients.push_back(
        std::make_unique<core::PortusClient>(*rig->cluster, node, gpu, rig->rendezvous));
    const auto& spec = dnn::ModelZoo::spec(names[m]);
    rig->iteration_time.push_back(portus::from_seconds(portus::to_seconds(spec.iteration_time) *
                                                       rng.uniform_real(0.95, 1.05)));
  }
  rig->committed.assign(names.size(), 0);
  run_engine(rig->eng, register_all(*rig, ctx.spans), ctx, "register");
  return rig;
}

class ZooRoundtrip final : public Workload {
 public:
  int virtual_sessions() const override { return kVirtualSessions; }

  void session(SessionCtx& ctx) override {
    auto& t = ctx.tally;
    auto built = timed_setups(ctx, kSetups, "zoo setup", [&] { return build_rig(ctx); });
    ZooRig& rig = *built;

    LayerProbe probe{*rig.cluster, {rig.daemon.get()}, {"client-volta"}, {"server"}};
    probe.begin();
    RoundCtx rc{rig, ctx};
    {
      const CpuStopwatch cpu;
      run_engine(rig.eng, rounds(rc), ctx, "rounds");
      t.measured_cpu_s = cpu.seconds() - t.bench_cpu_s;  // verification + painting
    }
    probe.end(t.layers);
    for (const auto& c : rig.clients) {
      t.layers.add("client.retries", static_cast<double>(c->stats().retries));
      t.layers.add("client.backpressure", static_cast<double>(c->stats().backpressure));
    }

    // Restart: a fresh daemon rebuilds DRAM state from the PMEM image.
    core::PortusDaemon::Config fresh_config;
    fresh_config.endpoint = "portusd-recovered";
    core::PortusDaemon fresh{*rig.cluster, rig.cluster->node("server"), rig.rendezvous,
                             fresh_config};
    {
      ScopedSpan s{ctx.spans, "recovery", "recover", rig.eng.now().count()};
      fresh.recover();
    }
    core::Fsck::Report report;
    {
      ScopedSpan s{ctx.spans, "recovery", "fsck verify", rig.eng.now().count()};
      report = core::Fsck{fresh}.run(/*repair=*/false);
    }
    if (!report.clean()) fail(ctx, "fsck after recover is not clean");
    for (std::size_t m = 0; m < rig.models.size(); ++m) {
      const auto index = fresh.load_index(rig.models[m]->name());
      const auto slot = index.latest_done_slot();
      if (!slot || index.slot(*slot).epoch != rig.committed[m]) {
        fail(ctx, strf("{}: committed epoch {} missing after recover", rig.models[m]->name(),
                       rig.committed[m]));
      }
    }

    if (ctx.spans.enabled()) {
      // Host CRC throughput over this workload's own tensor bytes.
      const CpuStopwatch cpu;
      for (const auto& model : rig.models) {
        for (const auto& tensor : model->tensors()) {
          time_crc(tensor.buffer().download(), t.layers);
        }
      }
      t.bench_cpu_s += cpu.seconds();
    }
    ctx.spans.advance_virtual_base(rig.eng.now().count());
  }
};

}  // namespace

std::unique_ptr<Workload> make_zoo_roundtrip() { return std::make_unique<ZooRoundtrip>(); }

}  // namespace perfbench
