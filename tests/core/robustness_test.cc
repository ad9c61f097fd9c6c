// Robustness and adversarial-input tests: torn persistent state, protocol
// fuzzing, misuse of the client API, and hook cadence edge cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/async_coordinator.h"
#include "core/client.h"
#include "core/cluster/manifest.h"
#include "core/daemon/allocator.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "dnn/training.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

// --- allocator under torn AllocTable entries --------------------------------

TEST(RobustnessTest, AllocatorRecoverySkipsTornEntriesAndSweepReclaims) {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  const PmemAllocator::Config config{.table_offset = 4_KiB,
                                     .table_capacity = 128,
                                     .data_offset = 1_MiB,
                                     .data_end = 64_MiB};
  Bytes b = 0;
  {
    PmemAllocator alloc{device, config};
    alloc.alloc(100_KiB);
    b = alloc.alloc(200_KiB);
    alloc.alloc(50_KiB);
    // Scramble the middle entry as a torn write would leave it (entry slots
    // start after the sharded-table header).
    device.write(config.table_offset + PmemAllocator::kHeaderSize + PmemAllocator::kEntrySize,
                 std::vector<std::byte>(8));
    device.persist_all();
  }
  PmemAllocator recovered{device, config};
  recovered.recover();
  // Entries 0 and 2 survive; the torn entry 1 is dropped, so its extent is
  // a hole *between* live extents — below the bump pointer, unreachable by
  // compact(), leaked by recover() alone.
  EXPECT_EQ(recovered.live_bytes(), 150_KiB);
  EXPECT_EQ(recovered.free_listed_bytes(), 0u);

  // The repacker's gap sweep must adopt exactly the dropped extent back.
  EXPECT_EQ(recovered.sweep_gaps(), 200_KiB);
  EXPECT_EQ(recovered.free_listed_bytes(), 200_KiB);

  // First-fit reuse then hands the reclaimed hole out again...
  EXPECT_EQ(recovered.alloc(200_KiB), b);
  // ...and nothing the allocator tracks ever overlaps.
  auto extents = recovered.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& x, const auto& y) { return x.offset < y.offset; });
  Bytes prev_end = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "extents must not overlap";
    prev_end = e.offset + e.size;
  }
}

// --- protocol fuzz -----------------------------------------------------------

TEST(RobustnessTest, ProtocolDecodersNeverCrashOnGarbage) {
  Rng rng{2024};
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.uniform(0, 300));
    rng.fill(junk);
    // Each decoder must either parse or throw a typed error — never UB.
    const auto probe = [&](auto&& decode) {
      try {
        decode(junk);
      } catch (const Error&) {
        // expected for garbage
      }
    };
    probe([](auto b) { return decode_register_model(b); });
    probe([](auto b) { return decode_register_ack(b); });
    probe([](auto b) { return decode_checkpoint_req(b); });
    probe([](auto b) { return decode_op_done(b, MsgType::kCheckpointDone); });
    probe([](auto b) { return decode_restore_req(b); });
    probe([](auto b) { return decode_op_done(b, MsgType::kRestoreDone); });
    probe([](auto b) { return decode_finish_job(b); });
    probe([](auto b) { return cluster::ShardManifest::decode(b); });
  }
}

// Random garbage rarely gets past the magic/length checks; mutating *valid*
// cluster-era encodings probes the deep field parsing (endpoint lists,
// tensor ownership tables, nested manifest blobs) where a crash would hide.
TEST(RobustnessTest, ClusterDecodersSurviveMutationFuzz) {
  cluster::ShardManifest mf;
  mf.model_name = "resnet50";
  mf.placement_epoch = 7;
  mf.plan_digest = 0xC0FFEE;
  mf.daemon_count = 3;
  mf.replicas = 2;
  mf.endpoints = {"portusd0", "portusd1", "portusd2"};
  mf.tensors = {{"conv1", 1024, 0}, {"fc", 2048, 1}};
  mf.shard_daemons = {{0, 1}, {1, 2}, {2, 0}};
  const auto manifest_wire = mf.encode();

  RegisterModelMsg reg;
  reg.model_name = "resnet50#s0r0";
  reg.qp_tokens = {1, 2};
  reg.shard_id = 0;
  reg.shard_count = 2;
  reg.replica = 0;
  reg.replica_count = 2;
  reg.placement_epoch = 7;
  reg.manifest = manifest_wire;
  reg.tensors.push_back(TensorDesc{.name = "conv1", .shape = {16, 16}, .size = 1024});
  const auto reg_wire = encode(reg);

  RegisterAckMsg ack;
  ack.ok = true;
  ack.stripes = 2;
  const auto ack_wire = encode(ack);

  Rng rng{77};
  const auto mutate = [&](std::vector<std::byte> wire) {
    const auto flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      auto& byte = wire[rng.uniform(0, wire.size() - 1)];
      byte ^= static_cast<std::byte>(1u << rng.uniform(0, 7));
    }
    return wire;
  };
  const auto probe = [](auto&& decode, const std::vector<std::byte>& wire) {
    try {
      decode(wire);
    } catch (const Error&) {
      // a typed error is the only acceptable failure mode
    }
  };
  for (int round = 0; round < 2000; ++round) {
    probe([](auto b) { return decode_register_model(b); }, mutate(reg_wire));
    probe([](auto b) { return decode_register_ack(b); }, mutate(ack_wire));
    probe([](auto b) { return cluster::ShardManifest::decode(b); }, mutate(manifest_wire));
  }

  // The unmutated encodings still round-trip after all that.
  const auto back = cluster::ShardManifest::decode(manifest_wire);
  EXPECT_EQ(back.model_name, "resnet50");
  ASSERT_EQ(back.shard_daemons.size(), 3u);
  EXPECT_EQ(back.copies_of(1), (std::vector<std::uint32_t>{1, 2}));
  const auto reg_back = decode_register_model(reg_wire);
  EXPECT_TRUE(reg_back.sharded());
  EXPECT_EQ(reg_back.manifest, manifest_wire);
}

TEST(RobustnessTest, TruncatedValidMessagesThrow) {
  RegisterModelMsg msg;
  msg.model_name = "bert";
  msg.tensors.push_back(TensorDesc{.name = "t", .shape = {4, 4}, .size = 64});
  const auto wire = encode(msg);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    std::span<const std::byte> truncated{wire.data(), cut};
    EXPECT_THROW((void)decode_register_model(truncated), Error) << "cut at " << cut;
  }
}

// --- client misuse ------------------------------------------------------------

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon =
      std::make_unique<PortusDaemon>(*cluster, cluster->node("server"), rendezvous);
  Rig() { daemon->start(); }
  ~Rig() { eng.shutdown(); }
};

TEST(RobustnessTest, ConcurrentOpsOnOneClientAreRejected) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.05;
  auto model = dnn::ModelZoo::create(node.gpu(0), "vgg19_bn", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};

  bool second_rejected = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);  // long-ish op
  }(client, model));
  r.eng.spawn([](sim::Engine& eng, PortusClient& c, dnn::Model& m, bool& rejected)
                  -> sim::Process {
    co_await eng.sleep(3ms);  // while registration/checkpoint is in flight
    try {
      co_await c.checkpoint(m, 2);
    } catch (const Error&) {
      rejected = true;
    }
  }(r.eng, client, model, second_rejected));
  r.eng.run();
  EXPECT_TRUE(second_rejected)
      << "one control-plane operation per client at a time is the contract";
}

TEST(RobustnessTest, CheckpointOfUnregisteredModelFails) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  bool threw = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& t) -> sim::Process {
    co_await c.connect();
    try {
      co_await c.checkpoint(m, 1);  // never registered
    } catch (const Error&) {
      t = true;
    }
  }(client, model, threw));
  r.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
}

TEST(RobustnessTest, OperationsBeforeConnectFail) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  auto p = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);  // no connect()
  }(client, model));
  r.eng.run();
  EXPECT_THROW(p.check(), Error);
}

// --- hook cadence -------------------------------------------------------------

TEST(RobustnessTest, PortusHookHonorsInterval) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  PortusHook hook{client, model, /*interval=*/3, PortusHook::Mode::kSync};
  dnn::TrainingStats stats;
  const dnn::TrainingConfig cfg{.iteration_time = 10ms, .update_fraction = 0.1,
                                .busy_fraction = 1.0, .mutate_weights = false};
  r.eng.spawn([](Rig& rig, net::Node& n, PortusClient& c, dnn::Model& m, PortusHook& h,
                 dnn::TrainingConfig config, dnn::TrainingStats& st) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await rig.eng.spawn(dnn::train(rig.eng, n.gpu(0), &m, config, 10, h, st)).join();
    co_await h.drain();
  }(r, node, client, model, hook, cfg, stats));
  r.eng.run();
  EXPECT_EQ(hook.stats().triggered, 3u);  // iterations 3, 6, 9
  EXPECT_EQ(hook.stats().completed, 3u);
  EXPECT_EQ(hook.stats().last_committed_iteration, 9u);
  EXPECT_EQ(r.daemon->stats().checkpoints, 3u);
}

TEST(RobustnessTest, HookIntervalZeroRejected) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  EXPECT_THROW((PortusHook{client, model, 0, PortusHook::Mode::kSync}), InvalidArgument);
}

// --- control-plane endpoint ----------------------------------------------------

TEST(RobustnessTest, ManyClientsConnectConcurrently) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  constexpr int kClients = 12;
  std::vector<std::unique_ptr<PortusClient>> clients;
  std::vector<dnn::Model> models;
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  for (int i = 0; i < kClients; ++i) {
    models.push_back(dnn::ModelZoo::create(
        node.gpu(static_cast<std::size_t>(i) % node.gpu_count()),
        dnn::ModelZoo::all()[static_cast<std::size_t>(i)].name, opt));
    clients.push_back(std::make_unique<PortusClient>(
        *r.cluster, node, node.gpu(static_cast<std::size_t>(i) % node.gpu_count()),
        r.rendezvous));
  }
  for (int i = 0; i < kClients; ++i) {
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(*clients[static_cast<std::size_t>(i)], models[static_cast<std::size_t>(i)]));
  }
  r.eng.run();
  EXPECT_EQ(r.daemon->stats().registrations, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(r.daemon->stats().checkpoints, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

}  // namespace
}  // namespace portus::core
