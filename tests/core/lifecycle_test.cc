// Lifecycle tests spanning daemon restarts, repacking, image persistence,
// and the portusctl surface — the flows a production operator exercises.
#include <gtest/gtest.h>

#include <sstream>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/repacker.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon =
      std::make_unique<PortusDaemon>(*cluster, cluster->node("server"), rendezvous);
  Rig() { daemon->start(); }
  ~Rig() { eng.shutdown(); }

  dnn::Model model(const std::string& name, double scale = 0.02) {
    dnn::ModelZoo::Options opt;
    opt.scale = scale;
    return dnn::ModelZoo::create(cluster->node("client-volta").gpu(0), name, opt);
  }
  std::unique_ptr<PortusClient> client(const std::string& endpoint = "portusd") {
    auto& node = cluster->node("client-volta");
    return std::make_unique<PortusClient>(*cluster, node, node.gpu(0), rendezvous, endpoint);
  }
};

TEST(LifecycleTest, FinishedFlagSurvivesDaemonRestart) {
  Rig r;
  auto model = r.model("alexnet");
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(1);
    co_await c.checkpoint(m, 2);
    co_await c.finish(m);
  }(*client, model));
  r.eng.run();
  EXPECT_TRUE(r.daemon->model_table().is_finished("alexnet"));

  // Restart; the flag must come back from PMEM so repack still applies.
  PortusDaemon fresh{*r.cluster, r.cluster->node("server"), r.rendezvous,
                     PortusDaemon::Config{.endpoint = "portusd-2"}};
  fresh.recover();
  EXPECT_TRUE(fresh.model_table().is_finished("alexnet"));

  const auto report = Repacker{fresh}.repack();
  EXPECT_EQ(report.slots_cleared, 1);
  EXPECT_GT(report.freed_outdated, 0u);
}

TEST(LifecycleTest, FinishOfUnknownModelFailsAndSessionKeepsServing) {
  Rig r;
  auto known = r.model("alexnet");
  auto unknown = r.model("resnet50");
  auto client = r.client();
  std::string refusal;
  std::uint64_t epoch = 0;
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& known, dnn::Model& unknown,
                             std::string& refusal, std::uint64_t& epoch) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(known);
    co_await c.checkpoint(known, 1);
    try {
      co_await c.finish(unknown);  // never registered
    } catch (const NotFound& e) {
      refusal = e.what();
    }
    // The daemon answered and kept serving this session.
    epoch = co_await c.checkpoint(known, 2);
  }(*client, known, unknown, refusal, epoch));
  r.eng.run();
  proc.check();

  EXPECT_NE(refusal.find("resnet50"), std::string::npos) << "refusal: " << refusal;
  EXPECT_EQ(epoch, 2u);
  EXPECT_FALSE(r.daemon->model_table().is_finished("alexnet"));
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(LifecycleTest, RepackedModelResumesTrainingWithFreshSlot) {
  Rig r;
  auto model = r.model("resnet50");
  auto client = r.client();
  std::uint32_t crc2 = 0;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, std::uint32_t& crc) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(2);
    crc = m.weights_crc();
    co_await c.checkpoint(m, 2);
    co_await c.finish(m);
  }(*client, model, crc2));
  r.eng.run();

  Repacker{*r.daemon}.repack();  // drops the epoch-1 slot
  {
    auto index = r.daemon->load_index("resnet50");
    int live_slots = 0;
    for (int i = 0; i < 2; ++i) {
      if (index.slot(i).data_offset != 0) ++live_slots;
    }
    EXPECT_EQ(live_slots, 1);
  }

  // The "finished" job resumes anyway (fine-tuning): re-registration must
  // re-provision the missing slot and checkpoints must alternate again.
  PortusDaemon fresh{*r.cluster, r.cluster->node("server"), r.rendezvous,
                     PortusDaemon::Config{.endpoint = "portusd-2"}};
  fresh.recover();
  fresh.start();
  auto client2 = r.client("portusd-2");
  bool ok = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, std::uint32_t crc, bool& done) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.restore(m);
    EXPECT_EQ(m.weights_crc(), crc);
    for (std::uint64_t i = 3; i <= 5; ++i) {
      m.mutate_weights(i);
      co_await c.checkpoint(m, i);
    }
    done = true;
  }(*client2, model, crc2, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
  auto index = fresh.load_index("resnet50");
  EXPECT_EQ(index.max_epoch(), 5u);
  EXPECT_EQ(index.slot(0).state, SlotState::kDone);
  EXPECT_EQ(index.slot(1).state, SlotState::kDone);
}

TEST(LifecycleTest, DeviceImageRoundTripsWholeCheckpointStore) {
  // Checkpoint two models, image the device, load it into a *different*
  // cluster's daemon, and dump a bit-exact container from the copy.
  Rig r;
  auto m1 = r.model("alexnet");
  auto m2 = r.model("swin_b");
  auto c1 = r.client();
  auto c2 = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*c1, m1));
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*c2, m2));
  r.eng.run();

  r.daemon->device().persist_all();
  std::stringstream image;
  r.daemon->device().save_image(image);

  Rig other;
  other.daemon->device().load_image(image);
  other.daemon->recover();
  EXPECT_EQ(other.daemon->model_table().size(), 2u);

  Portusctl ctl{*other.daemon};
  storage::CheckpointFile dumped;
  bool ok = false;
  other.eng.spawn([](Portusctl& c, storage::CheckpointFile& out, bool& done) -> sim::Process {
    out = co_await c.dump("alexnet");
    done = true;
  }(ctl, dumped, ok));
  other.eng.run();
  ASSERT_TRUE(ok);
  ASSERT_EQ(dumped.tensors.size(), m1.layer_count());
  for (std::size_t i = 0; i < dumped.tensors.size(); ++i) {
    EXPECT_EQ(dumped.tensors[i].data, m1.tensor(i).buffer().download());
  }
}

TEST(LifecycleTest, ViewReflectsSlotStatesAcrossLifecycle) {
  Rig r;
  auto model = r.model("alexnet");
  auto client = r.client();
  Portusctl ctl{*r.daemon};

  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
  }(*client, model));
  r.eng.run();
  {
    const auto infos = ctl.view();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_FALSE(infos[0].restorable) << "registered but never checkpointed";
    EXPECT_EQ(infos[0].slots[0].state, SlotState::kEmpty);
  }

  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.checkpoint(m, 1);
  }(*client, model));
  r.eng.run();
  {
    const auto infos = ctl.view();
    EXPECT_TRUE(infos[0].restorable);
    EXPECT_EQ(infos[0].slots[0].state, SlotState::kDone);
    EXPECT_EQ(infos[0].slots[0].epoch, 1u);
  }
}

TEST(LifecycleTest, DumpWithoutValidVersionFails) {
  Rig r;
  auto model = r.model("alexnet");
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
  }(*client, model));
  r.eng.run();

  Portusctl ctl{*r.daemon};
  bool threw = false;
  r.eng.spawn([](Portusctl& c, bool& t) -> sim::Process {
    try {
      (void)co_await c.dump("alexnet");
    } catch (const NotFound&) {
      t = true;
    }
  }(ctl, threw));
  r.eng.run();
  EXPECT_TRUE(threw);
  // Repacking with no checkpoints present is a harmless no-op.
  const auto report = ctl.repack();
  EXPECT_EQ(report.slots_cleared, 0);
}

// dump demands the proof restore demands: a committed slot whose bytes rot
// afterwards is refused with restore's Corruption, never exported.
TEST(LifecycleTest, DumpRefusesRottedSlot) {
  Rig r;
  auto model = r.model("alexnet");
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*client, model));
  r.eng.run();

  const auto index = r.daemon->load_index("alexnet");
  const auto slot = index.latest_done_slot();
  ASSERT_TRUE(slot.has_value());
  const auto& tensor = index.tensors()[1];
  const Bytes at = index.slot(*slot).data_offset + tensor.offset_in_slot + 3;
  auto& device = r.daemon->device();
  auto b = device.read(at, 1);
  b[0] ^= std::byte{0x10};
  device.write(at, b);
  device.persist(at, 1);

  Portusctl ctl{*r.daemon};
  std::string error;
  r.eng.spawn([](Portusctl& c, std::string& what) -> sim::Process {
    try {
      (void)co_await c.dump("alexnet");
    } catch (const Corruption& e) {
      what = e.what();
    }
  }(ctl, error));
  r.eng.run();
  EXPECT_EQ(error, "tensor " + tensor.name + " of alexnet failed its payload CRC on restore");
}

TEST(LifecycleTest, ReRegistrationWithDifferentStructureRejected) {
  Rig r;
  auto model = r.model("alexnet");
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*client, model));
  r.eng.run();

  // Hand-craft a registration for the same name with a different tensor
  // count and push it straight over a raw control socket: the daemon must
  // reject it (silently reusing the index would corrupt restores).
  auto& node = r.cluster->node("client-volta");
  auto& pd = node.nic().alloc_pd("impostor-pd");
  auto cq = std::make_unique<rdma::CompletionQueue>(r.eng);
  auto& qp = r.cluster->fabric().create_qp(node.nic(), pd, *cq);

  RegisterModelMsg msg;
  msg.model_name = "alexnet";
  msg.qp_tokens.push_back(r.rendezvous.publish(qp));
  msg.tensors.push_back(TensorDesc{.name = "t0", .size = 4096});

  bool rejected = false;
  r.eng.spawn([](Rig& rig, RegisterModelMsg m, bool& out) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("portusd").connect();
    auto wire = encode(m);
    socket->send(std::move(wire));
    const auto reply = co_await socket->recv();
    const auto ack = decode_register_ack(reply);
    out = !ack.ok && !ack.error.empty();
  }(r, msg, rejected));
  r.eng.run();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);

  // The original index is untouched and still restorable.
  auto index = r.daemon->load_index("alexnet");
  EXPECT_EQ(index.tensors().size(), model.layer_count());
  EXPECT_TRUE(index.latest_done_slot().has_value());
}

}  // namespace
}  // namespace portus::core
