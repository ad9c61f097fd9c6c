// Elastic Portus-Cluster (ISSUE 9): membership epochs, online shard
// migration, drain/decommission, permanent-failure repair, and the
// client-side EpochMismatch re-resolution loop — including the headline
// crashpoint walk over a live migration's persist fences.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/strformat.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/manifest.h"
#include "core/cluster/migration.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "sim/crashpoint.h"
#include "sim/fault.h"

namespace portus::core::cluster {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Manifest v2: the membership epoch + lifecycle states persist with every
// shard registration (the CRC'd record elasticity recovers from).

TEST(ElasticManifestTest, MembershipFieldsRoundtrip) {
  const std::vector<Bytes> sizes{96_MiB, 1_MiB, 40_MiB};
  const std::vector<std::string> names{"w0", "w1", "w2"};
  const std::vector<std::string> endpoints{"portusd0", "portusd1"};
  const auto plan = Placement::compute("gpt-tiny", sizes, 2, 2, 4);
  auto m = ShardManifest::from_plan(plan, endpoints, names, sizes);
  m.membership_epoch = 7;
  m.member_states = {MemberState::kActive, MemberState::kDraining};

  const auto back = ShardManifest::decode(m.encode());
  EXPECT_EQ(back.membership_epoch, 7u);
  EXPECT_EQ(back.shard_count, plan.shard_tensors.size());
  ASSERT_EQ(back.member_states.size(), 2u);
  EXPECT_EQ(back.member_states[0], MemberState::kActive);
  EXPECT_EQ(back.member_states[1], MemberState::kDraining);
}

// ---------------------------------------------------------------------------
// The elastic rig: N daemons on their own storage nodes, the first
// `founding` of them sealed into the initial membership; the rest start
// idle and may join later.

struct ElasticRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  ElasticCluster elastic;
  std::vector<std::unique_ptr<PortusDaemon>> daemons;

  ElasticRig(int nodes, int founding,
             ElasticCluster::Config ec = ElasticCluster::Config{})
      : elastic{eng, ec} {
    cluster = net::Cluster::sharded_testbed(eng, nodes);
    for (int i = 0; i < nodes; ++i) {
      PortusDaemon::Config cfg;
      cfg.endpoint = ep(i);
      cfg.faults = &faults;
      daemons.push_back(std::make_unique<PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
    }
    for (int i = 0; i < founding; ++i) elastic.add_member(ep(i), *daemons[i]);
    elastic.seal();
  }
  ~ElasticRig() { eng.shutdown(); }

  static std::string ep(int i) { return strf("portusd{}", i); }

  ClusterClient::Config client_config(std::uint32_t replicas, std::uint32_t shards) {
    ClusterClient::Config cfg;
    cfg.replicas = replicas;
    cfg.shard_count = shards;
    cfg.membership = &elastic;
    cfg.op_timeout = 50ms;
    return cfg;
  }

  dnn::Model make_model(double scale = 0.02) {
    dnn::ModelZoo::Options opt;
    opt.scale = scale;
    return dnn::ModelZoo::create(cluster->node("client-volta").gpu(0), "resnet50", opt);
  }
};

// ---------------------------------------------------------------------------
// join(): the new member receives its share of existing copies, the epoch
// bumps, every live daemon serves the new epoch, and subsequent ops
// re-resolve transparently.

TEST(ElasticTest, JoinMigratesCopiesAndBumpsEpoch) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);

    const std::string joiner = ElasticRig::ep(2);
    co_await rig.elastic.join(joiner, *rig.daemons[2]);

    // The resized ring keeps taking checkpoints: the first op eats one
    // EpochMismatch, re-resolves, and commits epoch 3.
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u);
    EXPECT_FALSE(ck.degraded);
    crc = m.weights_crc();

    m.mutate_weights(99);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 3u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);

  // seal() = epoch 1, the join barrier = epoch 2, pushed to every member
  // including the joiner.
  EXPECT_EQ(r.elastic.membership().epoch, 2u);
  EXPECT_EQ(r.elastic.membership().active_positions().size(), 3u);
  for (auto& d : r.daemons) EXPECT_EQ(d->membership_epoch(), 2u);

  // The joiner physically holds migrated copies at the source's epochs.
  const auto& st = r.elastic.stats();
  EXPECT_GT(st.copies_moved, 0u);
  EXPECT_GT(st.bytes_streamed, 0u);
  EXPECT_EQ(st.models_migrated, 1u);
  EXPECT_GE(st.barriers, 1u);
  EXPECT_FALSE(r.daemons[2]->model_table().names().empty());
  for (const auto& name : r.daemons[2]->model_table().names()) {
    const MIndex* idx = r.daemons[2]->find_live_index(name);
    ASSERT_NE(idx, nullptr);
    const auto done_slot = idx->latest_done_slot();
    ASSERT_TRUE(done_slot.has_value());
    EXPECT_GE(idx->slot(*done_slot).epoch, 2u);
  }
  EXPECT_GE(client.stats().epoch_reresolutions, 1u);
}

// A migration commits only what its carried CRC block proves: a source
// copy that rots after its own commit must not land DONE on the joiner
// under that block.

TEST(ElasticTest, JoinRefusesToCommitARottedSourceCopy) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};
  r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  }(client, model));
  r.eng.run();

  // The shard the join will hand the new member (ring position 2): the
  // placement the migrator computes over the target membership.
  const auto& plan = client.plan();
  std::vector<Bytes> sizes;
  for (const auto& t : model.tensors()) sizes.push_back(t.byte_size());
  const std::vector<std::uint32_t> active{0, 1, 2};
  const auto target = Placement::compute_over(plan.model_name, sizes, plan.shard_count, 3,
                                              active, plan.replicas, plan.placement_epoch);
  std::optional<std::uint32_t> moving;
  for (std::uint32_t s = 0; s < target.shard_daemons.size() && !moving; ++s) {
    const auto& ring = target.shard_daemons[s];
    if (!target.shard_tensors[s].empty() &&
        std::find(ring.begin(), ring.end(), 2u) != ring.end()) {
      moving = s;
    }
  }
  ASSERT_TRUE(moving.has_value());
  const std::string key = shard_key(plan.model_name, *moving);

  // Both founders hold epoch 1; the migrator streams from the first, so
  // rot one byte of that copy's committed tensor.
  {
    const MIndex* idx = r.daemons[0]->find_live_index(key);
    ASSERT_NE(idx, nullptr);
    const auto slot = idx->latest_done_slot();
    ASSERT_TRUE(slot.has_value());
    const Bytes at = idx->slot(*slot).data_offset + idx->tensors()[0].offset_in_slot;
    auto& device = r.daemons[0]->device();
    auto b = device.read(at, 1);
    b[0] ^= std::byte{0x04};
    device.write(at, b);
    device.persist(at, 1);
  }

  r.eng.spawn([](ElasticRig& rig) -> sim::Process {
    co_await rig.elastic.join(ElasticRig::ep(2), *rig.daemons[2]);
  }(r));
  r.eng.run();
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  EXPECT_GT(r.elastic.stats().copies_moved, 0u) << "the intact shards still migrate";

  auto& joiner = *r.daemons[2];
  if (joiner.model_table().lookup(key).has_value()) {
    const auto idx = joiner.load_index(key);
    EXPECT_FALSE(idx.latest_done_slot().has_value())
        << "a copy that fails its carried CRC block landed DONE";
  }
  const auto report = Fsck{joiner}.run(/*repair=*/false);
  EXPECT_EQ(report.corrupt_demoted, 0);
  EXPECT_EQ(report.corrupt_tensors, 0);
}

// ---------------------------------------------------------------------------
// Headline acceptance: a 1 -> 4 -> 2 resize under continuous checkpoint
// load produces ZERO failed client ops, and the final restore is bit-exact.

TEST(ElasticTest, ResizeOneToFourToTwoUnderLoadZeroFailedOps) {
  ElasticRig r{4, 1};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 8)};
  bool stop = false;
  bool loader_done = false, resize_done = false;
  std::uint64_t ops = 0, last_epoch = 0;
  std::uint32_t last_crc = 0;

  // The loader: checkpoint rounds back to back until the resize sequence
  // finishes. Any failed op throws out of the coroutine and trips
  // failed_process_count below.
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, bool& stop_flag, std::uint64_t& n,
                 std::uint64_t& epoch, std::uint32_t& crc, bool& done) -> sim::Process {
    co_await c.register_model(m);
    std::uint64_t k = 0;
    while (!stop_flag) {
      m.mutate_weights(++k);
      const auto golden = m.weights_crc();
      const auto ck = co_await c.checkpoint(k);
      ++n;
      epoch = ck.epoch;
      crc = golden;
    }
    done = true;
  }(client, model, stop, ops, last_epoch, last_crc, loader_done));

  // The resize sequence: grow 1 -> 4, then shrink 4 -> 2 (drain +
  // decommission two members), with the loader live throughout. Each step
  // waits for the loader to land at least one more checkpoint, so every
  // membership epoch sees live traffic (that is the point of the test).
  r.eng.spawn([](ElasticRig& rig, const std::uint64_t& committed, bool& stop_flag,
                 bool& done) -> sim::Process {
    const auto traffic = [&](std::uint64_t floor) -> sim::SubTask<> {
      while (committed <= floor) co_await rig.eng.sleep(100us);
    };
    co_await traffic(0);
    for (int i = 1; i <= 3; ++i) {
      const std::string joiner = ElasticRig::ep(i);
      co_await rig.elastic.join(joiner, *rig.daemons[i]);
      co_await traffic(committed);
    }
    for (int i = 0; i <= 1; ++i) {
      const std::string leaver = ElasticRig::ep(i);
      co_await rig.elastic.drain(leaver);
      co_await traffic(committed);
      rig.elastic.decommission(leaver);
      co_await traffic(committed);
    }
    stop_flag = true;
    done = true;
  }(r, ops, stop, resize_done));

  r.eng.run();
  ASSERT_TRUE(loader_done);
  ASSERT_TRUE(resize_done);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  ASSERT_GT(ops, 0u);

  // Zero failed ops: every round the loader issued committed, and the
  // resizes cost only re-resolutions (never a lane death — nothing
  // crashed, members only moved states).
  EXPECT_EQ(client.stats().checkpoints, ops);
  EXPECT_EQ(client.stats().lane_failures, 0u);
  EXPECT_GE(client.stats().epoch_reresolutions, 3u);

  // seal + 3 joins + 2 drains + 2 decommissions = epoch 8, 2 actives left.
  EXPECT_EQ(r.elastic.membership().epoch, 8u);
  EXPECT_EQ(r.elastic.membership().active_positions().size(), 2u);
  EXPECT_GT(r.elastic.stats().copies_moved, 0u);

  // The last acked round restores bit-exact from the shrunken ring.
  bool restored = false;
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, std::uint64_t epoch,
                 bool& done) -> sim::Process {
    m.mutate_weights(424242);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, epoch);
    done = true;
  }(client, model, last_epoch, restored));
  r.eng.run();
  ASSERT_TRUE(restored);
  EXPECT_EQ(model.weights_crc(), last_crc);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// ---------------------------------------------------------------------------
// drain + decommission: the leaving member's copies are re-homed before it
// goes DOWN; restores keep working; cluster-status shows the lifecycle.

TEST(ElasticTest, DrainThenDecommissionKeepsDataReachable) {
  ElasticRig r{3, 3};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 6)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    crc = m.weights_crc();

    const std::string leaver = ElasticRig::ep(0);
    co_await rig.elastic.drain(leaver);
    EXPECT_EQ(rig.elastic.membership().find(leaver)->state, MemberState::kDraining);
    rig.elastic.decommission(leaver);
    EXPECT_EQ(rig.elastic.membership().find(leaver)->state, MemberState::kDown);

    m.mutate_weights(77);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);

  // seal = epoch 1, drain = epoch 2, decommission = epoch 3. The
  // decommissioned member is never contacted again: it keeps serving the
  // drain-era epoch while the survivors moved on.
  EXPECT_EQ(r.elastic.membership().epoch, 3u);
  EXPECT_EQ(r.daemons[0]->membership_epoch(), 2u);
  EXPECT_EQ(r.daemons[1]->membership_epoch(), 3u);
  EXPECT_EQ(r.daemons[2]->membership_epoch(), 3u);

  // Every shard is fully replicated on the two survivors at epoch 2.
  for (int i : {1, 2}) {
    std::uint64_t newest = 0;
    for (const auto& name : r.daemons[i]->model_table().names()) {
      const MIndex* idx = r.daemons[i]->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      const auto done_slot = idx->latest_done_slot();
      ASSERT_TRUE(done_slot.has_value());
      newest = std::max(newest, idx->slot(*done_slot).epoch);
    }
    EXPECT_EQ(newest, 2u);
  }

  // cluster-status: EPOCH + MSTATE columns and the membership footer.
  std::vector<PortusDaemon*> ptrs;
  for (auto& d : r.daemons) ptrs.push_back(d.get());
  const auto status =
      ClusterCtl::render_status(ptrs, &client, &r.elastic.membership());
  EXPECT_NE(status.find("MSTATE"), std::string::npos);
  EXPECT_NE(status.find("DOWN"), std::string::npos);
  EXPECT_NE(status.find("membership: epoch 3, 3 members (2 active)"),
            std::string::npos);
  EXPECT_NE(status.find("epoch re-resolves"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Permanent failure: a crashed member is declared DOWN and its copies are
// re-replicated from the survivors — redundancy is restored, not just
// routed around.

TEST(ElasticTest, RepairReplicatesAfterPermanentFailure) {
  ElasticRig r{3, 3};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 6)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    crc = m.weights_crc();

    rig.faults.kill_now("portusd1");  // unrecoverable crash-stop
    const std::string failed = ElasticRig::ep(1);
    co_await rig.elastic.repair(failed);
    EXPECT_EQ(rig.elastic.membership().find(failed)->state, MemberState::kDown);

    // Post-repair the two survivors hold every shard twice; the restore
    // runs entirely on primaries of the new placement.
    m.mutate_weights(99);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  EXPECT_GT(r.elastic.stats().repaired_copies, 0u);

  // Redundancy check: both survivors hold all 6 shards at epoch 2.
  for (int i : {0, 2}) {
    std::size_t copies = 0;
    for (const auto& name : r.daemons[i]->model_table().names()) {
      const MIndex* idx = r.daemons[i]->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      const auto done_slot = idx->latest_done_slot();
      ASSERT_TRUE(done_slot.has_value());
      EXPECT_EQ(idx->slot(*done_slot).epoch, 2u) << name;
      ++copies;
    }
    EXPECT_EQ(copies, 6u) << "survivor " << i << " missing re-replicated shards";
  }
}

// ---------------------------------------------------------------------------
// Satellite: total replica loss. With R=1 and the only holder dead, the
// restore must fail with a clean error — no hang (the finite op_timeout
// watchdog), no partial success. Restarting the daemon over its intact
// PMEM then revives the lane and the next restore succeeds.

TEST(ElasticTest, TotalReplicaLossCleanErrorThenRevival) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 2);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  ClusterClient::Config ccfg;
  ccfg.replicas = 1;  // every shard has exactly one home
  ccfg.op_timeout = 50ms;
  for (int i = 0; i < 2; ++i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.faults = &faults;
    ccfg.endpoints.push_back(cfg.endpoint);
    daemons.push_back(std::make_unique<PortusDaemon>(
        *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
    daemons.back()->start();
  }

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};

  bool done = false;
  bool threw_cleanly = false;
  std::uint32_t want = 0;
  eng.spawn([](sim::Engine& eng, net::Cluster& world, sim::FaultInjector& faults,
               std::vector<std::unique_ptr<PortusDaemon>>& ds, QpRendezvous& rdv,
               ClusterClient& c, dnn::Model& m, std::uint32_t& crc, bool& threw,
               bool& ok) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    crc = m.weights_crc();

    faults.kill_now("portusd0");
    m.mutate_weights(5);
    try {
      co_await c.restore();
    } catch (const Error&) {
      threw = true;  // clean failure: shards on portusd0 have no copy left
    }

    // Revive: a fresh daemon process over the same (intact) PMEM device and
    // endpoint. Destroy the dead one first — its destructor deregisters the
    // fault target and releases the listener name.
    ds[0].reset();
    PortusDaemon::Config cfg;
    cfg.endpoint = "portusd0";
    cfg.faults = &faults;
    ds[0] = std::make_unique<PortusDaemon>(world, world.node("pmem0"), rdv, cfg);
    ds[0]->recover();
    ds[0]->start();
    co_await eng.sleep(10us);

    co_await c.refresh_placement();  // revives the down lane, re-registers
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    ok = true;
  }(eng, *cluster, faults, daemons, rendezvous, client, model, want, threw_cleanly,
    done));
  eng.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(threw_cleanly) << "restore with every replica down must throw";
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_GE(client.stats().lane_failures, 1u);
  EXPECT_GE(client.stats().lane_revivals, 1u);
  EXPECT_EQ(eng.failed_process_count(), 0);
  eng.shutdown();
}

// ---------------------------------------------------------------------------
// Headline crash walk: power cut at EVERY persist fence of a live shard
// migration. The destination image must be fsck-clean at every boundary
// (DONE slots are durability proofs, torn streams demote, never corrupt),
// and the source — which migration never mutates — retains every acked
// epoch throughout, so acked checkpoints are recoverable from one side or
// the other at any cut.

constexpr Bytes kWalkDevdax = 64_MiB;

struct MigrationRecording {
  std::vector<sim::CrashPoint> points;
  std::uint64_t acked_epoch = 0;
};

MigrationRecording record_migration_workload() {
  MigrationRecording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "src", .pmem_devdax = kWalkDevdax})
                   .add_node({.name = "dst", .pmem_devdax = kWalkDevdax})
                   .build(eng);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  ElasticCluster::Config ec;
  ec.replicas = 2;
  ec.stream_chunk = 32_KiB;  // many data fences per migrated copy
  ElasticCluster elastic{eng, ec};

  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  for (const auto* node : {"src", "dst"}) {
    PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", daemons.size());
    cfg.faults = &faults;
    daemons.push_back(std::make_unique<PortusDaemon>(*world, world->node(node),
                                                     rendezvous, cfg));
    daemons.back()->start();
  }
  elastic.add_member("portusd0", *daemons[0]);
  elastic.seal();

  auto& client_node = world->node("client");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(client_node.gpu(0), "alexnet", opt);
  ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 4;
  ccfg.membership = &elastic;
  ccfg.op_timeout = 50ms;
  ClusterClient client{*world, client_node, client_node.gpu(0), rendezvous, ccfg};

  // Record only the DESTINATION device: the walk probes the half-written
  // migration target. The source never sees a write during the stream.
  sim::CrashpointRecorder recorder{world->node("dst").devdax().device()};
  eng.spawn([](ElasticCluster& ec, PortusDaemon& joiner, ClusterClient& c,
               dnn::Model& m, MigrationRecording& out) -> sim::Process {
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      const auto ck = co_await c.checkpoint(k);
      out.acked_epoch = ck.epoch;
    }
    const std::string joiner_ep = "portusd1";
    co_await ec.join(joiner_ep, joiner);
  }(elastic, *daemons[1], client, model, rec));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();

  // The source side of the claim, checked once (it is boundary-invariant:
  // migration only READS the source): every shard copy still serves the
  // acked epoch, and the image scrubs clean.
  EXPECT_GT(elastic.stats().copies_moved, 0u);
  for (const auto& name : daemons[0]->model_table().names()) {
    const MIndex* idx = daemons[0]->find_live_index(name);
    EXPECT_NE(idx, nullptr);
    if (idx == nullptr) continue;
    const auto done_slot = idx->latest_done_slot();
    EXPECT_TRUE(done_slot.has_value());
    if (!done_slot.has_value()) continue;
    EXPECT_EQ(idx->slot(*done_slot).epoch, rec.acked_epoch) << name;
  }
  auto src_report = Fsck{*daemons[0]}.run(/*repair=*/false);
  EXPECT_TRUE(src_report.clean()) << "migration dirtied the source image";

  eng.shutdown();
  return rec;
}

TEST(ElasticTest, MigrationCrashWalkLeavesBothSidesFsckClean) {
  const auto rec = record_migration_workload();
  ASSERT_EQ(rec.acked_epoch, 2u);
  EXPECT_GE(rec.points.size(), 10u) << "migration recorded too few persist fences";

  for (const auto& p : rec.points) {
    SCOPED_TRACE(::testing::Message() << "crash point #" << p.ordinal << " (fence "
                                      << p.persist_seq << ", "
                                      << (p.after_persist ? "after" : "before") << ")");
    sim::Engine eng;
    auto world = net::Cluster::Builder{}
                     .add_node({.name = "dst", .pmem_devdax = kWalkDevdax})
                     .build(eng);
    QpRendezvous rendezvous;
    PortusDaemon daemon{*world, world->node("dst"), rendezvous};
    auto& device = world->node("dst").devdax().device();
    sim::CrashpointRecorder::materialize(p, device, /*seed=*/0xC0FFEEull + p.ordinal);

    ASSERT_NO_THROW(daemon.recover());

    // Any DONE slot the cut left behind is a durability proof: CRC block
    // present at the exact epoch, payload bit-identical, and the epoch is
    // one the source actually committed (migration carries source epochs,
    // it never invents them).
    for (const auto& name : daemon.model_table().names()) {
      std::optional<MIndex> index;
      try {
        index.emplace(daemon.load_index(name));
      } catch (const Error&) {
        continue;  // torn mid-registration record; fsck demotes it below
      }
      for (int i = 0; i < 2; ++i) {
        const auto& slot = index->slot(i);
        if (slot.state != SlotState::kDone || index->phantom()) continue;
        const auto block = index->payload_crcs(i);
        ASSERT_TRUE(block.has_value()) << "DONE slot without payload-CRC block";
        EXPECT_EQ(block->epoch, slot.epoch);
        const auto& tensors = index->tensors();
        ASSERT_EQ(block->crcs.size(), tensors.size());
        for (std::size_t t = 0; t < tensors.size(); ++t) {
          EXPECT_EQ(device.crc(slot.data_offset + tensors[t].offset_in_slot,
                               tensors[t].size),
                    block->crcs[t])
              << "migrated tensor " << t << " of " << name << " not bit-exact";
        }
        EXPECT_GE(slot.epoch, 1u);
        EXPECT_LE(slot.epoch, rec.acked_epoch) << "epoch the source never committed";
      }
    }

    // fsck: a cut mid-stream may leave ACTIVE leftovers and torn records —
    // never payload corruption. A second pass finds nothing.
    auto report = Fsck{daemon}.run(/*repair=*/true);
    EXPECT_EQ(report.corrupt_demoted, 0) << "power cut corrupted a DONE slot";
    EXPECT_EQ(report.corrupt_tensors, 0);
    EXPECT_EQ(report.overlap_violations, 0);
    EXPECT_TRUE(Fsck{daemon}.run(/*repair=*/true).clean());

    eng.shutdown();
    if (::testing::Test::HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace portus::core::cluster
