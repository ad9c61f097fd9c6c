// Multi-tenant subsystem (core/daemon/tenant.h + core/fleet): quota
// negotiation and capacity accounting, strict-priority/WFQ admission order,
// token-bucket pacing, bounded-queue Backpressure absorbed by client retry,
// the v5 tenant-field wire roundtrip, online repacking running under live
// admitted traffic without corrupting the image, and untenanted daemons
// admitting through the same gate as one unbounded default tenant.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "core/daemon/tenant.h"
#include "core/fleet/fleet_gen.h"
#include "core/protocol.h"
#include "common/strformat.h"
#include "dnn/model.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

// --- TenantRegistry: negotiation + capacity accounting -----------------------

TEST(TenantRegistryTest, QuotaNegotiationClampsAgainstPolicyCeiling) {
  TenantRegistry::Defaults def;
  def.quota.capacity_bytes = 1_GiB;
  def.quota.rate_bytes_per_sec = 100_MB;
  TenantRegistry reg{def};

  // A zero request takes the policy default outright.
  Tenant& a = reg.admit_tenant("a", PriorityClass::kNormal, 0, 0);
  EXPECT_EQ(a.quota.capacity_bytes, 1_GiB);
  EXPECT_EQ(a.quota.rate_bytes_per_sec, 100_MB);
  EXPECT_EQ(a.quota.priority, PriorityClass::kNormal);

  // Over-asking clamps to the ceiling; modest requests are granted as-is.
  Tenant& b = reg.admit_tenant("b", PriorityClass::kHigh, 8_GiB, 1_GB);
  EXPECT_EQ(b.quota.capacity_bytes, 1_GiB);
  EXPECT_EQ(b.quota.rate_bytes_per_sec, 100_MB);
  Tenant& c = reg.admit_tenant("c", PriorityClass::kBatch, 256_MiB, 10_MB);
  EXPECT_EQ(c.quota.capacity_bytes, 256_MiB);
  EXPECT_EQ(c.quota.rate_bytes_per_sec, 10_MB);

  // Re-registration renegotiates the same tenant in place.
  Tenant& c2 = reg.admit_tenant("c", PriorityClass::kHigh, 512_MiB, 0);
  EXPECT_EQ(&c2, &c);
  EXPECT_EQ(c2.quota.capacity_bytes, 512_MiB);
  EXPECT_EQ(c2.quota.priority, PriorityClass::kHigh);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(TenantRegistryTest, CapacityOverdraftRejectsAndUnchargeRefunds) {
  TenantRegistry::Defaults def;
  def.quota.capacity_bytes = 100_MiB;
  TenantRegistry reg{def};
  Tenant& t = reg.admit_tenant("t", PriorityClass::kNormal, 0, 0);

  reg.charge(t, "m1", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB);
  // Charging the same model again is idempotent, not a double bill.
  reg.charge(t, "m1", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB);
  EXPECT_EQ(reg.owner_of("m1"), &t);

  EXPECT_THROW(reg.charge(t, "m2", 60_MiB), ResourceExhausted);
  EXPECT_EQ(t.usage.quota_rejects, 1u);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB) << "rejected charge must not bill";

  reg.charge(t, "m3", 30_MiB);
  reg.uncharge("m1");
  EXPECT_EQ(t.usage.charged_bytes, 30_MiB);
  EXPECT_EQ(reg.owner_of("m1"), nullptr);
  // The refunded headroom admits the previously rejected registration.
  reg.charge(t, "m2", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 90_MiB);
}

TEST(TenantRegistryTest, ChargeRefusesModelOwnedByAnotherTenant) {
  TenantRegistry reg;
  Tenant& a = reg.admit_tenant("a", PriorityClass::kNormal, 0, 0);
  Tenant& b = reg.admit_tenant("b", PriorityClass::kNormal, 0, 0);
  reg.charge(a, "m", 10_MiB);

  // b re-registering a's model must not bill b, nor strand a's charge
  // where uncharge() can no longer find it.
  try {
    reg.charge(b, "m", 10_MiB);
    ADD_FAILURE() << "a second tenant was billed for a charged model";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("tenant a"), std::string::npos) << e.what();
  }
  EXPECT_EQ(a.usage.charged_bytes, 10_MiB);
  EXPECT_EQ(b.usage.charged_bytes, 0u);
  EXPECT_EQ(b.usage.models, 0u);
  EXPECT_EQ(reg.owner_of("m"), &a);
}

// --- AdmissionController: strict priority, WFQ, pacing, backpressure ---------

sim::Process hold_then_release(sim::Engine& eng, AdmissionController& ctrl, Tenant& t,
                               Duration hold) {
  auto ticket = co_await ctrl.admit(t, 0);
  co_await eng.sleep(hold);
}

sim::Process admit_and_record(AdmissionController& ctrl, Tenant& t, Bytes bytes,
                              std::vector<std::string>& order, std::string name) {
  auto ticket = co_await ctrl.admit(t, bytes);
  order.push_back(std::move(name));
}

TEST(AdmissionControllerTest, StrictPriorityAcrossClasses) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 16}};
    TenantRegistry reg;
    Tenant& hi = reg.admit_tenant("hi", PriorityClass::kHigh, 0, 0);
    Tenant& no = reg.admit_tenant("no", PriorityClass::kNormal, 0, 0);
    Tenant& ba = reg.admit_tenant("ba", PriorityClass::kBatch, 0, 0);
    Tenant& holder = reg.admit_tenant("holder", PriorityClass::kBatch, 0, 0);

    std::vector<std::string> order;
    // The single slot is held; waiters enqueue in *reverse* priority order,
    // so FIFO dispatch would grant batch first. Strict priority must not.
    eng.spawn(hold_then_release(eng, ctrl, holder, Duration{1'000'000}));
    eng.spawn(admit_and_record(ctrl, ba, 1_MiB, order, "batch"));
    eng.spawn(admit_and_record(ctrl, no, 1_MiB, order, "normal"));
    eng.spawn(admit_and_record(ctrl, hi, 1_MiB, order, "high"));
    eng.run();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "high");
    EXPECT_EQ(order[1], "normal");
    EXPECT_EQ(order[2], "batch");
    EXPECT_EQ(ctrl.stats().admitted, 4u);
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, WeightedFairQueuingWithinClass) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 16}};
    TenantRegistry reg;
    Tenant& a = reg.admit_tenant("a", PriorityClass::kNormal, 0, 0);
    Tenant& b = reg.admit_tenant("b", PriorityClass::kNormal, 0, 0);
    Tenant& holder = reg.admit_tenant("holder", PriorityClass::kNormal, 0, 0);

    std::vector<std::string> order;
    // Equal bytes, queued a1 a2 b1 b2. Start-time-fair tags (in MiB): a1=1
    // a2=2, b1=1 b2=2. Fair order interleaves a1 b1 a2 b2 (ties go to the
    // earlier arrival) — plain FIFO (a1 a2 b1 b2) would let a's backlog
    // starve b.
    eng.spawn(hold_then_release(eng, ctrl, holder, Duration{1'000'000}));
    eng.spawn(admit_and_record(ctrl, a, 1_MiB, order, "a1"));
    eng.spawn(admit_and_record(ctrl, a, 1_MiB, order, "a2"));
    eng.spawn(admit_and_record(ctrl, b, 1_MiB, order, "b1"));
    eng.spawn(admit_and_record(ctrl, b, 1_MiB, order, "b2"));
    eng.run();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "a1");
    EXPECT_EQ(order[1], "b1");
    EXPECT_EQ(order[2], "a2");
    EXPECT_EQ(order[3], "b2");
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, TokenBucketPacesOverRateTenant) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 4, .queue_depth = 16}};
    TenantRegistry::Defaults def;
    def.quota.rate_bytes_per_sec = 100_MB;
    TenantRegistry reg{def};
    Tenant& t = reg.admit_tenant("paced", PriorityClass::kNormal, 0, 0);

    std::vector<Time> at;
    eng.spawn([](sim::Engine& eng, AdmissionController& ctrl, Tenant& t,
                 std::vector<Time>& at) -> sim::Process {
      for (int i = 0; i < 3; ++i) {
        auto ticket = co_await ctrl.admit(t, 50_MB);
        at.push_back(eng.now());
      }
    }(eng, ctrl, t, at));
    eng.run();

    // 50 MB per op at 100 MB/s: each op after the burst allowance sleeps
    // off ~0.5 s of token debt before competing for a slot.
    ASSERT_EQ(at.size(), 3u);
    EXPECT_GE((at[2] - at[1]).count(), 400'000'000ll);
    EXPECT_GT(ctrl.stats().paced, 0u);
    EXPECT_GT(t.usage.paced_total.count(), 0ll);
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, BoundedQueueThrowsBackpressure) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 2}};
    TenantRegistry reg;
    Tenant& t = reg.admit_tenant("t", PriorityClass::kBatch, 0, 0);

    int rejected = 0;
    int admitted = 0;
    eng.spawn(hold_then_release(eng, ctrl, t, Duration{1'000'000}));
    for (int i = 0; i < 6; ++i) {
      eng.spawn([](AdmissionController& ctrl, Tenant& t, int& admitted,
                   int& rejected) -> sim::Process {
        try {
          auto ticket = co_await ctrl.admit(t, 1_KiB);
          ++admitted;
        } catch (const Backpressure&) {
          ++rejected;
        }
      }(ctrl, t, admitted, rejected));
    }
    eng.run();

    // One slot busy, two queue positions: the rest bounce immediately.
    EXPECT_EQ(admitted, 2);
    EXPECT_EQ(rejected, 4);
    EXPECT_EQ(ctrl.stats().rejected, 4u);
    EXPECT_EQ(t.usage.rejected, 4u);
  }
  eng.shutdown();
}

// --- protocol v5: tenant negotiation on the wire ------------------------------

TEST(FleetProtocolTest, V5TenantFieldsRoundtrip) {
  RegisterModelMsg m;
  m.model_name = "gpt";
  m.tenant_id = "team-inference";
  m.priority = static_cast<std::uint8_t>(PriorityClass::kHigh);
  m.requested_capacity = 3_GiB;
  m.requested_rate = 250_MB;
  const auto d = decode_register_model(encode(m));
  EXPECT_EQ(d.tenant_id, "team-inference");
  EXPECT_EQ(priority_from_wire(d.priority), PriorityClass::kHigh);
  EXPECT_EQ(d.requested_capacity, 3_GiB);
  EXPECT_EQ(d.requested_rate, 250_MB);

  RegisterAckMsg ack;
  ack.ok = true;
  ack.granted_capacity = 1_GiB;
  ack.granted_rate = 100_MB;
  ack.granted_wr_slots = 3;
  const auto dack = decode_register_ack(encode(ack));
  EXPECT_EQ(dack.granted_capacity, 1_GiB);
  EXPECT_EQ(dack.granted_rate, 100_MB);
  EXPECT_EQ(dack.granted_wr_slots, 3u);

  OpDoneMsg done;
  done.model_name = "gpt";
  done.ok = false;
  done.backpressure = true;
  done.retry_after_ns = 2'000'000;
  const auto ddone = decode_op_done(encode(done), MsgType::kCheckpointDone);
  EXPECT_FALSE(ddone.ok);
  EXPECT_TRUE(ddone.backpressure);
  EXPECT_EQ(ddone.retry_after_ns, 2'000'000u);

  // An out-of-range priority demotes to batch instead of faulting.
  EXPECT_EQ(priority_from_wire(7), PriorityClass::kBatch);
}

// --- end to end: Backpressure absorbed by client retry ------------------------

struct TenancyRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon;

  explicit TenancyRig(PortusDaemon::Config cfg = tenancy_config()) {
    daemon = std::make_unique<PortusDaemon>(*cluster, cluster->node("server"),
                                            rendezvous, cfg);
    daemon->start();
  }
  ~TenancyRig() { eng.shutdown(); }

  static PortusDaemon::Config tenancy_config() {
    PortusDaemon::Config cfg;
    cfg.tenancy = true;
    cfg.admission_inflight = 1;
    cfg.admission_queue_depth = 1;
    return cfg;
  }
};

TEST(FleetTest, BackpressureRetriesToSuccess) {
  TenancyRig r;
  auto& volta = r.cluster->node("client-volta");

  // Eight clients storm one admission slot with one queue position: most
  // first attempts bounce with Backpressure, every op must still succeed
  // within its jittered-backoff retry budget.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<dnn::Model>> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto model = std::make_unique<dnn::Model>(strf("job{}", i), volta.gpu(0));
    model->add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
    auto client = std::make_unique<PortusClient>(*r.cluster, volta, volta.gpu(0),
                                                 r.rendezvous);
    client->set_tenant(PortusClient::TenantSpec{
        .id = strf("tenant{}", i),
        .priority = static_cast<std::uint8_t>(PriorityClass::kBatch)});
    client->set_retry_policy(PortusClient::RetryPolicy{
        .max_retries = 30, .jitter_seed = 0xF1EE7000ull + static_cast<std::uint64_t>(i)});
    models.push_back(std::move(model));
    clients.push_back(std::move(client));
  }

  std::vector<sim::Process> procs;
  for (int i = 0; i < kClients; ++i) {
    procs.push_back(r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      for (std::uint64_t k = 1; k <= 3; ++k) {
        const auto epoch = co_await c.checkpoint(m, k);
        if (epoch != k) throw Error("unexpected epoch");
      }
    }(*clients[i], *models[i])));
  }
  r.eng.run();
  for (auto& p : procs) p.check();

  std::uint64_t retries = 0;
  std::uint64_t backpressure = 0;
  for (const auto& c : clients) {
    retries += c->stats().retries;
    backpressure += c->stats().backpressure;
    EXPECT_EQ(c->stats().checkpoints, 3u);
  }
  EXPECT_GT(backpressure, 0u) << "the storm never hit the bounded queue";
  EXPECT_EQ(retries, backpressure);
  EXPECT_EQ(r.daemon->stats().backpressure_rejects, backpressure);
  EXPECT_GT(r.daemon->stats().checkpoints, 0u);
  EXPECT_EQ(r.daemon->stats().failed_ops, 0u);

  // The registry saw every tenant; the grant echoed the daemon's policy.
  ASSERT_NE(r.daemon->tenants(), nullptr);
  EXPECT_EQ(r.daemon->tenants()->size(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(clients[0]->stats().granted_wr_slots, 1u);
}

// --- a refused registration hands its capacity charge back --------------------

TEST(FleetTest, RefusedRegistrationRefundsTenantCharge) {
  // A tenanted daemon on a devdax namespace too small for one of the
  // models. Registration charges the tenant before layout; when the heap
  // then refuses the layout, the charge must be refunded, or the quota
  // stays held for a model that does not exist (and that the repacker,
  // which only walks the ModelTable, can never free).
  sim::Engine eng;
  auto cluster = net::Cluster::Builder{}
                     .add_node({.name = "client", .gpu_count = 1})
                     .add_node({.name = "server", .pmem_devdax = 8_MiB})
                     .build(eng);
  QpRendezvous rendezvous;
  PortusDaemon daemon{*cluster, cluster->node("server"), rendezvous,
                      TenancyRig::tenancy_config()};
  daemon.start();
  auto& node = cluster->node("client");

  // 1 MiB fits (2 MiB charged for its two slots); 16 MiB does not fit the
  // 7 MiB heap; the reshaped model re-registers the fitting one's name with
  // a different structure, which is refused after the (skipped) charge.
  dnn::Model fits{"fits", node.gpu(0)};
  fits.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 18}}, /*phantom=*/true);
  dnn::Model huge{"huge", node.gpu(0)};
  huge.add_tensor(dnn::TensorMeta{.name = "w", .shape = {4 << 20}}, /*phantom=*/true);
  dnn::Model reshaped{"fits", node.gpu(0)};
  reshaped.add_tensor(dnn::TensorMeta{.name = "a", .shape = {1 << 10}}, /*phantom=*/true);
  reshaped.add_tensor(dnn::TensorMeta{.name = "b", .shape = {1 << 10}}, /*phantom=*/true);
  PortusClient client{*cluster, node, node.gpu(0), rendezvous};
  client.set_tenant(PortusClient::TenantSpec{.id = "t"});

  std::vector<std::string> refusals;
  auto proc = eng.spawn([](PortusClient& c, dnn::Model& fits, dnn::Model& huge,
                           dnn::Model& reshaped,
                           std::vector<std::string>& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(fits);
    for (dnn::Model* m : {&huge, &reshaped}) {
      try {
        co_await c.register_model(*m);
      } catch (const Error& e) {
        out.push_back(e.what());
      }
    }
  }(client, fits, huge, reshaped, refusals));
  eng.run();
  proc.check();

  ASSERT_EQ(refusals.size(), 2u);
  EXPECT_EQ(daemon.stats().failed_ops, 2u);
  ASSERT_NE(daemon.tenants(), nullptr);
  const Tenant* t = daemon.tenants()->find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->usage.charged_bytes, 2 * fits.total_bytes())
      << "a refused registration kept its charge";
  EXPECT_EQ(t->usage.models, 1u);
  EXPECT_EQ(daemon.tenants()->owner_of("fits"), t)
      << "a refused re-registration must keep the existing model's charge";
  EXPECT_EQ(daemon.tenants()->owner_of("huge"), nullptr);
  EXPECT_FALSE(daemon.model_table().lookup("huge").has_value());
  eng.shutdown();
}

// --- online repack under live admitted traffic --------------------------------

TEST(FleetTest, OnlineRepackUnderLiveTrafficLeavesCleanImage) {
  TenancyRig r;
  auto& volta = r.cluster->node("client-volta");

  // Garbage: a finished job whose slots become reclaimable.
  dnn::Model dead{"dead", volta.gpu(0)};
  dead.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
  PortusClient dead_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  // Live traffic, admitted through the controller while repack_online takes
  // its bounded pause windows.
  dnn::Model live{"live", volta.gpu(0)};
  live.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
  PortusClient live_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  live_client.set_retry_policy(PortusClient::RetryPolicy{.max_retries = 20});

  Repacker::Report report;
  auto proc = r.eng.spawn([](TenancyRig& r, PortusClient& dc, dnn::Model& dead,
                             PortusClient& lc, dnn::Model& live,
                             Repacker::Report& report) -> sim::Process {
    co_await dc.connect();
    co_await dc.register_model(dead);
    co_await dc.checkpoint(dead, 1);
    co_await dc.checkpoint(dead, 2);
    co_await dc.finish(dead);

    co_await lc.connect();
    co_await lc.register_model(live);
    auto maint = r.eng.spawn(
        [](PortusDaemon& d, Repacker::Report& out) -> sim::Process {
          Repacker repacker{d};
          Repacker::OnlineOptions opts;
          opts.models_per_pass = 1;
          out = co_await repacker.repack_online(opts);
        }(*r.daemon, report));
    for (std::uint64_t k = 1; k <= 6; ++k) {
      const auto epoch = co_await lc.checkpoint(live, k);
      if (epoch != k) throw Error("live checkpoint lost an epoch");
    }
    co_await maint.join();
  }(r, dead_client, dead, live_client, live, report));
  r.eng.run();
  proc.check();

  // The finished job's storage was reclaimed in bounded pause windows...
  EXPECT_GT(report.freed_outdated + report.freed_crashed, 0u);
  EXPECT_GT(report.passes, 0);
  EXPECT_GT(report.paused_time.count(), 0ll);
  EXPECT_FALSE(r.daemon->admission()->paused()) << "repack left admissions paused";
  EXPECT_GT(r.daemon->admission()->stats().pauses, 0u);

  // ...the live job never lost an epoch, and the image is fsck-clean.
  const auto idx = r.daemon->load_index("live");
  const auto slot = idx.latest_done_slot();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(idx.slot(*slot).epoch, 6u);
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/true).clean());
}

// --- untenanted daemons: one unbounded default tenant behind the same gate ---

// A phantom one-tensor model of `elems` f32 values.
std::unique_ptr<dnn::Model> phantom_model(const std::string& name, net::Node& node,
                                          std::int64_t elems) {
  auto model = std::make_unique<dnn::Model>(name, node.gpu(0));
  model->add_tensor(dnn::TensorMeta{.name = "w", .shape = {elems}}, /*phantom=*/true);
  return model;
}

TEST(UntenantedGateTest, QueuesEveryCheckpointWithoutBackpressure) {
  // One worker and more concurrent checkpoints than a tenanted class queue
  // holds (64). The default tenant's queue is unbounded, so fail-fast
  // clients (max_retries = 0) never see Backpressure: every op waits its
  // turn at the gate.
  TenancyRig r{PortusDaemon::Config{.workers = 1}};
  auto& volta = r.cluster->node("client-volta");
  constexpr int kClients = 72;
  std::vector<std::unique_ptr<dnn::Model>> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    models.push_back(phantom_model(strf("job{}", i), volta, 1 << 14));
    clients.push_back(
        std::make_unique<PortusClient>(*r.cluster, volta, volta.gpu(0), r.rendezvous));
  }

  std::vector<std::uint64_t> epochs(kClients, 0);
  auto proc = r.eng.spawn([](sim::Engine& eng,
                             std::vector<std::unique_ptr<PortusClient>>& clients,
                             std::vector<std::unique_ptr<dnn::Model>>& models,
                             std::vector<std::uint64_t>& epochs) -> sim::Process {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      co_await clients[i]->connect();
      co_await clients[i]->register_model(*models[i]);
    }
    // Every checkpoint is issued at the same virtual instant.
    std::vector<sim::Process> ops;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      ops.push_back(eng.spawn([](PortusClient& c, dnn::Model& m,
                                 std::uint64_t& out) -> sim::Process {
        out = co_await c.checkpoint(m, 1);
      }(*clients[i], *models[i], epochs[i])));
    }
    for (auto& op : ops) co_await op.join();
  }(r.eng, clients, models, epochs));
  r.eng.run();
  proc.check();

  for (int i = 0; i < kClients; ++i) EXPECT_EQ(epochs[i], 1u) << "job" << i;
  EXPECT_EQ(r.daemon->stats().failed_ops, 0u);
  EXPECT_EQ(r.daemon->stats().backpressure_rejects, 0u);
  ASSERT_NE(r.daemon->admission(), nullptr);
  const auto& adm = r.daemon->admission()->stats();
  EXPECT_EQ(adm.admitted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(adm.rejected, 0u);
  EXPECT_GT(adm.queue_wait_total.count(), 0ll) << "the gate never queued anyone";
  EXPECT_EQ(clients[0]->stats().granted_wr_slots, 1u) << "the grant echoes max_inflight";
}

TEST(UntenantedGateTest, OnlineRepackPausesAdmissions) {
  TenancyRig r{PortusDaemon::Config{}};
  auto& volta = r.cluster->node("client-volta");
  auto dead = phantom_model("dead", volta, 1 << 20);
  auto live = phantom_model("live", volta, 1 << 20);
  PortusClient dead_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  PortusClient live_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};

  Repacker::Report report;
  auto proc = r.eng.spawn([](TenancyRig& r, PortusClient& dc, dnn::Model& dead,
                             PortusClient& lc, dnn::Model& live,
                             Repacker::Report& report) -> sim::Process {
    co_await dc.connect();
    co_await dc.register_model(dead);
    co_await dc.checkpoint(dead, 1);
    co_await dc.checkpoint(dead, 2);
    co_await dc.finish(dead);

    co_await lc.connect();
    co_await lc.register_model(live);
    auto maint = r.eng.spawn(
        [](PortusDaemon& d, Repacker::Report& out) -> sim::Process {
          Repacker repacker{d};
          Repacker::OnlineOptions opts;
          opts.models_per_pass = 1;
          out = co_await repacker.repack_online(opts);
        }(*r.daemon, report));
    for (std::uint64_t k = 1; k <= 6; ++k) {
      const auto epoch = co_await lc.checkpoint(live, k);
      if (epoch != k) throw Error("live checkpoint lost an epoch");
    }
    co_await maint.join();
  }(r, dead_client, *dead, live_client, *live, report));
  r.eng.run();
  proc.check();

  EXPECT_GT(report.freed_outdated, 0u);
  ASSERT_NE(r.daemon->admission(), nullptr);
  EXPECT_GT(r.daemon->admission()->stats().pauses, 0u)
      << "the relocation barrier paused nothing";
  EXPECT_FALSE(r.daemon->admission()->paused()) << "repack left admissions paused";
  EXPECT_EQ(r.daemon->stats().backpressure_rejects, 0u);
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/true).clean());
}

TEST(UntenantedGateTest, DefaultTenantIsChargedAndRefunded) {
  TenancyRig r{PortusDaemon::Config{}};
  auto& volta = r.cluster->node("client-volta");
  auto model = phantom_model("solo", volta, 1 << 18);
  PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  // An untenanted daemon ignores the client's identity and requests.
  client.set_tenant(PortusClient::TenantSpec{
      .id = "team-x", .priority = static_cast<std::uint8_t>(PriorityClass::kHigh)});

  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
  }(client, *model));
  r.eng.run();
  proc.check();

  ASSERT_NE(r.daemon->tenants(), nullptr);
  EXPECT_EQ(r.daemon->tenants()->size(), 1u);
  EXPECT_EQ(r.daemon->tenants()->find("team-x"), nullptr);
  const Tenant* t = r.daemon->tenants()->find("default");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->quota.priority, PriorityClass::kNormal);
  EXPECT_EQ(t->quota.capacity_bytes, 0u);
  EXPECT_EQ(t->usage.charged_bytes, 2 * model->total_bytes());
  EXPECT_EQ(r.daemon->tenants()->owner_of("solo"), t);

  // Finished before any checkpoint: both slots are garbage, and reclaiming
  // them refunds the whole charge.
  auto fin = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.finish(m);
  }(client, *model));
  r.eng.run();
  fin.check();
  const auto report = Repacker{*r.daemon}.repack();
  EXPECT_EQ(report.slots_cleared, 2);
  EXPECT_EQ(t->usage.charged_bytes, 0u);
  EXPECT_EQ(t->usage.models, 0u);
  EXPECT_EQ(r.daemon->tenants()->owner_of("solo"), nullptr);
}

// --- fleet generator smoke ----------------------------------------------------

TEST(FleetTest, FleetGenReportsPerClassLatencies) {
  TenancyRig r{[] {
    auto cfg = TenancyRig::tenancy_config();
    cfg.admission_queue_depth = 8;
    return cfg;
  }()};
  core::fleet::FleetConfig fc;
  fc.tenants = 9;
  fc.checkpoints_per_tenant = 2;
  fc.high_fraction = 0.34;
  fc.batch_fraction = 0.33;
  fc.high_period = Duration{50'000'000};
  fc.normal_period = Duration{20'000'000};
  fc.batch_period = Duration{5'000'000};
  core::fleet::FleetGen gen{*r.cluster, r.cluster->node("client-volta"), r.rendezvous,
                            {"portusd"}, fc};
  core::fleet::FleetReport rep;
  auto proc = r.eng.spawn([](core::fleet::FleetGen& g,
                             core::fleet::FleetReport& out) -> sim::Process {
    out = co_await g.run();
  }(gen, rep));
  r.eng.run();
  proc.check();

  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.checkpoints, 18u);
  int covered = 0;
  std::uint64_t sum = 0;
  for (int c = 0; c < kPriorityClasses; ++c) {
    if (rep.by_class[c].tenants == 0) continue;
    ++covered;
    sum += rep.by_class[c].checkpoints;
    EXPECT_GT(rep.by_class[c].p99.count(), 0ll);
    EXPECT_LE(rep.by_class[c].p50.count(), rep.by_class[c].p99.count());
    EXPECT_LE(rep.by_class[c].p99.count(), rep.by_class[c].max.count());
  }
  EXPECT_EQ(covered, 3) << "the mix must draw all three classes";
  EXPECT_EQ(sum, rep.checkpoints);
  EXPECT_GT(rep.bytes, 0u);
  EXPECT_GT(rep.aggregate_gbps(), 0.0);
}

}  // namespace
}  // namespace portus::core
