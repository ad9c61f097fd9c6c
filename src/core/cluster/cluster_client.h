// ClusterClient: one training process checkpointing to N Portus daemons.
//
// Wraps one PortusClient per daemon ("lane") and fans register / checkpoint
// / restore out across them — parallel across lanes, serial within a lane
// (each PortusClient is a one-op-at-a-time control channel). The tensor →
// shard → daemons map comes from Placement::compute, so any process that
// knows the ring config finds its shards without a metadata service.
//
// Failure model: a daemon can crash (sockets die instantly) or hang
// (detected only by the per-op timeout). Either way the lane is marked
// down and the op degrades:
//   - checkpoint: succeeds as long as every shard commits on >= 1 copy;
//     the result is flagged degraded and the lost copies simply stop
//     advancing their epochs.
//   - restore: shards whose primary lane is gone (or holds a stale epoch —
//     the daemon refuses a required_epoch it cannot meet) are re-routed to
//     replica copies, in manifest order, until every shard is back.
//     Completes with degraded=true; throws only when some shard has no
//     live copy at the required epoch left at all.
//
// Elastic mode (Config::membership set): the daemon set is no longer
// static. The client snapshots the authoritative Membership, places the
// model's fixed shard_count shards over the ACTIVE members, and stamps
// every request with the membership epoch. When the cluster resizes
// mid-op, a daemon answers EpochMismatch; the client then refetches the
// membership, recomputes placement, revives or opens lanes as needed,
// re-registers the moved copies, and retries the whole round — backing off
// through the same jittered-exponential helper as every other retry path
// (common/backoff.h). A resize under load therefore costs retries, never
// failed ops.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/cluster/manifest.h"
#include "core/cluster/membership.h"
#include "core/cluster/placement.h"

namespace portus::core::cluster {

class ClusterClient {
 public:
  struct Config {
    // The static daemon ring, in order. May be empty when `membership` is
    // set (the member list then comes from the membership source).
    std::vector<std::string> endpoints;
    std::uint32_t replicas = 2;          // copies per shard (clamped to ring size)
    int stripes = 1;                     // datapath QPs per registration
    std::uint64_t placement_epoch = 0;   // bump to recompute the ring rotation
    // Per-op watchdog. 0 = never time out: hung-daemon detection is then
    // CRASH-ONLY — a daemon that stays connected but answers nothing (the
    // kHang gray failure) wedges the op, and with it the whole cluster
    // demo, forever. The finite default keeps sharded_testbed/cluster-demo
    // paths live through a hang; set 0 only where every failure is a
    // crash-stop and the extra watchdog timer is unwanted.
    Duration op_timeout{250'000'000};    // 250 ms
    // Tenancy identity + retry discipline, applied to every lane client.
    // Keep retry.retry_timeouts off here unless you mean it: a retried
    // timeout delays the lane-down verdict the degraded paths key off.
    PortusClient::TenantSpec tenant;
    PortusClient::RetryPolicy retry;
    // --- elasticity ---
    // Shards the model is cut into. 0 = one per ring member at first
    // placement (the classic static-cluster behavior). Fix it explicitly
    // (e.g. 8) on an elastic cluster so shards can spread over daemons
    // that join later.
    std::uint32_t shard_count = 0;
    // Authoritative membership (the ElasticCluster controller). When set,
    // every request carries the membership epoch, and an EpochMismatch
    // answer triggers placement re-resolution against the current members.
    MembershipSource* membership = nullptr;
    // Re-resolution attempts per op before giving up (each backs off).
    int max_epoch_retries = 8;
  };

  struct CheckpointResult {
    std::uint64_t epoch = 0;
    bool degraded = false;  // some copy missed the round (all shards still committed)
  };

  struct RestoreResult {
    std::uint64_t epoch = 0;
    bool degraded = false;          // at least one shard came from a non-primary copy
    std::uint32_t rerouted_shards = 0;
  };

  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t degraded_checkpoints = 0;
    std::uint64_t degraded_restores = 0;
    std::uint64_t rerouted_shards = 0;
    std::uint64_t lane_failures = 0;  // lanes marked down (crash or timeout)
    std::uint64_t last_epoch = 0;
    // --- elasticity ---
    std::uint64_t epoch_reresolutions = 0;  // placements refetched after EpochMismatch
    std::uint64_t lane_revivals = 0;        // down lanes brought back by a re-resolve
  };

  ClusterClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
                QpRendezvous& rendezvous, Config config);

  // Compute the placement for `model`, dial every lane, and register each
  // shard copy on its daemon (manifest attached to every registration).
  // Lanes that are already dead are tolerated as long as every shard keeps
  // at least one registered copy; otherwise throws.
  sim::SubTask<> register_model(dnn::Model& model);

  // Checkpoint every shard copy. Returns the round's committed epoch (the
  // same on every copy that took part). Throws if any shard committed on
  // zero copies. In elastic mode an EpochMismatch answer retries the whole
  // round after re-resolving placement.
  sim::SubTask<CheckpointResult> checkpoint(std::uint64_t iteration = 0);

  // Restore every shard, re-routing to replicas as needed (see above).
  sim::SubTask<RestoreResult> restore();

  // Re-resolve placement against the current membership (or the static
  // endpoint list) right now: recompute the plan, revive down lanes whose
  // member is ACTIVE again (fresh PortusClient — a restarted daemon has no
  // memory of the old session), and re-register missing copies. The ops
  // call this themselves on EpochMismatch; call it directly after manually
  // restarting a daemon in a static ring.
  sim::SubTask<> refresh_placement();

  const Placement::Plan& plan() const { return plan_; }
  const ShardManifest& manifest() const { return manifest_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  std::size_t lane_count() const { return lanes_.size(); }
  bool lane_up(std::size_t i) const { return lanes_.at(i)->up; }
  const std::string& lane_endpoint(std::size_t i) const { return lanes_.at(i)->endpoint; }
  PortusClient& lane_client(std::size_t i) { return *lanes_.at(i)->client; }

 private:
  // One placed copy of one shard. `member` is the ring position in the
  // current membership; `lane` indexes lanes_ (lanes are per endpoint and
  // outlive membership changes).
  struct Copy {
    std::uint32_t shard = 0;
    std::uint32_t replica = 0;
    std::uint32_t member = 0;
    std::size_t lane = 0;
    bool registered = false;
    std::uint64_t epoch = 0;  // newest epoch this copy is known to hold
  };

  struct Lane {
    std::string endpoint;
    std::unique_ptr<PortusClient> client;
    std::vector<std::size_t> copy_ids;  // indices into copies_
    bool up = true;
  };

  struct RestoreJob {
    std::size_t copy_id = 0;
    std::uint64_t required_epoch = 0;
    bool done = false;
    bool rerouted = false;
  };

  sim::Process lane_register(Lane& lane, bool* stale);
  sim::Process lane_checkpoint(Lane& lane, std::uint64_t iteration, std::uint64_t* round_max,
                               std::vector<bool>* shard_ok, bool* any_miss, bool* stale);
  sim::Process lane_restore(Lane& lane, std::vector<RestoreJob*> jobs,
                            std::uint64_t* max_epoch, bool* stale);

  sim::SubTask<CheckpointResult> checkpoint_round(std::uint64_t iteration, bool* stale);
  sim::SubTask<RestoreResult> restore_round(bool* stale);
  // The ops' epoch-retry loop: rerun `round(&stale)` until no resize voids it.
  template <typename Result, typename Round>
  sim::SubTask<Result> settle(const char* op, Round round);

  // Snapshot the membership, recompute plan/manifest/copies, revive lanes,
  // and register unregistered copies (its own EpochMismatch retry loop —
  // a resize can land mid-registration too).
  sim::SubTask<> resolve_placement();

  Lane& lane_for(const std::string& endpoint);
  // A fresh lane client (new lanes and revived ones) under config_.
  std::unique_ptr<PortusClient> make_lane_client(const std::string& endpoint);
  void mark_lane_down(Lane& lane);
  sim::SubTask<> epoch_backoff(int attempt);
  std::string copy_key(const std::string& endpoint, std::uint32_t shard) const;

  net::Cluster& cluster_;
  net::Node& node_;
  gpu::GpuDevice& gpu_;
  QpRendezvous& rendezvous_;
  Config config_;
  std::string model_name_;
  dnn::Model* model_ = nullptr;  // held for re-registration on re-resolve
  std::vector<std::string> tensor_names_;
  std::vector<Bytes> tensor_sizes_;
  Placement::Plan plan_;
  ShardManifest manifest_;
  std::vector<Copy> copies_;
  // unique_ptr so Lane addresses stay stable across lane creation (running
  // lane coroutines hold references).
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<std::string, std::size_t> lane_by_endpoint_;
  std::vector<std::string> ring_endpoints_;  // current membership, in ring order
  std::vector<std::uint64_t> shard_floor_;   // acked-epoch floor per shard
  std::set<std::string> registered_keys_;    // "endpoint|shard" pairs registered
  std::uint64_t membership_epoch_ = 0;
  std::uint32_t effective_shard_count_ = 0;  // fixed at first placement
  Rng jitter_{0xE1A57C1C0FFEEull};
  Stats stats_;
  bool registered_ = false;
};

}  // namespace portus::core::cluster
