// Portus Client: the compute-node side, the library a training framework
// (PyTorch/DeepSpeed/Megatron) links against.
//
// On register_model() it walks the model's pre-allocated GPU tensors, pins
// each through NVIDIA PeerMem, registers RDMA memory regions, and ships the
// metadata packet (names, dtypes, shapes, sizes, GPU addresses, rkeys) to
// the daemon over TCP/IPoIB. checkpoint() and restore() are then one-word
// triggers: the *daemon* moves all tensor bytes with one-sided verbs, so
// the client never copies, serializes, or crosses into a kernel filesystem.
//
// Sharded mode (core/cluster/): one PortusClient per daemon, and
// register_shard() registers a *subset* of the model's tensors under a
// shard-scoped name. A daemon may host several shard copies of one model,
// so a client keeps one datapath (CQ + QP stripes) per registration.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/protocol.h"
#include "dnn/model.h"
#include "gpu/peer_mem.h"
#include "net/cluster.h"
#include "sim/task.h"

namespace portus::core {

class PortusClient {
 public:
  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t timeouts = 0;  // ops abandoned by the watchdog
    Duration last_checkpoint{0};
    Duration last_restore{0};
    Duration registration_time{0};
    std::uint32_t negotiated_stripes = 0;  // accepted by the daemon (last reg)
    // Gather capability the daemon accepted (last reg); 1 = single-SGE.
    std::uint32_t negotiated_max_sges = 0;
    // Aggregate payload CRC reported by the daemon for the last successful
    // checkpoint/restore (0 for phantom models). Comparable against
    // dnn::Model::weights_crc() for end-to-end integrity assertions.
    std::uint32_t last_payload_crc = 0;
    // --- retry/backoff observability (RetryPolicy) ---
    std::uint64_t retries = 0;       // re-sent ops (backpressure or timeout)
    std::uint64_t backpressure = 0;  // Backpressure answers absorbed
    std::uint64_t reconnects = 0;    // sockets re-dialed after a timeout
    // Quota the daemon granted at the last registration (protocol v5;
    // capacity and rate are 0 = unlimited / unpaced on an untenanted daemon).
    Bytes granted_capacity = 0;
    Bytes granted_rate = 0;
    std::uint32_t granted_wr_slots = 0;
  };

  // Backoff discipline for retryable failures. Backpressure answers (the
  // daemon's admission queue was full) retry up to max_retries with capped
  // exponential backoff and uniform [0.5, 1.5) jitter, floored at the
  // daemon's retry_after hint. Op-timeouts additionally retry — after
  // re-dialing the daemon — when retry_timeouts is set; leave it off where
  // a dead endpoint should surface immediately (cluster lane rerouting).
  struct RetryPolicy {
    int max_retries = 0;                // 0 = fail fast (classic behavior)
    Duration base_backoff{500'000};     // 0.5 ms
    Duration max_backoff{50'000'000};   // 50 ms cap
    bool retry_timeouts = false;
    std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
  };

  // Identity + quota request shipped with every registration (protocol
  // v5). Empty id = the daemon's "default" tenant; priority 0 = high,
  // 1 = normal, 2 = batch; zero capacity/rate = "grant me the policy
  // default".
  struct TenantSpec {
    std::string id;
    std::uint8_t priority = 1;
    Bytes requested_capacity = 0;
    Bytes requested_rate = 0;
  };

  // One shard copy's registration: which tensors go to this daemon and
  // under what identity. register_model() is the degenerate single-shard
  // case (all tensors, the model's own name).
  struct ShardBinding {
    std::string reg_name;                        // shard-scoped ModelTable key
    std::vector<std::uint32_t> tensor_indices;   // subset, ascending
    std::uint32_t shard_id = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t replica = 0;
    std::uint32_t replica_count = 1;
    std::uint64_t placement_epoch = 0;
    std::vector<std::byte> manifest;  // encoded ShardManifest (may be empty)
  };

  // `stripes` is how many datapath QPs the client offers at registration;
  // the daemon connects min(stripes, its own configured stripes).
  PortusClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
               QpRendezvous& rendezvous, std::string endpoint = "portusd",
               int stripes = 1);

  // Dial the daemon (TCP handshake). Must precede register_model().
  sim::SubTask<> connect();

  // Pin + register every tensor and send the metadata packet. The daemon
  // lays out the checkpoint structure on PMEM before this returns.
  sim::SubTask<> register_model(dnn::Model& model);

  // Register a subset of the model's tensors under binding.reg_name.
  sim::SubTask<> register_shard(dnn::Model& model, ShardBinding binding);

  // Trigger "DO_CHECKPOINT" and wait for the daemon's completion notice.
  // Returns the committed epoch.
  sim::SubTask<std::uint64_t> checkpoint(dnn::Model& model, std::uint64_t iteration = 0);
  sim::SubTask<std::uint64_t> checkpoint_named(std::string reg_name,
                                               std::uint64_t iteration = 0);

  // Incremental variant (Check-N-Run-style extension): only the tensors in
  // `dirty_indices` changed since the previous checkpoint; the daemon pulls
  // those over RDMA and copies the rest from the last valid version within
  // PMEM. Falls back to a full pull when no previous version exists.
  sim::SubTask<std::uint64_t> checkpoint_incremental(
      dnn::Model& model, std::uint64_t iteration,
      std::vector<std::uint32_t> dirty_indices);

  // Trigger "DO_RESTORE": daemon writes the newest valid version into the
  // model's GPU buffers. Returns the restored epoch. `required_epoch` is
  // the replica-epoch floor (0 = newest available, see protocol.h).
  sim::SubTask<std::uint64_t> restore(dnn::Model& model);
  sim::SubTask<std::uint64_t> restore_named(std::string reg_name,
                                            std::uint64_t required_epoch = 0);

  // Tell the daemon this training job is complete (repacker hint).
  sim::SubTask<> finish(dnn::Model& model);

  // Abandon any control-plane roundtrip not answered within `d` of virtual
  // time (0 = wait forever). The watchdog closes the socket, so a timed-out
  // client is disconnected — exactly what a real client does when it gives
  // a dead daemon up. Degraded cluster restores rely on this to detect
  // hung (not just crashed) daemons.
  void set_op_timeout(Duration d) { op_timeout_ = d; }

  void set_retry_policy(RetryPolicy p) {
    retry_ = p;
    jitter_ = Rng{p.jitter_seed};
  }
  void set_tenant(TenantSpec t) { tenant_ = std::move(t); }
  const TenantSpec& tenant() const { return tenant_; }

  // Membership epoch stamped into every request (protocol v6). 0 = not
  // epoch-checked (standalone daemon / legacy ring). A daemon holding a
  // newer epoch answers epoch_mismatch, surfaced here as EpochMismatch —
  // the ClusterClient catches it, refetches placement, and re-routes.
  void set_membership_epoch(std::uint64_t e) { membership_epoch_ = e; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  const Stats& stats() const { return stats_; }
  bool connected() const { return socket_ != nullptr && !socket_->closed(); }
  const std::string& endpoint() const { return endpoint_; }

 private:
  // Per-registration datapath: every registered (shard-scoped) name keeps
  // its own CQ and QP stripes alive for the daemon to drive.
  struct Datapath {
    std::unique_ptr<rdma::CompletionQueue> cq;
    std::vector<rdma::QueuePair*> qps;
  };

  sim::SubTask<std::vector<std::byte>> roundtrip(std::vector<std::byte> request);

  // One DO_CHECKPOINT / DO_RESTORE, whichever `req_wire` encodes: the
  // retried roundtrip, then a stale-epoch answer surfaces as EpochMismatch
  // and any other refusal as Error, and the op is recorded in stats_.
  // Returns the committed (checkpoint) or served (restore) epoch.
  sim::SubTask<std::uint64_t> run_op(std::vector<std::byte> req_wire, MsgType reply_type);
  // Retry loop around one op roundtrip: absorbs Backpressure answers and
  // (optionally) op-timeouts per retry_, backing off with jitter between
  // attempts. `req_wire` is re-sent verbatim; each reply is decoded once.
  sim::SubTask<OpDoneMsg> retrying_roundtrip(std::vector<std::byte> req_wire,
                                             MsgType reply_type);
  sim::SubTask<> backoff(int attempt, std::uint64_t retry_after_ns);

  net::Cluster& cluster_;
  net::Node& node_;
  gpu::GpuDevice& gpu_;
  QpRendezvous& rendezvous_;
  std::string endpoint_;
  int stripes_;
  Duration op_timeout_{0};
  std::shared_ptr<net::TcpSocket> socket_;
  rdma::ProtectionDomain* pd_ = nullptr;
  std::map<std::string, Datapath> datapaths_;  // by registration name
  // Heap-held so the roundtrip scope guard stays valid even if the client
  // is destroyed while the coroutine is suspended (crash-mid-op tests).
  std::shared_ptr<bool> op_in_flight_ = std::make_shared<bool>(false);
  RetryPolicy retry_;
  TenantSpec tenant_;
  std::uint64_t membership_epoch_ = 0;
  Rng jitter_{0x9E3779B97F4A7C15ull};
  Stats stats_;
};

}  // namespace portus::core
