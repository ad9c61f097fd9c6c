// Portus Daemon: the storage-server side (Fig. 4).
//
// Listens on a TCP endpoint ("portusd"); each client connection is served
// by its own session process. Heavy operations (registration layout,
// checkpoint pulls, restore pushes) run under a worker pool modelled as a
// counting semaphore — the paper's ThreadPool — so concurrency across
// tenants is bounded but real. A checkpoint first takes a ticket from the
// daemon's one admission gate (core/daemon/tenant.h).
//
// PMEM layout on the devdax namespace:
//   [4 KiB  superblock (reserved)]
//   [ModelTable  @ 4 KiB,  capacity x 64 B]
//   [AllocTable  @ 64 KiB, capacity x 24 B]
//   [heap        @ 1 MiB ... device end)   (MIndex records + TensorData)
//
// Checkpoint = CheckpointTxn::begin (ACTIVE persisted) -> pipelined
// one-sided RDMA READs (chunked tensors, bounded window, optional QP
// stripes) from client GPU memory into the slot's TensorData, each chunk
// flushed as it lands -> final persist -> commit (CRC block, DONE + epoch
// persisted) -> notify client over TCP. Restore = verify_slot, then the
// same pipeline running one-sided RDMA WRITEs from the newest DONE slot
// into the client's GPU buffers. See core/daemon/{pipeline,slots}.h.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/daemon/allocator.h"
#include "core/daemon/mindex.h"
#include "core/daemon/model_table.h"
#include "core/daemon/pipeline.h"
#include "core/daemon/tenant.h"
#include "core/protocol.h"
#include "net/cluster.h"
#include "pmem/devdax.h"
#include "rdma/fabric.h"
#include "sim/fault.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace portus::core {

class PortusDaemon {
 public:
  struct Config {
    int workers = 8;
    std::uint32_t model_table_capacity = 224;   // fits in [4 KiB, 18 KiB)
    std::uint32_t alloc_table_capacity = 8192;
    // Allocator shards (see core/daemon/allocator.h). 1 = the classic
    // single arena, bit-identical offsets and compaction. Registrations
    // allocate on shard 0 unless numa_nodes > 1 homes them on a
    // socket-local shard; the alloc_table_capacity is split evenly across
    // shards.
    std::uint32_t shards = 1;
    // Shard reservation refill: how much fresh heap a shard grabs from the
    // global bump when its local region runs dry. 0 = reserve exactly each
    // request's size (classic bump-per-alloc).
    Bytes alloc_refill_bytes = 0;
    // NUMA sockets the allocator partitions the heap across. Must divide
    // into `shards` (shards >= numa_nodes) and, when > 1, match the devdax
    // device's modeled topology (NodeSpec::pmem_numa_nodes). 1 = the
    // classic socket-blind allocator, bit-identical offsets and headers.
    std::uint32_t numa_nodes = 1;
    std::string endpoint = "portusd";
    // Optional timeline tracing of checkpoint/restore operations.
    sim::Tracer* tracer = nullptr;
    // --- pipelined datapath knobs (see core/daemon/pipeline.h) ---
    // Outstanding chunks per QP lane. 1 = the classic serial datapath
    // (identical timings, completion awaited before the next post).
    int pipeline_window = 1;
    // Split tensors into chunks of this many bytes so persists overlap
    // transfers and giant tensors do not serialize behind one WR. 0 = off.
    Bytes chunk_bytes = 0;
    // Datapath QPs connected per session (bounded by what the client
    // offers); chunks ride the stripes round-robin.
    int stripes = 1;
    // Extent coalescing (core/daemon/extent.h): whole tensors no larger
    // than this are packed dense in new slot layouts and fused into
    // multi-SGE gather extents — one WQE moves a whole run of small
    // tensors. 0 restores the classic layout and single-SGE datapath
    // bit-for-bit.
    Bytes coalesce_threshold = 4_KiB;
    // Gather-list budget per work request; the effective per-session value
    // is min(this, the client's offered capability, this NIC's max_sges).
    int max_sges = 16;
    // Flush each admission burst's WRs as one chained post per lane (one
    // doorbell per lane per window) instead of ringing per extent. Off
    // reproduces the per-extent doorbell datapath bit-for-bit.
    bool batch_doorbells = true;
    // Fault injection: when set, start() registers this daemon as a kill
    // target named `endpoint`, so tests/benches can crash or hang it at a
    // chosen point in virtual time (sim/fault.h).
    sim::FaultInjector* faults = nullptr;
    // --- admission control (core/daemon/tenant.h). Every checkpoint takes
    // an admission ticket (strict priority + fair queuing + token-bucket
    // pacing) before it occupies a worker; restores bypass the gate. The
    // tenancy switch picks the policy. Off: every model is filed under one
    // unlimited "default" tenant of the normal class, whose queue is
    // unbounded (it never answers Backpressure). On: registrations carry
    // the client's tenant id, class and quota requests, and each class
    // queue holds at most admission_queue_depth waiters. ---
    bool tenancy = false;
    // Grant ceiling for tenants that request nothing / too much. All-zero =
    // unlimited capacity, unpaced.
    TenantQuota tenant_defaults{};
    // In-flight admission slots; 0 = match `workers`.
    int admission_inflight = 0;
    std::uint32_t admission_queue_depth = 64;    // per priority class, tenancy on
  };

  // Control-path counters plus the pipelined datapath's (DatapathStats,
  // core/daemon/pipeline.h), which every op's transfer adds into directly.
  struct Stats : DatapathStats {
    std::uint64_t registrations = 0;
    std::uint64_t shard_registrations = 0;  // subset with shard/replica identity
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t rejected_protocol = 0;  // magic/version mismatches answered
    // Restores refused because the DONE slot's payload failed the CRC scrub
    // (missing/torn/stale CRC block, or tensor bytes not matching it).
    std::uint64_t integrity_rejects = 0;
    // Checkpoints bounced with a retryable Backpressure answer (admission
    // queue full). Deliberately NOT counted as failed_ops: the client
    // retries and the op is expected to land.
    std::uint64_t backpressure_rejects = 0;
    // Ops bounced with a retryable EpochMismatch answer (the request's
    // membership epoch was stale, protocol v6). Not failed_ops either: the
    // client re-resolves placement and reissues.
    std::uint64_t epoch_rejects = 0;
    Bytes bytes_pulled = 0;
    Bytes bytes_pushed = 0;
  };

  PortusDaemon(net::Cluster& cluster, net::Node& storage_node, QpRendezvous& rendezvous,
               Config config);
  PortusDaemon(net::Cluster& cluster, net::Node& storage_node, QpRendezvous& rendezvous)
      : PortusDaemon(cluster, storage_node, rendezvous, Config{}) {}

  ~PortusDaemon();

  // Bind the endpoint and start accepting connections.
  void start();

  // Fault hook (also reachable by name through Config::faults). kCrash
  // closes the listener and every live session socket — clients see
  // Disconnected immediately. kHang keeps everything open but drops all
  // requests unanswered — clients only notice through their own timeouts.
  // Checkpoint data on PMEM is untouched by either. kPowerCut additionally
  // fires PmemDevice::power_cut first (unpersisted lines lost/torn) and
  // marks the daemon dead so in-flight operations can no longer commit.
  void kill(sim::FaultMode mode = sim::FaultMode::kCrash);
  bool killed() const { return killed_; }

  // Rebuild DRAM state (ModelMap, allocator mirror) from PMEM after a
  // restart. Client sessions do not survive; clients re-register.
  void recover();

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  ModelTable& model_table() { return *model_table_; }
  PmemAllocator& allocator() { return *allocator_; }
  pmem::PmemDevice& device() { return device_; }
  net::Node& node() { return node_; }
  sim::Engine& engine() { return cluster_.engine(); }

  // The tenant registry and the admission gate (never null). The gate's
  // pause()/resume() is the relocation barrier of online repack and
  // elastic migration.
  TenantRegistry* tenants() { return tenants_.get(); }
  AdmissionController* admission() { return admission_.get(); }

  // Cluster membership epoch this daemon currently serves (protocol v6).
  // 0 = standalone / not epoch-checked: requests are never bounced. The
  // elastic controller (core/cluster/migration.h) pushes each bump; any
  // request stamped with a different non-zero epoch is answered with
  // epoch_mismatch so the client re-resolves placement first.
  void set_membership_epoch(std::uint64_t e) { membership_epoch_ = e; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  // A model's MIndex: the live session's when one is registered (it shares
  // slot-header state with the datapath; a second DRAM mirror would fight
  // it), else the record loaded from PMEM (NotFound if not tabled).
  struct IndexRef {
    MIndex* live = nullptr;
    std::optional<MIndex> loaded;
    MIndex& operator*() { return live != nullptr ? *live : *loaded; }
    MIndex* operator->() { return &**this; }
  };
  IndexRef index(const std::string& model_name) {
    if (MIndex* live = find_live_index(model_name)) return {live, {}};
    return {nullptr, load_index(model_name)};
  }

  // Live (registered this run) MIndex for a model, if any.
  MIndex* find_live_index(const std::string& model_name);
  // Load from PMEM (works without a live session, e.g. portusctl).
  MIndex load_index(const std::string& model_name);

  static constexpr Bytes kModelTableOffset = 4_KiB;
  static constexpr Bytes kAllocTableOffset = 64_KiB;
  static constexpr Bytes kHeapOffset = 1_MiB;

 private:
  struct ModelSession {
    RegisterModelMsg registration;
    std::unique_ptr<MIndex> index;
    std::unique_ptr<rdma::CompletionQueue> cq;  // shared by all stripes
    std::vector<rdma::QueuePair*> qps;          // one per connected stripe
    const rdma::MemoryRegion* slot_mr[2] = {nullptr, nullptr};
    // Negotiated gather capability (min of client offer, config, NIC).
    std::uint32_t max_sges = 1;
    // Socket affinity: the worker serving this session is pinned to
    // home_node (round-robin assigned at registration; 0 on flat
    // topologies).
    std::uint32_t home_node = 0;
  };

  sim::Process accept_loop();
  sim::Process session_loop(std::shared_ptr<net::TcpSocket> socket);

  sim::SubTask<RegisterAckMsg> handle_register(RegisterModelMsg msg);
  // The one frame of DO_CHECKPOINT and DO_RESTORE (Req is CheckpointReqMsg
  // or RestoreReqMsg): epoch gate, admission (checkpoints only), worker,
  // trace span, session lookup and failure accounting around run_op().
  template <typename Req>
  sim::SubTask<OpDoneMsg> handle_op(Req msg);
  // The op-specific legs, run on a held worker. Each sets done.epoch and
  // returns the per-tensor payload CRCs of the version it committed or
  // served (empty for phantom payloads); they throw to fail the op.
  using TensorCrcs = std::vector<std::uint32_t>;
  sim::SubTask<TensorCrcs> run_op(ModelSession& session, const CheckpointReqMsg& msg,
                                  OpDoneMsg& done);
  sim::SubTask<TensorCrcs> run_op(ModelSession& session, const RestoreReqMsg& msg,
                                  OpDoneMsg& done);

  // Membership-epoch gate (protocol v6): the rejection text when a request
  // stamped with `request_epoch` must bounce, nullopt when it may proceed.
  std::optional<std::string> stale_epoch(std::uint64_t request_epoch);

  // The datapath leg both ops share: plan the extents of one slot
  // (`slot_mr`, at device offset `slot_offset`), map each onto a chunk and
  // run them through one pipelined transfer. A restore WRITEs the slot out;
  // a checkpoint READs into it, or copies a tensor outside a non-empty
  // `dirty` set from the DONE slot at `prev_offset`. Returns the per-tensor
  // CRCs a checkpoint of real payload collected; empty otherwise.
  struct SlotTransfer {
    bool restore = false;
    const rdma::MemoryRegion* slot_mr = nullptr;
    Bytes slot_offset = 0;
    Bytes prev_offset = 0;
    std::vector<bool> dirty;
  };
  sim::SubTask<TensorCrcs> transfer_slot(ModelSession& session, SlotTransfer leg);

  net::Cluster& cluster_;
  net::Node& node_;
  QpRendezvous& rendezvous_;
  Config config_;
  pmem::PmemDevice& device_;
  rdma::ProtectionDomain& pd_;
  std::unique_ptr<ModelTable> model_table_;
  std::unique_ptr<PmemAllocator> allocator_;
  std::unique_ptr<sim::SimSemaphore> workers_;
  std::unique_ptr<TenantRegistry> tenants_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::string, ModelSession> sessions_;
  std::vector<std::weak_ptr<net::TcpSocket>> client_sockets_;  // kill() targets
  Stats stats_;
  std::uint64_t next_session_ = 0;  // round-robin NUMA home assignment
  std::uint64_t membership_epoch_ = 0;
  bool started_ = false;
  bool killed_ = false;
  bool hung_ = false;  // kHang: reachable but mute
  bool dead_ = false;  // kPowerCut: the modeled process is gone; no commits
};

}  // namespace portus::core
