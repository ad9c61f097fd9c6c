// Portus control-plane protocol (client <-> daemon over TCP/IPoIB).
//
// Registration ships the full model description — for every tensor: layer
// name, dtype, shape, byte size, GPU address, and the rkey of its RDMA
// memory region — so the daemon can lay out the checkpoint structure on
// PMEM *before* the first training iteration (SS III-C). After that the
// control plane only carries one-word triggers ("DO_CHECKPOINT",
// "DO_RESTORE") and completion notifications; all tensor bytes move
// peer-to-peer over RDMA.
//
// QP rendezvous: real deployments exchange QP numbers/GIDs through RDMA CM;
// in the simulation the registration packet carries opaque `qp_tokens`
// (one per datapath stripe the client offers) that the daemon resolves
// through QpRendezvous to obtain the client's QueuePairs and complete the
// RC connections. The daemon connects min(offered, configured) stripes and
// reports the accepted count in the ack.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/units.h"
#include "dnn/dtype.h"
#include "rdma/queue_pair.h"

namespace portus::core {

// Control-plane wire versioning. Registration (the one message whose layout
// has already changed across releases) opens with a magic + version pair so
// a stale client and daemon reject each other explicitly instead of
// misparsing the body. Bump kProtocolVersion on any wire-layout change.
inline constexpr std::uint32_t kProtocolMagic = 0x50545553;  // "PTUS"
// v3: the checkpoint/restore Done replies (OpDoneMsg) grew payload_crc.
// v4: registration + ack carry the negotiated multi-SGE gather capability
//     (max_sges); a capability of 1 is the clean single-SGE fallback.
// v5: tenant-quota negotiation — registration carries a tenant identity,
//     priority class and requested quotas, the ack answers with the granted
//     quota, and the Done messages can flag a retryable Backpressure
//     rejection with a pacing hint.
// v6: cluster membership epochs — requests carry the membership epoch the
//     client placed against (0 = not epoch-checked), and the ack/Done
//     messages can answer with an EpochMismatch rejection carrying the
//     daemon's current epoch so the client re-resolves placement.
inline constexpr std::uint16_t kProtocolVersion = 6;

enum class MsgType : std::uint8_t {
  kRegisterModel = 1,
  kRegisterAck = 2,
  kCheckpointReq = 3,   // "DO_CHECKPOINT"
  kCheckpointDone = 4,
  kRestoreReq = 5,      // "DO_RESTORE"
  kRestoreDone = 6,
  kFinishJob = 7,       // training complete: old checkpoint version reclaimable
  kFinishAck = 8,
  kError = 9,
};

const char* to_string(MsgType t);

// A peer speaks a different protocol generation (bad magic or version).
// Distinct from Corruption so handlers can answer with an explicit
// rejection instead of treating the message as line noise.
class ProtocolMismatch : public Error {
 public:
  using Error::Error;
};

// The daemon's admission controller refused an operation because the
// tenant's class queue is full (bounded queue depth). Retryable by design:
// the client backs off (jittered exponential, see PortusClient::RetryPolicy)
// and reissues. Carried on the wire as the Done messages' backpressure flag
// rather than as a dropped connection.
class Backpressure : public Error {
 public:
  using Error::Error;
};

// The daemon refused an operation because the request's membership epoch is
// stale (the cluster resized since the client last resolved placement).
// Retryable by design: the ClusterClient refetches membership, recomputes
// placement, re-routes, and reissues — see cluster_client.h. Carried on the
// wire as the ack/Done messages' epoch_mismatch flag (v6).
class EpochMismatch : public Error {
 public:
  using Error::Error;
};

struct TensorDesc {
  std::string name;
  dnn::DType dtype = dnn::DType::kF32;
  std::vector<std::int64_t> shape{};
  Bytes size = 0;
  std::uint64_t gpu_addr = 0;
  std::uint32_t rkey = 0;
};

struct RegisterModelMsg {
  // Overridable in tests to simulate a stale client; encode() writes these
  // verbatim and decode() rejects anything but the current pair.
  std::uint32_t magic = kProtocolMagic;
  std::uint16_t version = kProtocolVersion;
  std::string model_name;
  // One token per datapath stripe the client offers (>= 1); the daemon
  // connects a prefix of them, bounded by its own `stripes` config.
  std::vector<std::uint64_t> qp_tokens;
  bool phantom = false;
  // Gather entries per work request the client's NIC accepts (>= 1). The
  // daemon plans coalesced extents no wider than min(this, its own config
  // and NIC); offering 1 disables coalescing for this registration.
  std::uint32_t max_sges = 1;
  // --- cluster sharding (core/cluster/). A standalone registration keeps
  // the defaults: one shard, one replica, no manifest. ---
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t replica = 0;        // which copy of the shard this is
  std::uint32_t replica_count = 1;
  std::uint64_t placement_epoch = 0;  // ring-config generation
  // Encoded ShardManifest, persisted alongside the shard's MIndex so any
  // surviving daemon can reconstruct the full placement. Empty = none.
  std::vector<std::byte> manifest;
  // --- tenancy (v5, core/daemon/tenant.h). An empty tenant_id files the
  // registration under the daemon's "default" tenant; the requested_* fields
  // are wishes the daemon clamps against its own policy (the grant comes
  // back in the ack). ---
  std::string tenant_id;
  std::uint8_t priority = 1;       // 0 = high, 1 = normal, 2 = batch
  Bytes requested_capacity = 0;    // PMEM bytes wanted (0 = policy default)
  Bytes requested_rate = 0;        // pacing bytes/sec wanted (0 = default)
  // --- elasticity (v6): the membership epoch the client placed against.
  // 0 = not epoch-checked (standalone client or legacy ring); a daemon with
  // a non-zero epoch of its own rejects a non-zero stale value with
  // epoch_mismatch so the client re-resolves before registering.
  std::uint64_t membership_epoch = 0;
  std::vector<TensorDesc> tensors;

  bool sharded() const { return shard_count > 1 || replica_count > 1; }

  Bytes total_bytes() const {
    Bytes n = 0;
    for (const auto& t : tensors) n += t.size;
    return n;
  }
};

struct RegisterAckMsg {
  std::uint32_t magic = kProtocolMagic;
  std::uint16_t version = kProtocolVersion;
  bool ok = false;
  std::string error;
  // Datapath stripes the daemon actually connected (<= tokens offered).
  std::uint32_t stripes = 0;
  // Gather capability the daemon accepted for this registration: min of
  // the client's offer, the daemon's coalescing config, and its NIC. 1 =
  // single-SGE datapath (coalescing off).
  std::uint32_t max_sges = 1;
  // --- tenancy grant (v5): what the admission controller will hold this
  // registration's tenant to. 0 = unlimited / unpaced (no policy ceiling).
  Bytes granted_capacity = 0;
  Bytes granted_rate = 0;
  std::uint32_t granted_wr_slots = 0;  // in-flight checkpoints, all tenants
  // v6 elasticity: ok=false with epoch_mismatch=true means the client's
  // membership epoch is stale; current_membership_epoch is the daemon's.
  bool epoch_mismatch = false;
  std::uint64_t current_membership_epoch = 0;
};

struct CheckpointReqMsg {
  std::string model_name;
  std::uint64_t iteration = 0;
  // Incremental checkpointing (Check-N-Run-style extension): when non-empty,
  // only these tensor indices changed since the previous version; the daemon
  // pulls them over RDMA and copies the rest PMEM-locally from the last DONE
  // slot. Empty = full checkpoint.
  std::vector<std::uint32_t> dirty_indices{};
  // v6 elasticity: see RegisterModelMsg::membership_epoch.
  std::uint64_t membership_epoch = 0;
};

// Completion notice of DO_CHECKPOINT (type kCheckpointDone) and DO_RESTORE
// (type kRestoreDone). Both replies share this one layout; the leading
// MsgType tag is the only difference on the wire.
struct OpDoneMsg {
  MsgType type = MsgType::kCheckpointDone;
  std::string model_name;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::string error{};
  // CRC-of-per-tensor-CRCs (matches dnn::Model::weights_crc()) of the
  // payload persisted or served; 0 when !ok or for phantom models. A restore
  // scrubs the slot against it before pushing a byte.
  std::uint32_t payload_crc = 0;
  // v5 admission control: ok=false with backpressure=true means the class
  // queue was full — retry after backing off at least retry_after_ns.
  bool backpressure = false;
  std::uint64_t retry_after_ns = 0;
  // v6 elasticity: ok=false with epoch_mismatch=true means the request's
  // membership epoch is stale; current_epoch is the daemon's. The client
  // re-resolves placement and reissues (no op was run).
  bool epoch_mismatch = false;
  std::uint64_t current_epoch = 0;
};

struct RestoreReqMsg {
  std::string model_name;
  // Replica-epoch floor (cluster degraded restore): when non-zero, the
  // daemon must serve a DONE version with epoch >= this, or reject — a
  // replica that missed the last checkpoint must not silently hand out
  // stale tensors. 0 = newest available.
  std::uint64_t required_epoch = 0;
  // v6 elasticity: see RegisterModelMsg::membership_epoch.
  std::uint64_t membership_epoch = 0;
};

struct FinishJobMsg {
  std::string model_name;
};

// The daemon's answer to a request it cannot serve when the request has no
// reply type that can carry a failure (FINISH_JOB for an unknown model).
struct ErrorMsg {
  std::string error;
};

// --- encoding ---------------------------------------------------------------
// Every wire message is [u8 MsgType][body...]. decode_type() peeks the tag.

MsgType decode_type(std::span<const std::byte> wire);

std::vector<std::byte> encode(const RegisterModelMsg& m);
std::vector<std::byte> encode(const RegisterAckMsg& m);
std::vector<std::byte> encode(const CheckpointReqMsg& m);
std::vector<std::byte> encode(const OpDoneMsg& m);
std::vector<std::byte> encode(const RestoreReqMsg& m);
std::vector<std::byte> encode(const FinishJobMsg& m);
std::vector<std::byte> encode(const ErrorMsg& m);

RegisterModelMsg decode_register_model(std::span<const std::byte> wire);
RegisterAckMsg decode_register_ack(std::span<const std::byte> wire);
CheckpointReqMsg decode_checkpoint_req(std::span<const std::byte> wire);
// `expected` (kCheckpointDone or kRestoreDone) must be the wire's tag.
OpDoneMsg decode_op_done(std::span<const std::byte> wire, MsgType expected);
RestoreReqMsg decode_restore_req(std::span<const std::byte> wire);
FinishJobMsg decode_finish_job(std::span<const std::byte> wire);
ErrorMsg decode_error(std::span<const std::byte> wire);

// --- QP rendezvous (simulation analogue of RDMA CM) -------------------------
class QpRendezvous {
 public:
  std::uint64_t publish(rdma::QueuePair& qp) {
    const auto token = next_token_++;
    qps_.emplace(token, &qp);
    return token;
  }
  rdma::QueuePair& resolve(std::uint64_t token) const {
    const auto it = qps_.find(token);
    if (it == qps_.end()) throw NotFound("unknown QP token");
    return *it->second;
  }

 private:
  std::uint64_t next_token_ = 0xCAFE0000ull;
  std::unordered_map<std::uint64_t, rdma::QueuePair*> qps_;
};

}  // namespace portus::core
