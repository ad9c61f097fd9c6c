// RPC-over-RDMA: the two-sided request/response transport that BeeGFS uses
// (the paper's ref [35] "RPCoRDMA"). This is the *slow* transport the
// traditional checkpointing path rides on — every chunk costs a SEND, a
// handler dispatch on the server CPU, and a SEND back, in contrast to the
// Portus daemon's one-sided pulls.
//
// Each RpcChannel owns a QP pair, per-side staging buffers in DRAM, and a
// server-side worker process running the registered handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/units.h"
#include "mem/address_space.h"
#include "rdma/fabric.h"
#include "sim/task.h"

namespace portus::rdma {

// Handler result: response payload plus an optional phantom tail — extra
// wire bytes charged but never copied (timing-only reads of large files).
struct RpcReply {
  std::vector<std::byte> payload;
  Bytes phantom_tail = 0;
};

// Handler: (opcode, request payload) -> reply. May co_await (e.g. a DAX
// write with its timing) before responding.
using RpcHandler = std::function<sim::SubTask<RpcReply>(std::uint16_t, std::vector<std::byte>)>;

class RpcChannel {
 public:
  static constexpr Bytes kStagingSize = 4_MiB;

  // Builds the QPs on both NICs, connects them, and starts the server-side
  // dispatch process. `handler` runs on the server for every call.
  RpcChannel(Fabric& fabric, mem::AddressSpace& addr_space, RdmaNic& client_nic,
             RdmaNic& server_nic, std::string name, RpcHandler handler);

  // Issue one call and await the response. Calls on one channel are
  // serialized (BeeGFS streams chunks sequentially per file handle).
  // `phantom_tail` inflates the request's wire size without carrying bytes
  // (the SEND's WorkRequest::phantom_tail) — used by timing-only writes of
  // large files, which must still pay full transport cost. Message plus
  // tail must fit kStagingSize.
  sim::SubTask<std::vector<std::byte>> call(std::uint16_t opcode,
                                            std::vector<std::byte> payload,
                                            Bytes phantom_tail = 0);

  std::uint64_t calls_completed() const { return calls_completed_; }
  const mem::MemorySegment& client_staging() const { return *client_staging_; }
  const mem::MemorySegment& server_staging() const { return *server_staging_; }

 private:
  sim::Process serve();

  Fabric& fabric_;
  RpcHandler handler_;
  std::string name_;

  std::shared_ptr<mem::MemorySegment> client_staging_;
  std::shared_ptr<mem::MemorySegment> server_staging_;
  std::unique_ptr<CompletionQueue> client_cq_;
  std::unique_ptr<CompletionQueue> server_cq_;
  ProtectionDomain* client_pd_;
  ProtectionDomain* server_pd_;
  const MemoryRegion* client_mr_;
  const MemoryRegion* server_mr_;
  QueuePair* client_qp_;
  QueuePair* server_qp_;
  bool call_in_flight_ = false;
  std::uint64_t calls_completed_ = 0;
};

}  // namespace portus::rdma
