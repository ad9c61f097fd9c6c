#include "rdma/rpc.h"

#include "common/logging.h"

namespace portus::rdma {

namespace {

// Staging layout: [u16 opcode][u64 payload_len][payload...]
constexpr Bytes kHeaderSize = 2 + 8;

std::vector<std::byte> encode_message(std::uint16_t opcode,
                                      std::span<const std::byte> payload) {
  BinaryWriter w;
  w.u16(opcode);
  w.u64(payload.size());
  w.raw(payload);
  return w.take();
}

struct Message {
  std::uint16_t opcode;
  std::vector<std::byte> payload;
};

// Decodes the message that landed in `staging` (`landed` = the receive's
// byte_len): reads only the header and the payload it announces, never the
// phantom tail behind them.
Message read_message(const mem::MemorySegment& staging, Bytes landed) {
  PORTUS_CHECK(landed >= kHeaderSize, "RPC message shorter than its header");
  const auto header = staging.read(0, kHeaderSize);
  BinaryReader r{header};
  const std::uint16_t opcode = r.u16();
  const Bytes n = r.u64();
  PORTUS_CHECK(n <= landed - kHeaderSize, "RPC payload overruns the landed message");
  return Message{opcode, staging.read(kHeaderSize, n)};
}

}  // namespace

RpcChannel::RpcChannel(Fabric& fabric, mem::AddressSpace& addr_space, RdmaNic& client_nic,
                       RdmaNic& server_nic, std::string name, RpcHandler handler)
    : fabric_{fabric}, handler_{std::move(handler)}, name_{std::move(name)} {
  client_staging_ =
      addr_space.create_segment(name_ + "/client-staging", mem::MemoryKind::kDram, kStagingSize);
  server_staging_ =
      addr_space.create_segment(name_ + "/server-staging", mem::MemoryKind::kDram, kStagingSize);
  client_cq_ = std::make_unique<CompletionQueue>(fabric.engine());
  server_cq_ = std::make_unique<CompletionQueue>(fabric.engine());
  client_pd_ = &client_nic.alloc_pd(name_ + "/client-pd");
  server_pd_ = &server_nic.alloc_pd(name_ + "/server-pd");
  client_mr_ = &client_pd_->register_region(RegionDesc{
      .segment = client_staging_.get(),
      .addr = client_staging_->base_addr(),
      .length = kStagingSize,
  });
  server_mr_ = &server_pd_->register_region(RegionDesc{
      .segment = server_staging_.get(),
      .addr = server_staging_->base_addr(),
      .length = kStagingSize,
  });
  client_qp_ = &fabric.create_qp(client_nic, *client_pd_, *client_cq_);
  server_qp_ = &fabric.create_qp(server_nic, *server_pd_, *server_cq_);
  fabric.connect(*client_qp_, *server_qp_);

  // Server always keeps one receive posted.
  server_qp_->post_recv(RecvWr{.wr_id = 1, .lkey = server_mr_->lkey,
                               .addr = server_mr_->addr, .length = kStagingSize});
  fabric.engine().spawn(serve());
}

sim::SubTask<std::vector<std::byte>> RpcChannel::call(std::uint16_t opcode,
                                                      std::vector<std::byte> payload,
                                                      Bytes phantom_tail) {
  PORTUS_CHECK(!call_in_flight_, "RpcChannel calls must not be issued concurrently");
  call_in_flight_ = true;
  const auto msg = encode_message(opcode, payload);
  PORTUS_CHECK_ARG(msg.size() + phantom_tail <= kStagingSize,
                   "RPC message exceeds staging buffer");
  client_staging_->write(0, msg);

  // Post the response receive before the request send (no race possible).
  client_qp_->post_recv(RecvWr{.wr_id = 2, .lkey = client_mr_->lkey,
                               .addr = client_mr_->addr, .length = kStagingSize});
  client_qp_->post(WorkRequest{.opcode = WcOpcode::kSend, .wr_id = 3,
                               .lkey = client_mr_->lkey, .local_addr = client_mr_->addr,
                               .length = msg.size(), .phantom_tail = phantom_tail});

  bool sent = false;
  bool received = false;
  Bytes resp_len = 0;
  while (!sent || !received) {
    const WorkCompletion wc = co_await client_cq_->wait();
    PORTUS_CHECK(wc.status == WcStatus::kSuccess,
                 std::string{"RPC transport error: "} + to_string(wc.status));
    if (wc.opcode == WcOpcode::kSend) {
      sent = true;
    } else {
      received = true;
      resp_len = wc.byte_len;
    }
  }

  auto body = read_message(*client_staging_, resp_len).payload;
  call_in_flight_ = false;
  ++calls_completed_;
  co_return body;
}

sim::Process RpcChannel::serve() {
  try {
    for (;;) {
      const WorkCompletion wc = co_await server_cq_->wait();
      if (wc.opcode == WcOpcode::kSend) continue;  // our own response send
      PORTUS_CHECK(wc.status == WcStatus::kSuccess, "RPC server receive error");

      Message req = read_message(*server_staging_, wc.byte_len);
      RpcReply reply = co_await handler_(req.opcode, std::move(req.payload));

      const auto resp_msg = encode_message(req.opcode, reply.payload);
      PORTUS_CHECK_ARG(resp_msg.size() + reply.phantom_tail <= kStagingSize,
                       "RPC response exceeds staging buffer");
      server_staging_->write(0, resp_msg);

      // Re-arm the receive before answering so back-to-back calls never RNR.
      server_qp_->post_recv(RecvWr{.wr_id = 1, .lkey = server_mr_->lkey,
                                   .addr = server_mr_->addr, .length = kStagingSize});
      server_qp_->post(WorkRequest{.opcode = WcOpcode::kSend, .wr_id = 4,
                                   .lkey = server_mr_->lkey, .local_addr = server_mr_->addr,
                                   .length = resp_msg.size(),
                                   .phantom_tail = reply.phantom_tail});
    }
  } catch (const Disconnected&) {
    // Engine teardown.
  }
}

}  // namespace portus::rdma
