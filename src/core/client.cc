#include "core/client.h"

#include <algorithm>
#include <numeric>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/strformat.h"

namespace portus::core {

PortusClient::PortusClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
                           QpRendezvous& rendezvous, std::string endpoint, int stripes)
    : cluster_{cluster},
      node_{client_node},
      gpu_{gpu},
      rendezvous_{rendezvous},
      endpoint_{std::move(endpoint)},
      stripes_{stripes} {
  PORTUS_CHECK_ARG(stripes >= 1 && stripes <= 256, "client stripes must be in [1, 256]");
  pd_ = &client_node.nic().alloc_pd("portus-client-pd/" + endpoint_);
}

sim::SubTask<> PortusClient::connect() {
  PORTUS_CHECK(socket_ == nullptr, "client already connected");
  socket_ = co_await cluster_.endpoint(endpoint_).connect();
}

sim::SubTask<std::vector<std::byte>> PortusClient::roundtrip(std::vector<std::byte> request) {
  PORTUS_CHECK(socket_ != nullptr, "client not connected");
  PORTUS_CHECK(!*op_in_flight_, "one control-plane operation at a time per client");
  // Scope guard, not a plain reset at the end: recv() throws when the
  // daemon side goes away, and a wedged op_in_flight_ would reject every
  // later operation on this client. The guard shares ownership of the flag
  // so it stays valid even if the client is destroyed mid-op and the
  // suspended frame is torn down later by engine shutdown.
  *op_in_flight_ = true;
  struct BusyGuard {
    std::shared_ptr<bool> flag;
    ~BusyGuard() { *flag = false; }
  };
  const BusyGuard guard{op_in_flight_};
  socket_->send(std::move(request));

  if (op_timeout_ <= Duration{0}) {
    auto reply = co_await socket_->recv();
    co_return reply;
  }

  // Watchdog: if the daemon has not answered within op_timeout_, close our
  // own socket — the pending recv() then fails with Disconnected. The timer
  // outlives the op (it holds the socket by shared_ptr), so a late fire on
  // a completed op is a no-op.
  struct Watch {
    bool done = false;
    bool fired = false;
  };
  auto watch = std::make_shared<Watch>();
  auto sock = socket_;
  cluster_.engine().schedule(op_timeout_, [sock, watch] {
    if (!watch->done) {
      watch->fired = true;
      sock->close();
    }
  });
  try {
    auto reply = co_await socket_->recv();
    watch->done = true;
    co_return reply;
  } catch (const Disconnected&) {
    watch->done = true;
    if (watch->fired) {
      ++stats_.timeouts;
      throw Disconnected(
          strf("operation to {} timed out after {}", endpoint_, format_duration(op_timeout_)));
    }
    throw;
  }
}

sim::SubTask<> PortusClient::backoff(int attempt, std::uint64_t retry_after_ns) {
  // Jitter spreads a fleet of clients bounced by the same full queue so
  // they do not re-arrive in lockstep; the daemon's retry_after hint is a
  // floor, never a cap.
  const BackoffPolicy policy{.base = retry_.base_backoff, .max = retry_.max_backoff};
  const Duration wait = jittered_backoff(policy, attempt, jitter_, retry_after_ns);
  co_await cluster_.engine().sleep(wait);
}

sim::SubTask<OpDoneMsg> PortusClient::retrying_roundtrip(std::vector<std::byte> req_wire,
                                                         MsgType reply_type) {
  for (int attempt = 0;; ++attempt) {
    auto wire = req_wire;  // keep the original; re-sends ship it verbatim
    std::vector<std::byte> reply;
    bool got_reply = false;
    try {
      reply = co_await roundtrip(std::move(wire));
      got_reply = true;
    } catch (const Disconnected&) {
      if (!retry_.retry_timeouts || attempt >= retry_.max_retries) throw;
    }

    if (got_reply) {
      auto done = decode_op_done(reply, reply_type);
      // Out of retries: hand the Backpressure answer to the caller, whose
      // ok-check turns it into a hard failure.
      if (!done.backpressure || attempt >= retry_.max_retries) co_return done;
      ++stats_.backpressure;
      ++stats_.retries;
      co_await backoff(attempt, done.retry_after_ns);
      continue;
    }

    // Timed out: the watchdog closed our socket; the daemon-side session
    // survives a reconnect, so a re-sent request needs no re-registration.
    ++stats_.retries;
    co_await backoff(attempt, 0);
    auto socket = co_await cluster_.endpoint(endpoint_).connect();
    socket_ = std::move(socket);
    ++stats_.reconnects;
  }
}

sim::SubTask<std::uint64_t> PortusClient::run_op(std::vector<std::byte> req_wire,
                                                 MsgType reply_type) {
  const Time t0 = cluster_.engine().now();
  const auto done = co_await retrying_roundtrip(std::move(req_wire), reply_type);
  const bool restore = reply_type == MsgType::kRestoreDone;
  const char* what = restore ? "restore" : "checkpoint";
  if (done.epoch_mismatch) {
    throw EpochMismatch(strf("{} of {} rejected: stale membership epoch {} (daemon at {})",
                             what, done.model_name, membership_epoch_, done.current_epoch));
  }
  PORTUS_CHECK(done.ok, strf("{} failed: {}", what, done.error));
  ++(restore ? stats_.restores : stats_.checkpoints);
  (restore ? stats_.last_restore : stats_.last_checkpoint) = cluster_.engine().now() - t0;
  stats_.last_payload_crc = done.payload_crc;
  co_return done.epoch;
}

sim::SubTask<> PortusClient::register_model(dnn::Model& model) {
  ShardBinding all;
  all.reg_name = model.name();
  all.tensor_indices.resize(model.tensors().size());
  std::iota(all.tensor_indices.begin(), all.tensor_indices.end(), 0u);
  co_await register_shard(model, std::move(all));
}

sim::SubTask<> PortusClient::register_shard(dnn::Model& model, ShardBinding binding) {
  const Time t0 = cluster_.engine().now();
  PORTUS_CHECK_ARG(!binding.tensor_indices.empty(), "shard binding has no tensors");

  RegisterModelMsg msg;
  msg.model_name = binding.reg_name;
  msg.phantom = model.phantom();
  // Offer the gather capability of this NIC; the daemon answers with the
  // min against its own config, and a single-SGE daemon answers 1.
  msg.max_sges = static_cast<std::uint32_t>(node_.nic().spec().max_sges);
  msg.shard_id = binding.shard_id;
  msg.shard_count = binding.shard_count;
  msg.replica = binding.replica;
  msg.replica_count = binding.replica_count;
  msg.placement_epoch = binding.placement_epoch;
  msg.manifest = std::move(binding.manifest);
  msg.tenant_id = tenant_.id;
  msg.priority = tenant_.priority;
  msg.requested_capacity = tenant_.requested_capacity;
  msg.requested_rate = tenant_.requested_rate;
  msg.membership_epoch = membership_epoch_;

  // Pin the bound tensors through PeerMem and register them with the RNIC.
  // The remote side needs READ (checkpoint pull) and WRITE (restore push).
  auto& tensors = model.tensors();
  for (const auto i : binding.tensor_indices) {
    PORTUS_CHECK_ARG(i < tensors.size(),
                     strf("shard binding tensor index {} out of range", i));
    auto& tensor = tensors[i];
    const auto peer = co_await gpu::PeerMem::register_buffer(gpu_, tensor.buffer());
    const auto& mr = pd_->register_region(node_.gpu_region(peer));
    msg.tensors.push_back(TensorDesc{
        .name = tensor.name(),
        .dtype = tensor.meta().dtype,
        .shape = tensor.meta().shape,
        .size = tensor.byte_size(),
        .gpu_addr = peer.global_addr,
        .rkey = mr.rkey,
    });
  }

  // One CQ serves every stripe of this registration: the daemon drives all
  // lanes wr_id-keyed, and the client side is passive (one-sided verbs
  // target its memory). Each registration keeps its own datapath — a daemon
  // may host several shard copies through one client, and tearing down an
  // older registration's CQ while its QPs live would dangle.
  Datapath dp;
  dp.cq = std::make_unique<rdma::CompletionQueue>(cluster_.engine());
  for (int s = 0; s < stripes_; ++s) {
    auto& qp = cluster_.fabric().create_qp(node_.nic(), *pd_, *dp.cq);
    dp.qps.push_back(&qp);
    msg.qp_tokens.push_back(rendezvous_.publish(qp));
  }
  const std::string reg_name = msg.model_name;
  const std::size_t tensor_count = msg.tensors.size();
  datapaths_[reg_name] = std::move(dp);

  auto wire = encode(msg);
  const auto reply = co_await roundtrip(std::move(wire));
  const auto ack = decode_register_ack(reply);
  if (ack.epoch_mismatch) {
    throw EpochMismatch(strf("registration of {} rejected: stale membership epoch {} "
                             "(daemon at {})",
                             reg_name, membership_epoch_, ack.current_membership_epoch));
  }
  PORTUS_CHECK(ack.ok, "registration rejected: " + ack.error);
  stats_.negotiated_stripes = ack.stripes;
  stats_.negotiated_max_sges = ack.max_sges;
  stats_.granted_capacity = ack.granted_capacity;
  stats_.granted_rate = ack.granted_rate;
  stats_.granted_wr_slots = ack.granted_wr_slots;
  stats_.registration_time = cluster_.engine().now() - t0;
  PLOG_DEBUG("portus-client", "registered {} ({} tensors) at {}", reg_name, tensor_count,
             endpoint_);
}

sim::SubTask<std::uint64_t> PortusClient::checkpoint(dnn::Model& model,
                                                     std::uint64_t iteration) {
  co_return co_await checkpoint_incremental(model, iteration, {});
}

sim::SubTask<std::uint64_t> PortusClient::checkpoint_named(std::string reg_name,
                                                           std::uint64_t iteration) {
  // NOTE: temporaries are materialized into locals before co_await — GCC 12
  // miscompiles non-trivial temporaries inside co_await full-expressions
  // (double destruction after resumption).
  CheckpointReqMsg req{.model_name = std::move(reg_name),
                       .iteration = iteration,
                       .dirty_indices = {},
                       .membership_epoch = membership_epoch_};
  auto wire = encode(req);
  co_return co_await run_op(std::move(wire), MsgType::kCheckpointDone);
}

sim::SubTask<std::uint64_t> PortusClient::checkpoint_incremental(
    dnn::Model& model, std::uint64_t iteration, std::vector<std::uint32_t> dirty_indices) {
  CheckpointReqMsg req{.model_name = model.name(),
                       .iteration = iteration,
                       .dirty_indices = std::move(dirty_indices),
                       .membership_epoch = membership_epoch_};
  auto wire = encode(req);
  co_return co_await run_op(std::move(wire), MsgType::kCheckpointDone);
}

sim::SubTask<std::uint64_t> PortusClient::restore(dnn::Model& model) {
  co_return co_await restore_named(model.name());
}

sim::SubTask<std::uint64_t> PortusClient::restore_named(std::string reg_name,
                                                        std::uint64_t required_epoch) {
  RestoreReqMsg req{.model_name = std::move(reg_name),
                    .required_epoch = required_epoch,
                    .membership_epoch = membership_epoch_};
  auto wire = encode(req);
  co_return co_await run_op(std::move(wire), MsgType::kRestoreDone);
}

sim::SubTask<> PortusClient::finish(dnn::Model& model) {
  FinishJobMsg req{.model_name = model.name()};
  auto wire = encode(req);
  const auto reply = co_await roundtrip(std::move(wire));
  if (decode_type(reply) == MsgType::kError) {
    throw NotFound(strf("finish {}: {}", model.name(), decode_error(reply).error));
  }
  PORTUS_CHECK(decode_type(reply) == MsgType::kFinishAck, "unexpected finish reply");
}

}  // namespace portus::core
