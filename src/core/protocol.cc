#include "core/protocol.h"

namespace portus::core {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kRegisterModel: return "REGISTER_MODEL";
    case MsgType::kRegisterAck: return "REGISTER_ACK";
    case MsgType::kCheckpointReq: return "DO_CHECKPOINT";
    case MsgType::kCheckpointDone: return "CHECKPOINT_DONE";
    case MsgType::kRestoreReq: return "DO_RESTORE";
    case MsgType::kRestoreDone: return "RESTORE_DONE";
    case MsgType::kFinishJob: return "FINISH_JOB";
    case MsgType::kFinishAck: return "FINISH_ACK";
    case MsgType::kError: return "ERROR";
  }
  return "?";
}

MsgType decode_type(std::span<const std::byte> wire) {
  BinaryReader r{wire};
  return static_cast<MsgType>(r.u8());
}

namespace {

BinaryReader body_reader(std::span<const std::byte> wire, MsgType expected) {
  BinaryReader r{wire};
  const auto tag = static_cast<MsgType>(r.u8());
  if (tag != expected) {
    throw Corruption(std::string{"expected "} + to_string(expected) + ", got " +
                     to_string(tag));
  }
  return r;
}

void put_status(BinaryWriter& w, bool ok, const std::string& error) {
  w.u8(ok ? 1 : 0);
  w.str(error);
}

void check_protocol(std::uint32_t magic, std::uint16_t version, const char* what) {
  if (magic != kProtocolMagic) {
    throw ProtocolMismatch(std::string{what} + ": not a Portus message (bad magic)");
  }
  if (version != kProtocolVersion) {
    throw ProtocolMismatch(std::string{what} + ": protocol version " +
                           std::to_string(version) + ", this build speaks " +
                           std::to_string(kProtocolVersion));
  }
}

}  // namespace

std::vector<std::byte> encode(const RegisterModelMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRegisterModel));
  w.u32(m.magic);
  w.u16(m.version);
  w.str(m.model_name);
  w.u32(static_cast<std::uint32_t>(m.qp_tokens.size()));
  for (const auto token : m.qp_tokens) w.u64(token);
  w.u8(m.phantom ? 1 : 0);
  w.u32(m.max_sges);
  w.u32(m.shard_id);
  w.u32(m.shard_count);
  w.u32(m.replica);
  w.u32(m.replica_count);
  w.u64(m.placement_epoch);
  w.bytes(m.manifest);
  w.str(m.tenant_id);
  w.u8(m.priority);
  w.u64(m.requested_capacity);
  w.u64(m.requested_rate);
  w.u64(m.membership_epoch);
  w.u32(static_cast<std::uint32_t>(m.tensors.size()));
  for (const auto& t : m.tensors) {
    w.str(t.name);
    w.u8(static_cast<std::uint8_t>(t.dtype));
    w.u32(static_cast<std::uint32_t>(t.shape.size()));
    for (const auto d : t.shape) w.i64(d);
    w.u64(t.size);
    w.u64(t.gpu_addr);
    w.u32(t.rkey);
  }
  return w.take();
}

RegisterModelMsg decode_register_model(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kRegisterModel);
  RegisterModelMsg m;
  m.magic = r.u32();
  m.version = r.u16();
  check_protocol(m.magic, m.version, "registration");
  m.model_name = r.str();
  const auto n_tokens = r.u32();
  if (n_tokens > 256) throw Corruption("implausible QP stripe count in registration");
  m.qp_tokens.resize(n_tokens);
  for (auto& token : m.qp_tokens) token = r.u64();
  m.phantom = r.u8() != 0;
  m.max_sges = r.u32();
  if (m.max_sges == 0 || m.max_sges > 1024) {
    throw Corruption("implausible gather capability in registration");
  }
  m.shard_id = r.u32();
  m.shard_count = r.u32();
  m.replica = r.u32();
  m.replica_count = r.u32();
  if (m.shard_count == 0 || m.shard_id >= m.shard_count || m.replica_count == 0 ||
      m.replica >= m.replica_count) {
    throw Corruption("implausible shard identity in registration");
  }
  m.placement_epoch = r.u64();
  m.manifest = r.bytes();
  m.tenant_id = r.str();
  m.priority = r.u8();
  if (m.priority > 2) throw Corruption("implausible priority class in registration");
  m.requested_capacity = r.u64();
  m.requested_rate = r.u64();
  m.membership_epoch = r.u64();
  const auto count = r.u32();
  if (count > 1u << 20) throw Corruption("implausible tensor count in registration");
  m.tensors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TensorDesc t;
    t.name = r.str();
    t.dtype = static_cast<dnn::DType>(r.u8());
    const auto ndim = r.u32();
    if (ndim > 16) throw Corruption("implausible tensor rank in registration");
    t.shape.resize(ndim);
    for (auto& d : t.shape) d = r.i64();
    t.size = r.u64();
    t.gpu_addr = r.u64();
    t.rkey = r.u32();
    m.tensors.push_back(std::move(t));
  }
  return m;
}

std::vector<std::byte> encode(const RegisterAckMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRegisterAck));
  w.u32(m.magic);
  w.u16(m.version);
  put_status(w, m.ok, m.error);
  w.u32(m.stripes);
  w.u32(m.max_sges);
  w.u64(m.granted_capacity);
  w.u64(m.granted_rate);
  w.u32(m.granted_wr_slots);
  w.u8(m.epoch_mismatch ? 1 : 0);
  w.u64(m.current_membership_epoch);
  return w.take();
}

RegisterAckMsg decode_register_ack(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kRegisterAck);
  RegisterAckMsg m;
  m.magic = r.u32();
  m.version = r.u16();
  // The client-side mirror of the daemon's registration check: a stale
  // daemon's ack is rejected before its body layout is trusted.
  check_protocol(m.magic, m.version, "registration ack");
  m.ok = r.u8() != 0;
  m.error = r.str();
  m.stripes = r.u32();
  m.max_sges = r.u32();
  m.granted_capacity = r.u64();
  m.granted_rate = r.u64();
  m.granted_wr_slots = r.u32();
  m.epoch_mismatch = r.u8() != 0;
  m.current_membership_epoch = r.u64();
  return m;
}

std::vector<std::byte> encode(const CheckpointReqMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kCheckpointReq));
  w.str(m.model_name);
  w.u64(m.iteration);
  w.u32(static_cast<std::uint32_t>(m.dirty_indices.size()));
  for (const auto i : m.dirty_indices) w.u32(i);
  w.u64(m.membership_epoch);
  return w.take();
}

CheckpointReqMsg decode_checkpoint_req(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kCheckpointReq);
  CheckpointReqMsg m;
  m.model_name = r.str();
  m.iteration = r.u64();
  const auto n = r.u32();
  if (n > 1u << 20) throw Corruption("implausible dirty-set size");
  m.dirty_indices.resize(n);
  for (auto& i : m.dirty_indices) i = r.u32();
  m.membership_epoch = r.u64();
  return m;
}

std::vector<std::byte> encode(const OpDoneMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(m.type));
  w.str(m.model_name);
  w.u64(m.epoch);
  put_status(w, m.ok, m.error);
  w.u32(m.payload_crc);
  w.u8(m.backpressure ? 1 : 0);
  w.u64(m.retry_after_ns);
  w.u8(m.epoch_mismatch ? 1 : 0);
  w.u64(m.current_epoch);
  return w.take();
}

OpDoneMsg decode_op_done(std::span<const std::byte> wire, MsgType expected) {
  PORTUS_CHECK_ARG(expected == MsgType::kCheckpointDone || expected == MsgType::kRestoreDone,
                   std::string{"not an op reply type: "} + to_string(expected));
  auto r = body_reader(wire, expected);
  OpDoneMsg m;
  m.type = expected;
  m.model_name = r.str();
  m.epoch = r.u64();
  m.ok = r.u8() != 0;
  m.error = r.str();
  m.payload_crc = r.u32();
  m.backpressure = r.u8() != 0;
  m.retry_after_ns = r.u64();
  m.epoch_mismatch = r.u8() != 0;
  m.current_epoch = r.u64();
  return m;
}

std::vector<std::byte> encode(const RestoreReqMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRestoreReq));
  w.str(m.model_name);
  w.u64(m.required_epoch);
  w.u64(m.membership_epoch);
  return w.take();
}

RestoreReqMsg decode_restore_req(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kRestoreReq);
  RestoreReqMsg m;
  m.model_name = r.str();
  m.required_epoch = r.u64();
  m.membership_epoch = r.u64();
  return m;
}

std::vector<std::byte> encode(const FinishJobMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kFinishJob));
  w.str(m.model_name);
  return w.take();
}

FinishJobMsg decode_finish_job(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kFinishJob);
  FinishJobMsg m;
  m.model_name = r.str();
  return m;
}

std::vector<std::byte> encode(const ErrorMsg& m) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kError));
  w.str(m.error);
  return w.take();
}

ErrorMsg decode_error(std::span<const std::byte> wire) {
  auto r = body_reader(wire, MsgType::kError);
  ErrorMsg m;
  m.error = r.str();
  return m;
}

}  // namespace portus::core
