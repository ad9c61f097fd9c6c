#include "core/daemon/daemon.h"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/strformat.h"
#include "core/daemon/extent.h"
#include "core/daemon/slots.h"

namespace portus::core {

namespace {
constexpr const char* kLog = "portusd";
}

PortusDaemon::PortusDaemon(net::Cluster& cluster, net::Node& storage_node,
                           QpRendezvous& rendezvous, Config config)
    : cluster_{cluster},
      node_{storage_node},
      rendezvous_{rendezvous},
      config_{config},
      device_{storage_node.devdax().device()},
      pd_{storage_node.nic().alloc_pd("portusd-pd")} {
  PORTUS_CHECK_ARG(storage_node.has_devdax(),
                   "Portus daemon requires a devdax PMEM namespace");
  PORTUS_CHECK_ARG(config_.pipeline_window >= 1, "pipeline_window must be >= 1");
  PORTUS_CHECK_ARG(config_.stripes >= 1 && config_.stripes <= 256,
                   "stripes must be in [1, 256]");
  PORTUS_CHECK_ARG(config_.max_sges >= 1, "max_sges must be >= 1");
  model_table_ = std::make_unique<ModelTable>(device_, kModelTableOffset,
                                              config_.model_table_capacity);
  allocator_ = std::make_unique<PmemAllocator>(
      device_, PmemAllocator::Config{.table_offset = kAllocTableOffset,
                                     .table_capacity = config_.alloc_table_capacity,
                                     .data_offset = kHeapOffset,
                                     .data_end = device_.size(),
                                     .shards = config_.shards,
                                     .refill_bytes = config_.alloc_refill_bytes,
                                     .numa_nodes = config_.numa_nodes});
  workers_ = std::make_unique<sim::SimSemaphore>(cluster.engine(), config_.workers);
  if (config_.tenancy) {
    tenants_ = std::make_unique<TenantRegistry>(
        TenantRegistry::Defaults{.quota = config_.tenant_defaults});
    admission_ = std::make_unique<AdmissionController>(
        cluster.engine(),
        AdmissionController::Config{
            .max_inflight = config_.admission_inflight > 0 ? config_.admission_inflight
                                                           : config_.workers,
            .queue_depth = config_.admission_queue_depth,
            .retry_after = config_.admission_retry_after});
  }
}

PortusDaemon::~PortusDaemon() {
  if (config_.faults != nullptr) config_.faults->deregister_target(config_.endpoint);
}

void PortusDaemon::start() {
  PORTUS_CHECK(!started_, "daemon already started");
  started_ = true;
  cluster_.listen(config_.endpoint);
  cluster_.engine().spawn(accept_loop());
  if (config_.faults != nullptr) {
    config_.faults->register_target(config_.endpoint,
                                    [this](sim::FaultMode mode) { kill(mode); });
  }
}

void PortusDaemon::kill(sim::FaultMode mode) {
  if (killed_) return;
  killed_ = true;
  if (mode == sim::FaultMode::kHang) {
    // Gray failure: sockets stay up, requests vanish into the void.
    hung_ = true;
    PLOG_INFO(kLog, "FAULT: {} hung (mute, connections stay open)", config_.endpoint);
    return;
  }
  if (mode == sim::FaultMode::kPowerCut) {
    // Device-level power loss before the crash-stop: every unpersisted
    // cache line is lost or torn, and the modeled process is gone — any
    // in-flight coroutine still running in the simulator must not commit
    // or write PMEM on its behalf (dead_ guards the commit points).
    dead_ = true;
    device_.power_cut(0x9E3779B97F4A7C15ull ^ device_.crash_count());
    PLOG_INFO(kLog, "FAULT: {} lost power (dirty lines dropped/torn)",
              config_.endpoint);
  }
  // Crash-stop: refuse new connections and drop the live ones.
  cluster_.endpoint(config_.endpoint).close();
  for (auto& weak : client_sockets_) {
    if (auto socket = weak.lock()) socket->close();
  }
  client_sockets_.clear();
  PLOG_INFO(kLog, "FAULT: {} crashed (listener + {} sessions closed)", config_.endpoint,
            sessions_.size());
}

void PortusDaemon::recover() {
  model_table_->recover();
  allocator_->recover();
  sessions_.clear();
  PLOG_INFO(kLog, "recovered: {} models in table, {} live bytes on heap",
            model_table_->size(), allocator_->live_bytes());
}

MIndex* PortusDaemon::find_live_index(const std::string& model_name) {
  const auto it = sessions_.find(model_name);
  return it == sessions_.end() ? nullptr : it->second.index.get();
}

MIndex PortusDaemon::load_index(const std::string& model_name) {
  const auto offset = model_table_->lookup(model_name);
  if (!offset.has_value()) throw NotFound("model not in ModelTable: " + model_name);
  return MIndex::load(device_, *offset);
}

sim::Process PortusDaemon::accept_loop() {
  auto& listener = cluster_.endpoint(config_.endpoint);
  try {
    for (;;) {
      auto socket = co_await listener.accept();
      cluster_.engine().spawn(session_loop(std::move(socket)));
    }
  } catch (const Disconnected&) {
    // listener closed at teardown
  }
}

sim::Process PortusDaemon::session_loop(std::shared_ptr<net::TcpSocket> socket) {
  std::erase_if(client_sockets_, [](const auto& w) { return w.expired(); });
  client_sockets_.push_back(socket);
  try {
    for (;;) {
      const auto wire = co_await socket->recv();
      if (hung_) continue;  // gray failure: swallow the request, answer nothing
      switch (decode_type(wire)) {
        case MsgType::kRegisterModel: {
          RegisterModelMsg msg;
          try {
            msg = decode_register_model(wire);
          } catch (const ProtocolMismatch& e) {
            // Explicit rejection instead of a dropped connection: the stale
            // peer gets told exactly why, in the one ack layout that is
            // stable across protocol generations (magic+version lead it).
            ++stats_.rejected_protocol;
            ++stats_.failed_ops;
            socket->send(encode(RegisterAckMsg{.ok = false, .error = e.what()}));
            break;
          }
          auto reply = co_await handle_register(std::move(msg));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kCheckpointReq: {
          auto reply = co_await handle_op(decode_checkpoint_req(wire));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kRestoreReq: {
          auto reply = co_await handle_op(decode_restore_req(wire));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kFinishJob: {
          const auto msg = decode_finish_job(wire);
          finished_.insert(msg.model_name);
          model_table_->set_finished(msg.model_name);
          BinaryWriter w;
          w.u8(static_cast<std::uint8_t>(MsgType::kFinishAck));
          socket->send(w.take());
          break;
        }
        default:
          throw Corruption("unexpected message type on daemon socket");
      }
    }
  } catch (const Disconnected&) {
    // client went away; its registrations stay (checkpoint data is durable)
  }
}

std::optional<std::string> PortusDaemon::stale_epoch(std::uint64_t request_epoch) {
  // Epoch 0 on either side means "not epoch-checked". A stale registration
  // would pin shard copies to a superseded ring, and a stale op may target
  // a copy that migrated away: both bounce before taking a worker or an
  // admission ticket, and the client re-resolves placement and reissues.
  if (request_epoch == 0 || membership_epoch_ == 0 || request_epoch == membership_epoch_) {
    return std::nullopt;
  }
  ++stats_.epoch_rejects;
  return strf("stale membership epoch {} (current {})", request_epoch, membership_epoch_);
}

sim::SubTask<RegisterAckMsg> PortusDaemon::handle_register(RegisterModelMsg msg) {
  if (auto stale = stale_epoch(msg.membership_epoch)) {
    RegisterAckMsg ack;
    ack.ok = false;
    ack.epoch_mismatch = true;
    ack.current_membership_epoch = membership_epoch_;
    ack.error = std::move(*stale);
    co_return ack;
  }

  co_await workers_->acquire();
  RegisterAckMsg ack;
  // Set once this call has billed the tenant, so a registration refused
  // after the charge (heap or table full) refunds it; a re-registration
  // of an already-charged model bills nothing and so keeps its charge.
  bool charged = false;
  try {
    // Tenancy: negotiate the quota grant and charge both slots' PMEM
    // capacity BEFORE any layout happens, so an over-quota registration is
    // refused without allocating a byte. The charge is the registered
    // payload doubled (double-mapped slots); alignment padding rides free.
    Tenant* tenant = nullptr;
    if (tenants_ != nullptr) {
      tenant = &tenants_->admit_tenant(
          msg.tenant_id.empty() ? "default" : msg.tenant_id,
          priority_from_wire(msg.priority), msg.requested_capacity, msg.requested_rate);
      charged = tenants_->charge(*tenant, msg.model_name, 2 * msg.total_bytes());
    }

    ModelSession session;
    session.registration = msg;

    // Socket affinity: sessions are dealt round-robin across the modeled
    // sockets, and on a partitioned heap each session's allocations go to
    // a shard whose arena lives on its home node (so its slots' DIMMs are
    // socket-local to the worker that will checkpoint it). Without the
    // hint, allocations land on shard 0 (PmemAllocator::alloc).
    const auto session_seq = next_session_++;
    const auto topo_nodes = std::max<std::uint32_t>(1, device_.perf().numa.nodes);
    session.home_node = static_cast<std::uint32_t>(session_seq % topo_nodes);
    std::optional<PmemAllocator::ScopedHome> home;
    if (config_.numa_nodes > 1) {
      // Pick within the home node's shard group [node*S/N, (node+1)*S/N).
      const std::uint64_t shards = config_.shards;
      const std::uint64_t lo = session.home_node * shards / config_.numa_nodes;
      const std::uint64_t hi = (session.home_node + 1ull) * shards / config_.numa_nodes;
      home.emplace(static_cast<std::uint32_t>(
          lo + (session_seq / topo_nodes) % std::max<std::uint64_t>(1, hi - lo)));
    }

    // Reuse the persistent index when this model is already known (training
    // restart): the checkpoint data on PMEM outlives client sessions.
    if (const auto existing = model_table_->lookup(msg.model_name); existing.has_value()) {
      auto loaded = MIndex::load(device_, *existing);
      PORTUS_CHECK(loaded.tensors().size() == msg.tensors.size(),
                   "re-registration with a different model structure");
      session.index = std::make_unique<MIndex>(std::move(loaded));
      // Slots reclaimed by the repacker (torn/outdated versions) are
      // re-provisioned so the double-mapping invariant holds again.
      for (int i = 0; i < 2; ++i) {
        session.index->ensure_slot(i, *allocator_);
      }
    } else {
      session.index = std::make_unique<MIndex>(
          MIndex::create(device_, *allocator_, msg, config_.coalesce_threshold));
      model_table_->insert(msg.model_name, session.index->record_offset());
    }

    // Gather capability: the client offered what its NIC posts, we accept
    // the min against our own config and NIC. 1 = single-SGE fallback.
    session.max_sges = std::min<std::uint32_t>(
        std::min<std::uint32_t>(msg.max_sges, static_cast<std::uint32_t>(config_.max_sges)),
        static_cast<std::uint32_t>(node_.nic().spec().max_sges));
    session.max_sges = std::max<std::uint32_t>(session.max_sges, 1);

    // Register both TensorData slots as RDMA regions and wire up the QP.
    auto& ns = node_.devdax();
    for (int i = 0; i < 2; ++i) {
      const auto& slot = session.index->slot(i);
      if (slot.data_offset == 0) continue;  // torn slot reclaimed by repacker
      auto mapping = ns.map(slot.data_offset, session.index->slot_size());
      session.slot_mr[i] = &pd_.register_region(node_.pmem_region(mapping));
    }
    // Stripe negotiation: connect a prefix of the offered QPs, bounded by
    // our own config. All stripes share one CQ so a single pipelined
    // consumer can drain every lane wr_id-keyed; the per-QP processing
    // depth matches the pipeline window so windowed posting actually
    // overlaps in the (simulated) NIC.
    PORTUS_CHECK(!msg.qp_tokens.empty(), "registration offers no datapath QP");
    const auto stripes = std::min<std::size_t>(
        static_cast<std::size_t>(config_.stripes), msg.qp_tokens.size());
    session.cq = std::make_unique<rdma::CompletionQueue>(cluster_.engine());
    for (std::size_t s = 0; s < stripes; ++s) {
      auto& qp = cluster_.fabric().create_qp(node_.nic(), pd_, *session.cq,
                                             config_.pipeline_window);
      cluster_.fabric().connect(qp, rendezvous_.resolve(msg.qp_tokens[s]));
      session.qps.push_back(&qp);
    }

    sessions_.erase(msg.model_name);
    const bool sharded = msg.sharded();
    const auto session_max_sges = session.max_sges;
    sessions_.emplace(msg.model_name, std::move(session));
    ++stats_.registrations;
    if (sharded) ++stats_.shard_registrations;
    ack.ok = true;
    ack.stripes = static_cast<std::uint32_t>(stripes);
    ack.max_sges = session_max_sges;
    if (tenant != nullptr) {
      ack.granted_capacity = tenant->quota.capacity_bytes;
      ack.granted_rate = tenant->quota.rate_bytes_per_sec;
      ack.granted_wr_slots =
          tenant->quota.wr_slots > 0
              ? tenant->quota.wr_slots
              : static_cast<std::uint32_t>(admission_->config().max_inflight);
    }
    PLOG_DEBUG(kLog, "registered model {} ({} tensors, {} stripes)", msg.model_name,
               msg.tensors.size(), stripes);
  } catch (const Error& e) {
    ++stats_.failed_ops;
    if (charged) tenants_->uncharge(msg.model_name, 2 * msg.total_bytes());
    ack.ok = false;
    ack.error = e.what();
  }
  workers_->release();
  co_return ack;
}

template <typename Req>
sim::SubTask<OpDoneMsg> PortusDaemon::handle_op(Req msg) {
  constexpr bool kRestore = std::is_same_v<Req, RestoreReqMsg>;
  OpDoneMsg done;
  done.type = kRestore ? MsgType::kRestoreDone : MsgType::kCheckpointDone;
  done.model_name = msg.model_name;
  if (auto stale = stale_epoch(msg.membership_epoch)) {
    done.epoch_mismatch = true;
    done.current_epoch = membership_epoch_;
    done.error = std::move(*stale);
    co_return done;
  }

  // Tenancy: a checkpoint must hold an admission ticket (strict priority +
  // WFQ + pacing, bounded queue) before it may occupy a worker or post a
  // WR. A full queue answers Backpressure — a cheap, retryable roundtrip —
  // without ever touching the worker pool. Unregistered models fall through
  // untenanted and fail the session lookup below like before. Restores are
  // deliberately unthrottled: they are the recovery path.
  AdmissionController::Ticket ticket;
  if (!kRestore && admission_ != nullptr) {
    const auto it = sessions_.find(msg.model_name);
    Tenant* tenant = it != sessions_.end() ? tenants_->owner_of(msg.model_name) : nullptr;
    if (tenant != nullptr) {
      const Bytes op_bytes = it->second.registration.total_bytes();
      try {
        ticket = co_await admission_->admit(*tenant, op_bytes);
      } catch (const Backpressure& e) {
        ++stats_.backpressure_rejects;
        done.backpressure = true;
        done.retry_after_ns = static_cast<std::uint64_t>(config_.admission_retry_after.count());
        done.error = e.what();
        co_return done;
      }
    }
  }

  co_await workers_->acquire();
  auto trace_span =
      config_.tracer != nullptr
          ? config_.tracer->span(std::string{kRestore ? "restore " : "checkpoint "} +
                                     msg.model_name,
                                 "portusd")
          : sim::Tracer::Span{};
  try {
    const auto it = sessions_.find(msg.model_name);
    PORTUS_CHECK(it != sessions_.end(),
                 std::string{kRestore ? "DO_RESTORE" : "DO_CHECKPOINT"} +
                     " for unregistered model");
    const auto crcs = co_await run_op(it->second, msg, done);
    // CRC-of-per-tensor-CRCs: comparable with dnn::Model::weights_crc().
    Crc32 agg;
    for (const auto c : crcs) agg.update(&c, sizeof c);
    done.payload_crc = agg.value();
    done.ok = true;
  } catch (const Error& e) {
    ++stats_.failed_ops;
    done.ok = false;
    done.error = e.what();
  }
  workers_->release();
  co_return done;
}

sim::SubTask<PortusDaemon::TensorCrcs> PortusDaemon::transfer_slot(ModelSession& session,
                                                                  SlotTransfer leg) {
  // Chunked spans fuse into gather extents where the slot layout is dense
  // (core/daemon/extent.h), never mixing dirty and clean tensors. A
  // coalesced extent is one multi-SGE work request that gathers (READ) or
  // scatters (WRITE) one contiguous slot range across N tensor buffers.
  const MIndex& index = *session.index;
  const auto extents = plan_extents(
      index.chunk_spans(config_.chunk_bytes), index.tensors(),
      ExtentConfig{.coalesce_threshold = config_.coalesce_threshold,
                   .max_sges = static_cast<int>(session.max_sges)},
      leg.dirty);
  std::vector<TransferChunk> work;
  work.reserve(extents.size());
  for (const auto& ext : extents) {
    const auto& head = ext.members.front();
    TransferChunk c;
    c.tensor_index = head.tensor;
    c.tensor_offset = head.offset;
    c.len = ext.len;
    c.phantom = index.phantom();
    if (leg.restore) {
      // Restores push to volatile GPU memory: nothing to persist.
      c.kind = TransferChunk::Kind::kWrite;
    } else {
      c.kind = !leg.dirty.empty() && !leg.dirty[head.tensor] ? TransferChunk::Kind::kLocalCopy
                                                              : TransferChunk::Kind::kRead;
      // Persisted, and CRC'd as it lands for the integrity block.
      c.persist_after = true;
      c.pmem_offset = leg.slot_offset + ext.offset_in_slot;
    }
    if (c.kind == TransferChunk::Kind::kLocalCopy) {
      c.src_offset = leg.prev_offset + ext.offset_in_slot;
    } else {
      const auto& desc = session.registration.tensors[head.tensor];
      c.lkey = leg.slot_mr->lkey;
      c.local_addr = leg.slot_mr->addr + ext.offset_in_slot;
      c.rkey = desc.rkey;
      c.remote_addr = desc.gpu_addr + head.offset;
    }
    if (ext.coalesced()) {
      for (const auto& m : ext.members) {
        const auto& d = session.registration.tensors[m.tensor];
        c.members.push_back(TransferChunk::ExtentMember{
            .tensor_index = m.tensor,
            .len = m.len,
            .rkey = d.rkey,
            .remote_addr = d.gpu_addr + m.offset});
      }
    }
    work.push_back(std::move(c));
  }

  PipelinedTransfer pipe{cluster_.engine(), session.qps, *session.cq,
                         PipelinedTransfer::Config{.window = config_.pipeline_window,
                                                   .batch_doorbells = config_.batch_doorbells},
                         stats_};
  pipe.bind_pmem(&device_, &node_.devdax_write_channel(),
                 node_.devdax().device().perf().read_bw);
  pipe.set_home_node(session.home_node);
  co_await pipe.run(std::move(work));
  if (leg.restore || index.phantom()) co_return TensorCrcs{};
  co_return pipe.tensor_crcs(index.tensors().size());
}

sim::SubTask<PortusDaemon::TensorCrcs> PortusDaemon::run_op(ModelSession& session,
                                                            const CheckpointReqMsg& msg,
                                                            OpDoneMsg& done) {
  MIndex& index = *session.index;

  // Incremental mode needs a previous DONE version to copy clean tensors
  // from; fall back to a full pull otherwise.
  const auto prev_slot = index.latest_done_slot();
  std::vector<bool> dirty;
  if (!msg.dirty_indices.empty() && prev_slot.has_value()) {
    dirty.assign(index.tensors().size(), false);
    for (const auto i : msg.dirty_indices) {
      PORTUS_CHECK(i < dirty.size(), "dirty index out of range");
      dirty[i] = true;
    }
  }
  const Bytes prev_data_offset =
      prev_slot.has_value() ? index.slot(*prev_slot).data_offset : 0;

  auto txn = CheckpointTxn::begin(index);
  const auto* slot_mr = session.slot_mr[txn.slot()];
  PORTUS_CHECK(slot_mr != nullptr, "write slot has no registered region");
  // NOTE: the leg is materialized into a local before co_await — GCC 12
  // miscompiles non-trivial temporaries inside co_await full-expressions.
  SlotTransfer leg{.restore = false,
                   .slot_mr = slot_mr,
                   .slot_offset = txn.data_offset(),
                   .prev_offset = prev_data_offset,
                   .dirty = std::move(dirty)};
  const auto crcs = co_await transfer_slot(session, std::move(leg));

  // Catch-all flush (layout padding is not covered by the per-chunk
  // persists) + the once-per-checkpoint persistence-domain drain, before
  // declaring the slot DONE.
  device_.persist(txn.data_offset(), index.slot_size());
  co_await cluster_.engine().sleep(device_.perf().persist_overhead);

  // A power cut may have fired while this coroutine was suspended on the
  // datapath; the process it models died with it, so nothing below — CRC
  // block or DONE flip — may touch PMEM.
  PORTUS_CHECK(!dead_, "power lost before checkpoint commit");

  if (!index.phantom()) {
    // Persist the payload-CRC block BEFORE the DONE flip, extending the
    // ordering to ACTIVE -> data -> CRC block -> DONE: a DONE slot is
    // thereby guaranteed to carry a valid, epoch-matching block.
    index.set_payload_crcs(txn.slot(), txn.epoch(), crcs);
  }

  txn.commit();
  ++stats_.checkpoints;
  stats_.bytes_pulled += session.registration.total_bytes();
  done.epoch = txn.epoch();
  co_return crcs;
}

sim::SubTask<PortusDaemon::TensorCrcs> PortusDaemon::run_op(ModelSession& session,
                                                            const RestoreReqMsg& msg,
                                                            OpDoneMsg& done) {
  MIndex& index = *session.index;
  const auto slot_idx = index.latest_done_slot();
  PORTUS_CHECK(slot_idx.has_value(), "no valid checkpoint version on PMEM");
  const auto& slot = index.slot(*slot_idx);
  // Replica-epoch floor: a copy that missed the last checkpoint (this
  // daemon was down or hung while the others committed) must refuse
  // rather than hand out stale tensors as if they were current.
  if (msg.required_epoch != 0 && slot.epoch < msg.required_epoch) {
    throw NotFound(strf("newest DONE version of {} is epoch {}, caller requires >= {}",
                        msg.model_name, slot.epoch, msg.required_epoch));
  }
  const auto* slot_mr = session.slot_mr[*slot_idx];
  PORTUS_CHECK(slot_mr != nullptr, "restore slot has no registered region");

  // Integrity scrub before any byte leaves PMEM: the DONE slot must carry
  // a valid payload-CRC block for its exact epoch, and every tensor's
  // bytes must still match it. Bit rot (or an undetected torn write)
  // surfaces here as an explicit Corruption instead of silently feeding
  // the training job garbage weights.
  TensorCrcs crcs;
  if (!index.phantom()) {
    const auto block = index.payload_crcs(*slot_idx);
    if (!block.has_value() || block->epoch != slot.epoch) {
      ++stats_.integrity_rejects;
      throw Corruption(strf("payload-CRC block for {} slot {} is {} at epoch {}",
                            msg.model_name, *slot_idx,
                            block.has_value() ? "stale" : "missing or torn", slot.epoch));
    }
    const auto& tensors = index.tensors();
    for (std::size_t t = 0; t < tensors.size(); ++t) {
      if (device_.crc(slot.data_offset + tensors[t].offset_in_slot, tensors[t].size) !=
          block->crcs[t]) {
        ++stats_.integrity_rejects;
        throw Corruption(strf("tensor {} of {} failed its payload CRC on restore",
                              tensors[t].name, msg.model_name));
      }
    }
    crcs = block->crcs;
  }

  SlotTransfer leg{.restore = true,
                   .slot_mr = slot_mr,
                   .slot_offset = slot.data_offset,
                   .prev_offset = 0,
                   .dirty = {}};
  co_await transfer_slot(session, std::move(leg));

  ++stats_.restores;
  stats_.bytes_pushed += session.registration.total_bytes();
  done.epoch = slot.epoch;
  co_return crcs;
}

}  // namespace portus::core
