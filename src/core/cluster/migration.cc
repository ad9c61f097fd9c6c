#include "core/cluster/migration.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strformat.h"
#include "core/cluster/manifest.h"
#include "core/cluster/placement.h"
#include "core/daemon/slots.h"
#include "mem/segment.h"

namespace portus::core::cluster {

namespace {
constexpr const char* kLog = "elastic";
}

ElasticCluster::ElasticCluster(sim::Engine& engine, Config config)
    : engine_{engine}, config_{config} {
  PORTUS_CHECK_ARG(config_.replicas >= 1, "replication factor must be >= 1");
  PORTUS_CHECK_ARG(config_.stream_gbps > 0.0, "streaming bandwidth must be positive");
}

void ElasticCluster::add_member(const std::string& endpoint, PortusDaemon& daemon) {
  PORTUS_CHECK_ARG(membership_.epoch == 0, "ring already sealed; grow it with join()");
  PORTUS_CHECK_ARG(membership_.find(endpoint) == nullptr,
                   "member already known: " + endpoint);
  membership_.members.push_back(Member{endpoint, MemberState::kActive});
  daemons_[endpoint] = &daemon;
}

void ElasticCluster::seal() {
  PORTUS_CHECK(membership_.epoch == 0, "ring already sealed");
  PORTUS_CHECK(!membership_.active_positions().empty(), "cannot seal an empty ring");
  membership_.epoch = 1;
  push_epoch();
}

PortusDaemon* ElasticCluster::daemon(const std::string& endpoint) const {
  const auto it = daemons_.find(endpoint);
  return it != daemons_.end() ? it->second : nullptr;
}

std::vector<PortusDaemon*> ElasticCluster::serving(const Membership& m) const {
  std::vector<PortusDaemon*> out;
  for (const auto& member : m.members) {
    auto* d = member.state != MemberState::kDown ? daemon(member.endpoint) : nullptr;
    if (d != nullptr && !d->killed()) out.push_back(d);
  }
  return out;
}

void ElasticCluster::push_epoch() {
  for (auto* d : serving(membership_)) d->set_membership_epoch(membership_.epoch);
}

std::optional<std::uint64_t> ElasticCluster::done_epoch(PortusDaemon& d,
                                                        const std::string& key) {
  if (!d.model_table().lookup(key).has_value()) return std::nullopt;
  try {
    auto idx = d.index(key);
    if (const auto slot = idx->latest_done_slot()) return idx->slot(*slot).epoch;
  } catch (const std::exception&) {
    // torn record: nothing usable here
  }
  return std::nullopt;
}

sim::SubTask<Bytes> ElasticCluster::migrate_copy(PortusDaemon& src, PortusDaemon& dst,
                                                 const std::string& key,
                                                 std::uint32_t replica) {
  // Source: the newest DONE version, read-only throughout. The source image
  // is never mutated by a migration, so whatever was acked there stays
  // recoverable no matter where the destination crashes.
  if (!src.model_table().lookup(key).has_value()) co_return 0;
  auto sidx = src.index(key);
  const auto sslot_idx = sidx->latest_done_slot();
  if (!sslot_idx.has_value()) co_return 0;
  const SlotHeader sslot = sidx->slot(*sslot_idx);
  if (sslot.data_offset == 0) co_return 0;

  // Only a version with a valid, epoch-matching CRC block moves; the block
  // travels with the bytes and certifies the destination copy below.
  auto proof = verify_slot(*sidx, *sslot_idx, /*scrub_bytes=*/false);
  if (!proof.ok()) co_return 0;

  // Destination: a copy dst has never held gets a record with the source's
  // layout and shard identity first; then the index accessor serves it.
  if (!dst.model_table().lookup(key).has_value()) {
    RegisterModelMsg reg;
    reg.model_name = key;
    reg.phantom = sidx->phantom();
    reg.shard_id = sidx->shard_id();
    reg.shard_count = sidx->shard_count();
    reg.replica = replica;
    reg.replica_count = sidx->replica_count();
    reg.placement_epoch = sidx->placement_epoch();
    reg.manifest = sidx->manifest();
    for (const auto& t : sidx->tensors()) {
      reg.tensors.push_back(
          TensorDesc{.name = t.name, .dtype = t.dtype, .shape = t.shape, .size = t.size});
    }
    const auto created =
        MIndex::create(dst.device(), dst.allocator(), reg, dst.config().coalesce_threshold);
    dst.model_table().insert(key, created.record_offset());
  }
  auto didx = dst.index(key);
  if (didx->tensors().size() != sidx->tensors().size()) co_return 0;

  // Stream into the write slot under the checkpoint persist discipline:
  // ACTIVE -> chunked data persists -> payload-CRC block -> DONE at the
  // SOURCE epoch (the epoch is carried, not minted).
  didx->ensure_slot(didx->pick_write_slot(), dst.allocator());
  auto txn = CheckpointTxn::begin(*didx, sslot.epoch);
  const Bytes dbase = txn.data_offset();

  Bytes streamed = 0;
  for (std::size_t i = 0; i < sidx->tensors().size(); ++i) {
    const auto& st = sidx->tensors()[i];
    const auto& dt = didx->tensors()[i];
    for (Bytes off = 0; off < st.size; off += config_.stream_chunk) {
      const Bytes n = std::min(config_.stream_chunk, st.size - off);
      mem::copy_bytes(dst.device(), dbase + dt.offset_in_slot + off, src.device(),
                      sslot.data_offset + st.offset_in_slot + off, n);
      dst.device().persist(dbase + dt.offset_in_slot + off, n);
      const Duration wire{static_cast<Duration::rep>(static_cast<double>(n) * 8.0 /
                                                     config_.stream_gbps)};
      co_await engine_.sleep(wire);
      streamed += n;
    }
  }

  // The copy is committed only if its bytes match the block it carries: a
  // source tensor that rotted after its own commit must not land DONE here
  // under that block. The abandoned slot stays ACTIVE, as after a crash.
  scrub(*didx, txn.slot(), proof);
  if (!proof.ok()) {
    PLOG_INFO(kLog, "migration of {} epoch {} abandoned: {}", key, sslot.epoch,
              proof.failure(*didx, txn.slot()));
    co_return 0;
  }
  txn.commit(proof.crcs);
  if (src.model_table().is_finished(key)) dst.model_table().set_finished(key);

  PLOG_DEBUG(kLog, "migrated {} epoch {}: {} -> {} ({} B)", key, sslot.epoch,
             src.config().endpoint, dst.config().endpoint, streamed);
  co_return streamed;
}

sim::SubTask<std::uint64_t> ElasticCluster::stream_to_plan(const Membership& m) {
  // Discover every sharded model any live member holds, with the placement
  // inputs its persisted manifest carries (a shard's tensor cut is a pure
  // function of (sizes, shard_count), so one manifest describes them all).
  struct ModelInfo {
    std::vector<Bytes> sizes;
    std::uint32_t shard_count = 0;
    std::uint32_t replicas = 0;
    std::uint64_t placement_epoch = 0;
  };
  std::map<std::string, ModelInfo> models;
  for (auto* d : serving(m)) {
    for (const auto& key : d->model_table().names()) {
      const auto cut = key.find("#s");
      if (cut == std::string::npos) continue;
      if (models.count(key.substr(0, cut)) != 0) continue;
      try {
        auto idx = d->index(key);
        if (idx->manifest().empty()) continue;
        const auto mf = ShardManifest::decode(idx->manifest());
        ModelInfo info;
        info.sizes.reserve(mf.tensors.size());
        for (const auto& t : mf.tensors) info.sizes.push_back(t.size);
        info.shard_count = mf.shard_count != 0 ? mf.shard_count : mf.daemon_count;
        info.replicas = mf.replicas != 0 ? mf.replicas : config_.replicas;
        info.placement_epoch = mf.placement_epoch;
        models.emplace(mf.model_name, std::move(info));
      } catch (const std::exception&) {
        continue;  // torn copy: another member's manifest will describe it
      }
    }
  }

  const auto active = m.active_positions();
  std::uint64_t moved = 0;
  for (const auto& [model, info] : models) {
    const auto plan = Placement::compute_over(
        model, info.sizes, info.shard_count,
        static_cast<std::uint32_t>(m.members.size()), active, info.replicas,
        info.placement_epoch);
    for (std::uint32_t s = 0; s < plan.shard_daemons.size(); ++s) {
      if (plan.shard_tensors[s].empty()) continue;
      const std::string key = shard_key(model, s);

      // Source: the live member holding the newest DONE epoch of this
      // shard (DRAINING members still serve as sources).
      PortusDaemon* src = nullptr;
      std::uint64_t src_epoch = 0;
      for (auto* d : serving(m)) {  // re-read: a member may die mid-stream
        const auto e = done_epoch(*d, key);
        if (e.has_value() && (src == nullptr || *e > src_epoch)) {
          src = d;
          src_epoch = *e;
        }
      }
      if (src == nullptr) continue;  // nothing committed anywhere yet

      const auto& ring = plan.shard_daemons[s];
      for (std::uint32_t r = 0; r < ring.size(); ++r) {
        auto* d = daemon(m.members[ring[r]].endpoint);
        if (d == nullptr || d->killed()) continue;
        const auto have = done_epoch(*d, key);
        if (have.has_value() && *have >= src_epoch) continue;  // already current
        const Bytes n = co_await migrate_copy(*src, *d, key, r);
        if (n == 0) continue;
        ++moved;
        ++stats_.copies_moved;
        stats_.bytes_streamed += n;
        if (migrated_models_.insert(model).second) ++stats_.models_migrated;
      }
    }
  }
  co_return moved;
}

sim::SubTask<> ElasticCluster::rebalance_to(Membership target) {
  PORTUS_CHECK(membership_.epoch != 0, "seal() the ring before resizing it");

  // Phase 1: pre-copy toward the target placement. Clients keep running
  // against the current epoch the whole time.
  co_await stream_to_plan(target);

  // Phase 2: relocation barrier. Admissions pause on every live daemon
  // (no new checkpoints start mid-switch), the target membership installs
  // under a bumped epoch, the daemons learn it (stale requests now bounce
  // with EpochMismatch), and admissions resume.
  const Time barrier_start = engine_.now();
  const auto live = serving(target);
  for (auto* d : live) d->admission()->pause();
  target.epoch = membership_.epoch + 1;
  membership_ = std::move(target);
  ++stats_.epoch_bumps;
  push_epoch();
  for (auto* d : live) d->admission()->resume();
  ++stats_.barriers;
  stats_.barrier_time += engine_.now() - barrier_start;
  PLOG_INFO(kLog, "membership epoch {} installed ({} active members)", membership_.epoch,
            membership_.active_positions().size());

  // Settle: ops admitted before the barrier may still commit on the old
  // placement; give them a grace period and re-stream their commits until
  // a full round moves nothing — only then is every acked epoch reachable
  // under the new membership.
  for (int round = 0; round < config_.max_restream_rounds; ++round) {
    const Duration grace = config_.drain_grace;
    co_await engine_.sleep(grace);
    const auto moved = co_await stream_to_plan(membership_);
    if (moved == 0) break;
  }
}

sim::SubTask<> ElasticCluster::join(const std::string& endpoint, PortusDaemon& daemon) {
  PORTUS_CHECK_ARG(membership_.find(endpoint) == nullptr,
                   "member already known: " + endpoint);
  daemons_[endpoint] = &daemon;
  membership_.members.push_back(Member{endpoint, MemberState::kJoining});
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kActive;
  PLOG_INFO(kLog, "{} joining (ring position {})", endpoint,
            membership_.members.size() - 1);
  co_await rebalance_to(std::move(target));
}

sim::SubTask<> ElasticCluster::drain(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state == MemberState::kActive,
                   "only an ACTIVE member can drain: " + endpoint);
  PORTUS_CHECK(membership_.active_positions().size() > 1,
               "cannot drain the last ACTIVE member");
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kDraining;
  PLOG_INFO(kLog, "{} draining", endpoint);
  co_await rebalance_to(std::move(target));
}

void ElasticCluster::decommission(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state == MemberState::kDraining,
                   "decommission requires a completed drain: " + endpoint);
  member->state = MemberState::kDown;
  ++membership_.epoch;
  ++stats_.epoch_bumps;
  push_epoch();
  PLOG_INFO(kLog, "{} decommissioned (epoch {})", endpoint, membership_.epoch);
}

sim::SubTask<> ElasticCluster::repair(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state != MemberState::kDown,
                   "member already DOWN: " + endpoint);
  PORTUS_CHECK(membership_.active_positions().size() > 1,
               "cannot declare the last ACTIVE member failed");
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kDown;
  PLOG_INFO(kLog, "{} declared permanently failed; re-replicating", endpoint);
  const std::uint64_t before = stats_.copies_moved;
  co_await rebalance_to(std::move(target));
  stats_.repaired_copies += stats_.copies_moved - before;
}

}  // namespace portus::core::cluster
