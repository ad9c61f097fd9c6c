#include "core/portusctl.h"

#include "common/strformat.h"
#include "core/daemon/slots.h"

namespace portus::core {

std::vector<Portusctl::ModelInfo> Portusctl::view() {
  std::vector<ModelInfo> out;
  for (const auto& name : daemon_.model_table().names()) {
    auto index = daemon_.index(name);
    ModelInfo info;
    info.name = name;
    info.layers = index->tensors().size();
    info.slot_size = index->slot_size();
    info.phantom = index->phantom();
    for (int i = 0; i < 2; ++i) {
      info.slots[i] = SlotInfo{index->slot(i).state, index->slot(i).epoch};
    }
    info.restorable = index->latest_done_slot().has_value();
    out.push_back(std::move(info));
  }
  return out;
}

std::string Portusctl::render_view() {
  std::string out =
      strf("{:<24}{:>8}{:>12}  {:<16}{:<16}{}\n", "MODEL", "LAYERS", "SLOT-SIZE",
           "SLOT0", "SLOT1", "RESTORABLE");
  for (const auto& m : view()) {
    out += strf("{:<24}{:>8}{:>12}  {:<16}{:<16}{}\n", m.name, m.layers,
                format_bytes(m.slot_size),
                strf("{}@{}", to_string(m.slots[0].state), m.slots[0].epoch),
                strf("{}@{}", to_string(m.slots[1].state), m.slots[1].epoch),
                m.restorable ? "yes" : "NO");
  }
  return out;
}

std::string Portusctl::render_stats() {
  const auto& s = daemon_.stats();
  std::string out = "--- daemon ---\n";
  out += strf("{:<28}{}\n", "registrations", s.registrations);
  out += strf("{:<28}{}\n", "checkpoints", s.checkpoints);
  out += strf("{:<28}{}\n", "restores", s.restores);
  out += strf("{:<28}{}\n", "failed ops", s.failed_ops);
  out += strf("{:<28}{}\n", "bytes pulled", format_bytes(s.bytes_pulled));
  out += strf("{:<28}{}\n", "bytes pushed", format_bytes(s.bytes_pushed));
  out += "--- pipelined datapath ---\n";
  // Fleet-scale counters (chunks, WRs, doorbells) pass 7 digits long before
  // a daemon restarts; humanize them so the table stays column-aligned.
  out += strf("{:<28}{}\n", "chunks posted", format_count(s.chunks_posted));
  out += strf("{:<28}{} rdma / {} local\n", "chunk mix", format_count(s.rdma_chunks),
              format_count(s.local_chunks));
  out += strf("{:<28}{}\n", "rdma wrs posted", format_count(s.wrs_posted));
  out += strf("{:<28}{}\n", "extents coalesced", format_count(s.extents_coalesced));
  out += strf("{:<28}{:.2f}\n", "mean sges per wr",
              s.wrs_posted > 0
                  ? static_cast<double>(s.sges_posted) / static_cast<double>(s.wrs_posted)
                  : 0.0);
  out += strf("{:<28}{}\n", "bytes per wr",
              format_bytes(static_cast<Bytes>(s.bytes_per_wr())));
  out += strf("{:<28}{}\n", "peak window occupancy", s.peak_window);
  out += strf("{:<28}{:.2f}\n", "mean window occupancy", s.mean_window());
  out += strf("{:<28}{:.1f} us\n", "mean queue delay",
              to_seconds(s.mean_queue_delay()) * 1e6);
  out += strf("{:<28}{:.1f} us\n", "max queue delay",
              to_seconds(s.queue_delay_max) * 1e6);
  out += strf("{:<28}{}\n", "doorbells rung", format_count(s.doorbells));
  out += strf("{:<28}{:.2f}\n", "doorbells per window", s.doorbells_per_window());
  out += strf("{:<28}{:.2f}\n", "wrs per doorbell", s.wrs_per_doorbell());
  out += strf("{:<28}{}\n", "numa remote chunks", format_count(s.numa_remote_chunks));
  out += strf("{:<28}{}\n", "numa tax charged", format_bytes(s.numa_tax_bytes));
  out += "--- allocator shards ---\n";
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"SHARD", "NODE", "ENTRIES", "LIVE", "FREE", "S/M/L", "RSVD", "ALLOCS",
                  "FREES", "REFILLS", "STEALS", "XSTEAL", "CHUNK"});
  for (const auto& sh : daemon_.allocator().shard_stats()) {
    rows.push_back({strf("{}", sh.shard), strf("{}", sh.node),
                    strf("{}/{}", sh.entries, sh.capacity), format_bytes(sh.live),
                    format_bytes(sh.free_listed),
                    strf("{}/{}/{}", sh.free_small, sh.free_medium, sh.free_large),
                    format_bytes(sh.reserved), format_count(sh.allocs),
                    format_count(sh.frees), format_count(sh.refills),
                    format_count(sh.steals), format_count(sh.cross_steals),
                    format_bytes(sh.refill_chunk)});
  }
  out += format_table(rows, "<<>>>>>>>>>>>");
  return out;
}

std::string Portusctl::render_tenants() {
  std::string out = "--- tenants ---\n";
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"TENANT", "CLASS", "MODELS", "CHARGED", "CAPACITY", "RATE", "ADMITTED",
                  "REJECTED", "PACED", "QWAIT-MAX"});
  for (const Tenant* t : daemon_.tenants()->tenants()) {
    rows.push_back(
        {t->id, to_string(t->quota.priority), format_count(t->usage.models),
         format_bytes(t->usage.charged_bytes),
         t->quota.capacity_bytes > 0 ? format_bytes(t->quota.capacity_bytes) : "unlimited",
         t->quota.rate_bytes_per_sec > 0
             ? format_bandwidth(Bandwidth::bytes_per_sec(
                   static_cast<double>(t->quota.rate_bytes_per_sec)))
             : "unpaced",
         format_count(t->usage.admitted),
         format_count(t->usage.rejected + t->usage.quota_rejects),
         format_duration(t->usage.paced_total), format_duration(t->usage.queue_wait_max)});
  }
  out += format_table(rows, "<<>>>>>>>>");

  const AdmissionController& adm = *daemon_.admission();
  const auto& s = adm.stats();
  out += strf(
      "admission: {} inflight, {} queued, {} admitted, {} rejected, "
      "{} paced, {} pauses ({} paused)\n",
      adm.inflight(), adm.queued(), format_count(s.admitted), format_count(s.rejected),
      format_count(s.paced), s.pauses, format_duration(s.paused_total));
  return out;
}

std::string Portusctl::render_fsck(const Fsck::Report& r) {
  std::string out = strf("--- fsck ({}) ---\n", r.repaired ? "repair" : "verify-only");
  out += strf("{:<28}{}\n", "models scanned", r.models_scanned);
  out += strf("{:<28}{} shards, {} numa node{}, header {}\n", "alloc table",
              r.shard_tables, r.numa_nodes, r.numa_nodes == 1 ? "" : "s",
              r.alloc_header_valid ? "ok" : "INVALID");
  out += strf("{:<28}{}\n", "torn alloc entries", r.torn_entries);
  out += strf("{:<28}{}\n", "torn records", r.torn_records);
  out += strf("{:<28}{}\n", "ACTIVE slots demoted", r.active_demoted);
  out += strf("{:<28}{}\n", "corrupt slots demoted", r.corrupt_demoted);
  out += strf("{:<28}{}\n", "tensors failing CRC", r.corrupt_tensors);
  out += strf("{:<28}{}\n", "orphaned extents", r.orphaned_extents);
  out += strf("{:<28}{}\n", "overlap violations", r.overlap_violations);
  if (r.repaired) {
    out += strf("{:<28}{}\n", "bytes freed", format_bytes(r.freed));
    out += strf("{:<28}{}\n", "leaked bytes adopted", format_bytes(r.gaps_adopted));
    out += strf("{:<28}{}\n", "tail compacted", format_bytes(r.compacted));
  }
  out += strf("image {}\n", r.clean() ? "clean" : "had inconsistencies");
  return out;
}

sim::SubTask<storage::CheckpointFile> Portusctl::dump(const std::string& model_name) {
  auto ref = daemon_.index(model_name);
  const MIndex& index = *ref;

  const auto slot_idx = index.latest_done_slot();
  if (!slot_idx.has_value()) throw NotFound("no restorable version of " + model_name);
  const auto& slot = index.slot(*slot_idx);
  // The same proof restore demands: never export bytes the slot's
  // payload-CRC block does not vouch for.
  if (const auto proof = verify_slot(index, *slot_idx); !proof.ok()) {
    throw Corruption(proof.failure(index, *slot_idx));
  }

  auto& device = daemon_.device();
  auto& engine = daemon_.node().engine();

  storage::CheckpointFile file;
  file.model_name = model_name;

  Bytes total = 0;
  for (const auto& t : index.tensors()) total += t.size;

  // PMEM read of the whole slot + CPU packing into the container format —
  // this is the only place Portus ever serializes, and it is off the
  // training path (SS VI "Lessons", serialization only on archive/share).
  co_await daemon_.node().devdax_read_channel().transfer(total);
  co_await engine.sleep(daemon_.node().serialize_time(total));

  for (const auto& t : index.tensors()) {
    storage::SerializedTensor st;
    st.meta.name = t.name;
    st.meta.dtype = t.dtype;
    st.meta.shape = t.shape;
    if (!index.phantom()) {
      st.data = device.read(slot.data_offset + t.offset_in_slot, t.size);
    } else {
      st.data.assign(t.size, std::byte{0});
    }
    file.tensors.push_back(std::move(st));
  }
  co_return file;
}

sim::SubTask<Bytes> Portusctl::dump_to(const std::string& model_name,
                                       storage::CheckpointStorage& storage,
                                       std::string path) {
  auto file = co_await dump(model_name);
  const auto container = storage::CheckpointSerializer::serialize(file);
  co_await storage.write_file(std::move(path), container.size(), &container);
  co_return container.size();
}

}  // namespace portus::core
