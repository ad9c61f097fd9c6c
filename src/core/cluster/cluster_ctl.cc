#include "core/cluster/cluster_ctl.h"

#include <set>

#include "common/strformat.h"

namespace portus::core::cluster {

ClusterCtl::DaemonRow ClusterCtl::inspect(PortusDaemon& daemon) {
  DaemonRow row;
  row.endpoint = daemon.config().endpoint;
  row.up = !daemon.killed();

  std::set<std::string> models;
  for (const auto& name : daemon.model_table().names()) {
    auto index = daemon.index(name);
    if (index->sharded()) ++row.shard_copies;
    row.stored_bytes += index->slot_size();
    // Strip the "#s<k>" suffix of shard-scoped keys to count models once.
    const auto hash = name.rfind("#s");
    models.insert(hash == std::string::npos ? name : name.substr(0, hash));
  }
  row.models = models.size();

  row.membership_epoch = daemon.membership_epoch();

  row.stats = daemon.stats();
  for (const auto& sh : daemon.allocator().shard_stats()) {
    ++row.alloc_shards;
    row.alloc_refills += sh.refills;
    row.alloc_live += sh.live;
  }
  return row;
}

std::string ClusterCtl::render_status(std::span<PortusDaemon* const> daemons,
                                      const ClusterClient* client,
                                      const Membership* membership) {
  // Column widths fit the widest cell (format_table): fixed widths sheared
  // the whole table once a fleet-scale counter outgrew its column.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"DAEMON", "STATE", "EPOCH", "MSTATE", "SHARDS", "MODELS", "BYTES",
                  "REGS", "CKPTS", "RSTRS", "FAILED", "PIPELINE", "COALESCE", "DOORBELL",
                  "ARENAS"});
  std::size_t copies = 0;
  Bytes bytes = 0;
  for (auto* d : daemons) {
    const auto row = inspect(*d);
    copies += row.shard_copies;
    bytes += row.stored_bytes;
    const Member* member =
        membership != nullptr ? membership->find(row.endpoint) : nullptr;
    rows.push_back({row.endpoint, row.up ? "up" : "DOWN",
                    row.membership_epoch != 0 ? strf("{}", row.membership_epoch) : "-",
                    member != nullptr ? to_string(member->state) : "-",
                    strf("{}", row.shard_copies), strf("{}", row.models),
                    format_bytes(row.stored_bytes), format_count(row.stats.registrations),
                    format_count(row.stats.checkpoints), format_count(row.stats.restores),
                    format_count(row.stats.failed_ops),
                    // Pipeline occupancy (mean/peak), multi-tensor extents
                    // among the RDMA WRs, mean doorbells per admission burst.
                    strf("{:.2f}/{}", row.stats.mean_window(), row.stats.peak_window),
                    strf("{}/{}", format_count(row.stats.extents_coalesced),
                         format_count(row.stats.wrs_posted)),
                    strf("{:.2f}/w", row.stats.doorbells_per_window()),
                    // Allocator arenas: count, live bytes, reservation refills.
                    strf("{}x {} {}r", row.alloc_shards, format_bytes(row.alloc_live),
                         row.alloc_refills)});
  }
  std::string out = format_table(rows, "<<><>>>>>>>>>>>");
  out += strf("total: {} daemons, {} shard copies, {}\n", daemons.size(), copies,
              format_bytes(bytes));
  if (membership != nullptr) {
    out += strf("membership: epoch {}, {} members ({} active)\n", membership->epoch,
                membership->members.size(), membership->active_positions().size());
  }
  if (client != nullptr) {
    const auto& cs = client->stats();
    out += strf(
        "client: {} checkpoints ({} degraded), {} restores ({} degraded), "
        "{} shards re-routed, {} lane failures, {} epoch re-resolves, "
        "{} lane revivals, epoch {}\n",
        cs.checkpoints, cs.degraded_checkpoints, cs.restores, cs.degraded_restores,
        cs.rerouted_shards, cs.lane_failures, cs.epoch_reresolutions, cs.lane_revivals,
        cs.last_epoch);
  }
  return out;
}

}  // namespace portus::core::cluster
