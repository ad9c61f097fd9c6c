// ElasticCluster: the membership controller + online shard migrator of an
// elastic Portus-Cluster.
//
// Owns the authoritative Membership (epoch + member set + lifecycle states)
// and implements every resize step as a crash-consistent two-phase move:
//
//   1. PRE-COPY: compute the placement the *target* membership implies and
//      stream every missing shard copy daemon-to-daemon (PMEM to PMEM over
//      the simulated fabric) while clients keep checkpointing against the
//      old epoch. Each streamed copy lands through the same double-mapping
//      discipline as a checkpoint — ACTIVE flag, chunked data persists,
//      payload-CRC block, then the DONE flip carrying the SOURCE epoch — so
//      a power cut at any persist fence leaves the destination image
//      fsck-clean and the source untouched.
//   2. BARRIER: pause admissions on every live daemon (PR 6 relocation
//      barrier), install the target membership with a bumped epoch, push
//      the new epoch to the daemons (they now bounce stale requests with
//      EpochMismatch), resume admissions. Short settle rounds then
//      re-stream whatever committed between the pre-copy and the bump, so
//      every epoch acked under the old membership is reachable under the
//      new one before a drained member may be decommissioned.
//
// Clients react to the bump via EpochMismatch -> refetch membership() ->
// re-resolve placement (cluster_client.h); a 1 -> 4 -> 2 resize under load
// costs retries, never failed ops.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cluster/membership.h"
#include "core/daemon/daemon.h"
#include "sim/engine.h"

namespace portus::core::cluster {

class ElasticCluster final : public MembershipSource {
 public:
  struct Config {
    std::uint32_t replicas = 2;     // copies per shard the migrator maintains
    Bytes stream_chunk = 256_KiB;   // per-chunk copy+persist granule
    double stream_gbps = 6.0;       // daemon-to-daemon streaming bandwidth
    // Settle-round grace: how long to let in-flight (pre-barrier) ops land
    // before re-streaming their commits to the new placement.
    Duration drain_grace{2'000'000};  // 2 ms
    int max_restream_rounds = 8;
  };

  struct Stats {
    std::uint64_t copies_moved = 0;     // shard copies streamed to a new home
    std::uint64_t models_migrated = 0;  // distinct models that moved at all
    Bytes bytes_streamed = 0;           // payload bytes across all moves
    std::uint64_t epoch_bumps = 0;
    std::uint64_t repaired_copies = 0;  // moves done re-replicating after failure
    std::uint64_t barriers = 0;
    Duration barrier_time{0};           // admissions-paused wall time, summed
  };

  ElasticCluster(sim::Engine& engine, Config config);
  explicit ElasticCluster(sim::Engine& engine) : ElasticCluster(engine, Config{}) {}

  // Initial ring construction: add every founding member ACTIVE, then
  // seal() to set epoch 1 and push it to the daemons. After seal, use
  // join()/drain()/decommission()/repair().
  void add_member(const std::string& endpoint, PortusDaemon& daemon);
  void seal();

  // Grow the ring: the new daemon starts JOINING (no placement routes to
  // it), receives its share of every model's shard copies, then goes ACTIVE
  // under a bumped epoch.
  sim::SubTask<> join(const std::string& endpoint, PortusDaemon& daemon);

  // Shrink, step 1: mark DRAINING (excluded from new placement), stream its
  // copies to the members that now own them, bump the epoch. The member
  // still serves restores for what it holds until decommission.
  sim::SubTask<> drain(const std::string& endpoint);

  // Shrink, step 2: a drained member leaves for good (DOWN, epoch bump).
  // Requires drain() to have completed — its data must already be homed
  // elsewhere, because nothing is streamed here.
  void decommission(const std::string& endpoint);

  // Permanent failure: declare a (crashed, unrecoverable) member DOWN and
  // re-replicate every shard copy it held from the surviving replicas.
  sim::SubTask<> repair(const std::string& endpoint);

  // MembershipSource: what ClusterClients re-resolve against.
  const Membership& membership() const override { return membership_; }

  PortusDaemon* daemon(const std::string& endpoint) const;
  const Stats& stats() const { return stats_; }

 private:
  // Stream every shard copy the plan implied by `m` wants but its owner
  // does not yet hold (at the source's epoch). Returns copies moved.
  sim::SubTask<std::uint64_t> stream_to_plan(const Membership& m);

  // Pre-copy toward `target`, then barrier-install it (epoch bump + push),
  // then settle-restream until a full round moves nothing.
  sim::SubTask<> rebalance_to(Membership target);

  // One copy: source daemon's newest DONE version of `key` streamed into
  // dst's write slot, committed at the source epoch if the bytes match the
  // source's CRC block. Returns payload bytes moved (0 = nothing moved).
  sim::SubTask<Bytes> migrate_copy(PortusDaemon& src, PortusDaemon& dst,
                                   const std::string& key, std::uint32_t replica);

  // Daemons of the non-DOWN members of `m` that are up, in ring order.
  std::vector<PortusDaemon*> serving(const Membership& m) const;
  void push_epoch();
  static std::optional<std::uint64_t> done_epoch(PortusDaemon& d, const std::string& key);

  sim::Engine& engine_;
  Config config_;
  Membership membership_;
  std::map<std::string, PortusDaemon*> daemons_;
  std::set<std::string> migrated_models_;
  Stats stats_;
};

}  // namespace portus::core::cluster
