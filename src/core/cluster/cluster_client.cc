#include "core/cluster/cluster_client.h"

#include <algorithm>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/strformat.h"

namespace portus::core::cluster {

namespace {
constexpr const char* kLog = "cluster-client";
}

ClusterClient::ClusterClient(net::Cluster& cluster, net::Node& client_node,
                             gpu::GpuDevice& gpu, QpRendezvous& rendezvous, Config config)
    : cluster_{cluster},
      node_{client_node},
      gpu_{gpu},
      rendezvous_{rendezvous},
      config_{std::move(config)} {
  PORTUS_CHECK_ARG(!config_.endpoints.empty() || config_.membership != nullptr,
                   "cluster client needs daemon endpoints or a membership source");
  PORTUS_CHECK_ARG(config_.replicas >= 1, "replication factor must be >= 1");
  for (const auto& ep : config_.endpoints) lane_for(ep);
}

std::string ClusterClient::copy_key(const std::string& endpoint,
                                    std::uint32_t shard) const {
  return strf("{}|{}", endpoint, shard);
}

std::unique_ptr<PortusClient> ClusterClient::make_lane_client(const std::string& endpoint) {
  auto client = std::make_unique<PortusClient>(cluster_, node_, gpu_, rendezvous_, endpoint,
                                               config_.stripes);
  client->set_op_timeout(config_.op_timeout);
  client->set_tenant(config_.tenant);
  client->set_retry_policy(config_.retry);
  return client;
}

ClusterClient::Lane& ClusterClient::lane_for(const std::string& endpoint) {
  if (const auto it = lane_by_endpoint_.find(endpoint); it != lane_by_endpoint_.end()) {
    return *lanes_[it->second];
  }
  auto lane = std::make_unique<Lane>();
  lane->endpoint = endpoint;
  lane->client = make_lane_client(endpoint);
  lane_by_endpoint_.emplace(endpoint, lanes_.size());
  lanes_.push_back(std::move(lane));
  return *lanes_.back();
}

void ClusterClient::mark_lane_down(Lane& lane) {
  if (!lane.up) return;
  lane.up = false;
  ++stats_.lane_failures;
  // A down lane's registrations are void: if it ever comes back it gets a
  // fresh client (new datapath QPs), so everything must re-register.
  const std::string prefix = lane.endpoint + "|";
  for (auto it = registered_keys_.begin(); it != registered_keys_.end();) {
    if (it->rfind(prefix, 0) == 0) {
      it = registered_keys_.erase(it);
    } else {
      ++it;
    }
  }
  PLOG_INFO(kLog, "lane {} marked down", lane.endpoint);
}

sim::SubTask<> ClusterClient::epoch_backoff(int attempt) {
  const BackoffPolicy policy{.base = config_.retry.base_backoff,
                             .max = config_.retry.max_backoff};
  const Duration wait = jittered_backoff(policy, attempt, jitter_);
  co_await cluster_.engine().sleep(wait);
}

sim::Process ClusterClient::lane_register(Lane& lane, bool* stale) {
  try {
    if (!lane.client->connected()) co_await lane.client->connect();
    for (const auto id : lane.copy_ids) {
      auto& copy = copies_[id];
      if (copy.registered) continue;
      PortusClient::ShardBinding binding;
      binding.reg_name = shard_key(model_name_, copy.shard);
      binding.tensor_indices = plan_.shard_tensors[copy.shard];
      binding.shard_id = copy.shard;
      binding.shard_count = static_cast<std::uint32_t>(plan_.shard_tensors.size());
      binding.replica = copy.replica;
      binding.replica_count =
          static_cast<std::uint32_t>(plan_.shard_daemons[copy.shard].size());
      binding.placement_epoch = plan_.placement_epoch;
      binding.manifest = manifest_.encode();
      co_await lane.client->register_shard(*model_, std::move(binding));
      copy.registered = true;
      registered_keys_.insert(copy_key(lane.endpoint, copy.shard));
    }
  } catch (const EpochMismatch& e) {
    PLOG_INFO(kLog, "registration on {} raced a resize: {}", lane.endpoint, e.what());
    *stale = true;
  } catch (const std::exception& e) {
    PLOG_INFO(kLog, "registration on {} failed: {}", lane.endpoint, e.what());
    mark_lane_down(lane);
  }
}

sim::SubTask<> ClusterClient::resolve_placement() {
  for (int attempt = 0;; ++attempt) {
    // 1. Snapshot the authoritative membership (or fake an all-ACTIVE one
    //    from the static endpoint list).
    std::vector<MemberState> states;
    std::vector<std::uint32_t> active;
    if (config_.membership != nullptr) {
      const Membership& mem = config_.membership->membership();
      membership_epoch_ = mem.epoch;
      ring_endpoints_.clear();
      states.clear();
      for (const auto& m : mem.members) {
        ring_endpoints_.push_back(m.endpoint);
        states.push_back(m.state);
      }
      active = mem.active_positions();
    } else {
      ring_endpoints_ = config_.endpoints;
      states.assign(ring_endpoints_.size(), MemberState::kActive);
      active.resize(ring_endpoints_.size());
      for (std::uint32_t i = 0; i < active.size(); ++i) active[i] = i;
    }
    PORTUS_CHECK(!active.empty(),
                 strf("cluster for {} has no ACTIVE member to place on", model_name_));
    if (effective_shard_count_ == 0) {
      effective_shard_count_ = config_.shard_count != 0
                                   ? config_.shard_count
                                   : static_cast<std::uint32_t>(active.size());
    }

    // 2. Carry the acked-epoch floor per shard across the rebuild: a new
    //    placement must never let a restore land below what we were acked.
    std::vector<std::uint64_t> floor(effective_shard_count_, 0);
    if (shard_floor_.size() == floor.size()) floor = shard_floor_;
    for (const auto& c : copies_) floor[c.shard] = std::max(floor[c.shard], c.epoch);
    shard_floor_ = std::move(floor);

    // 3. Recompute plan + manifest against the current members.
    plan_ = Placement::compute_over(model_name_, tensor_sizes_, effective_shard_count_,
                                    static_cast<std::uint32_t>(ring_endpoints_.size()),
                                    active, config_.replicas, config_.placement_epoch);
    manifest_ = ShardManifest::from_plan(plan_, ring_endpoints_, tensor_names_,
                                         tensor_sizes_);
    manifest_.membership_epoch = membership_epoch_;
    manifest_.member_states = states;

    // 4. Rebuild the copy table, opening/reviving lanes as the placement
    //    needs them. Plans only target ACTIVE positions, so a down lane
    //    placed on here is a daemon that came back (or just joined): it has
    //    no memory of the old session, so it gets a fresh client.
    copies_.clear();
    for (auto& lane : lanes_) lane->copy_ids.clear();
    for (std::uint32_t s = 0; s < plan_.shard_daemons.size(); ++s) {
      if (plan_.shard_tensors[s].empty()) continue;
      const auto& ring = plan_.shard_daemons[s];
      for (std::uint32_t r = 0; r < ring.size(); ++r) {
        const auto pos = ring[r];
        Lane& lane = lane_for(ring_endpoints_[pos]);
        if (!lane.up) {
          lane.client = make_lane_client(lane.endpoint);
          lane.up = true;
          ++stats_.lane_revivals;
          PLOG_INFO(kLog, "lane {} revived by re-resolve", lane.endpoint);
        }
        Copy copy{.shard = s,
                  .replica = r,
                  .member = pos,
                  .lane = lane_by_endpoint_.at(lane.endpoint)};
        copy.registered = registered_keys_.count(copy_key(lane.endpoint, s)) != 0;
        lanes_[copy.lane]->copy_ids.push_back(copies_.size());
        copies_.push_back(copy);
      }
    }
    for (auto& lane : lanes_) lane->client->set_membership_epoch(membership_epoch_);

    // 5. Register whatever the new placement put somewhere new.
    bool stale = false;
    std::vector<sim::Process> procs;
    procs.reserve(lanes_.size());
    for (auto& lane : lanes_) {
      const bool needs =
          std::any_of(lane->copy_ids.begin(), lane->copy_ids.end(),
                      [&](std::size_t id) { return !copies_[id].registered; });
      if (!needs) continue;
      auto p = lane_register(*lane, &stale);
      procs.push_back(cluster_.engine().spawn(std::move(p)));
    }
    for (auto& p : procs) co_await p.join();  // lane errors are absorbed in-lane

    if (stale) {
      // The membership moved again while we were registering against it.
      PORTUS_CHECK(attempt < config_.max_epoch_retries,
                   strf("placement of {} cannot settle: membership kept moving",
                        model_name_));
      ++stats_.epoch_reresolutions;
      co_await epoch_backoff(attempt);
      continue;
    }

    // Tolerate dead lanes only while every shard keeps >= 1 registered copy.
    for (std::uint32_t s = 0; s < plan_.shard_tensors.size(); ++s) {
      if (plan_.shard_tensors[s].empty()) continue;
      const bool covered =
          std::any_of(copies_.begin(), copies_.end(), [&](const Copy& c) {
            return c.shard == s && c.registered && lanes_[c.lane]->up;
          });
      if (!covered) {
        throw ResourceExhausted(
            strf("shard {} of {} has no live daemon; cannot register", s, model_name_));
      }
    }
    PLOG_DEBUG(kLog, "placed {} over {} members (epoch {}, {} copies, R={})", model_name_,
               active.size(), membership_epoch_, copies_.size(), config_.replicas);
    co_return;
  }
}

sim::SubTask<> ClusterClient::register_model(dnn::Model& model) {
  PORTUS_CHECK(!registered_, "cluster client already holds a registered model");
  model_ = &model;
  model_name_ = model.name();

  auto& tensors = model.tensors();
  tensor_sizes_.clear();
  tensor_names_.clear();
  tensor_sizes_.reserve(tensors.size());
  tensor_names_.reserve(tensors.size());
  for (auto& t : tensors) {
    tensor_sizes_.push_back(t.byte_size());
    tensor_names_.push_back(t.name());
  }

  co_await resolve_placement();
  registered_ = true;
}

sim::SubTask<> ClusterClient::refresh_placement() {
  PORTUS_CHECK(registered_, "register_model before refresh_placement");
  co_await resolve_placement();
}

sim::Process ClusterClient::lane_checkpoint(Lane& lane, std::uint64_t iteration,
                                            std::uint64_t* round_max,
                                            std::vector<bool>* shard_ok, bool* any_miss,
                                            bool* stale) {
  for (const auto id : lane.copy_ids) {
    auto& copy = copies_[id];
    if (!copy.registered || !lane.up) {
      *any_miss = true;
      continue;
    }
    try {
      const std::string key = shard_key(model_name_, copy.shard);
      const auto epoch = co_await lane.client->checkpoint_named(key, iteration);
      copy.epoch = epoch;
      (*shard_ok)[copy.shard] = true;
      *round_max = std::max(*round_max, epoch);
    } catch (const EpochMismatch& e) {
      // The round is void, not failed: the caller re-resolves placement and
      // replays the whole round against the new membership.
      PLOG_INFO(kLog, "checkpoint of shard {} on {} hit a resize: {}", copy.shard,
                lane.endpoint, e.what());
      *stale = true;
      break;
    } catch (const Disconnected& e) {
      PLOG_INFO(kLog, "checkpoint of shard {} on {} lost: {}", copy.shard, lane.endpoint,
                e.what());
      mark_lane_down(lane);
      *any_miss = true;
    } catch (const std::exception& e) {
      PLOG_INFO(kLog, "checkpoint of shard {} on {} failed: {}", copy.shard, lane.endpoint,
                e.what());
      *any_miss = true;
    }
  }
}

sim::SubTask<ClusterClient::CheckpointResult> ClusterClient::checkpoint_round(
    std::uint64_t iteration, bool* stale) {
  std::vector<bool> shard_ok(plan_.shard_tensors.size(), false);
  bool any_miss = false;
  std::uint64_t round_max = 0;

  std::vector<sim::Process> procs;
  procs.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    if (lane->copy_ids.empty()) continue;
    auto p = lane_checkpoint(*lane, iteration, &round_max, &shard_ok, &any_miss, stale);
    procs.push_back(cluster_.engine().spawn(std::move(p)));
  }
  for (auto& p : procs) co_await p.join();

  if (*stale) co_return CheckpointResult{};  // round void, caller replays it

  for (std::uint32_t s = 0; s < plan_.shard_tensors.size(); ++s) {
    if (plan_.shard_tensors[s].empty()) continue;
    if (!shard_ok[s]) {
      throw ResourceExhausted(
          strf("checkpoint iteration {} lost shard {} of {}: no copy committed", iteration,
               s, model_name_));
    }
  }

  ++stats_.checkpoints;
  stats_.last_epoch = std::max(stats_.last_epoch, round_max);
  if (any_miss) ++stats_.degraded_checkpoints;
  co_return CheckpointResult{.epoch = round_max, .degraded = any_miss};
}

template <typename Result, typename Round>
sim::SubTask<Result> ClusterClient::settle(const char* op, Round round) {
  PORTUS_CHECK(registered_, strf("register_model before {}", op));
  for (int attempt = 0;; ++attempt) {
    bool stale = false;
    const Result result = co_await round(&stale);
    if (!stale) co_return result;
    PORTUS_CHECK(attempt < config_.max_epoch_retries,
                 strf("{} of {} cannot settle: membership kept moving", op, model_name_));
    ++stats_.epoch_reresolutions;
    co_await epoch_backoff(attempt);
    co_await resolve_placement();
  }
}

sim::SubTask<ClusterClient::CheckpointResult> ClusterClient::checkpoint(
    std::uint64_t iteration) {
  return settle<CheckpointResult>("checkpoint", [this, iteration](bool* stale) {
    return checkpoint_round(iteration, stale);
  });
}

sim::Process ClusterClient::lane_restore(Lane& lane, std::vector<RestoreJob*> jobs,
                                         std::uint64_t* max_epoch, bool* stale) {
  for (auto* job : jobs) {
    if (!lane.up) break;  // lane died earlier in this wave
    auto& copy = copies_[job->copy_id];
    try {
      const std::string key = shard_key(model_name_, copy.shard);
      const auto epoch = co_await lane.client->restore_named(key, job->required_epoch);
      job->done = true;
      copy.epoch = std::max(copy.epoch, epoch);
      *max_epoch = std::max(*max_epoch, epoch);
    } catch (const EpochMismatch& e) {
      PLOG_INFO(kLog, "restore of shard {} from {} hit a resize: {}", copy.shard,
                lane.endpoint, e.what());
      *stale = true;
      break;
    } catch (const Disconnected& e) {
      PLOG_INFO(kLog, "restore of shard {} from {} lost: {}", copy.shard, lane.endpoint,
                e.what());
      mark_lane_down(lane);
    } catch (const std::exception& e) {
      // Stale epoch (daemon refused the floor) or missing record: this copy
      // is unusable, the wave loop moves to the next one.
      PLOG_INFO(kLog, "restore of shard {} from {} refused: {}", copy.shard, lane.endpoint,
                e.what());
    }
  }
}

sim::SubTask<ClusterClient::RestoreResult> ClusterClient::restore_round(bool* stale) {
  const auto shard_count = plan_.shard_tensors.size();

  // Replica-epoch floor: a copy that missed later checkpoints (its daemon
  // was down or hung for them) holds stale data, and its daemon refuses to
  // serve below this floor — the shard then re-routes to a fresh copy. The
  // floor survives placement rebuilds via shard_floor_ (acked epochs must
  // stay reachable across resizes).
  std::vector<std::uint64_t> target(shard_count, 0);
  if (shard_floor_.size() == shard_count) target = shard_floor_;
  for (const auto& c : copies_) {
    target[c.shard] = std::max(target[c.shard], c.epoch);
  }

  std::vector<bool> done(shard_count, false);
  std::vector<bool> tried(copies_.size(), false);
  bool degraded = false;
  std::uint32_t rerouted = 0;
  std::uint64_t max_epoch = 0;

  while (true) {
    // Assign every unrestored shard its next untried live copy, in manifest
    // (primary-first) order.
    std::vector<RestoreJob> jobs;
    std::vector<std::uint32_t> job_shard;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      if (done[s] || plan_.shard_tensors[s].empty()) continue;
      std::optional<std::size_t> pick;
      for (std::size_t id = 0; id < copies_.size(); ++id) {
        const auto& c = copies_[id];
        if (c.shard != s || tried[id] || !c.registered || !lanes_[c.lane]->up) continue;
        if (!pick.has_value() || c.replica < copies_[*pick].replica) pick = id;
      }
      if (!pick.has_value()) {
        throw NotFound(strf("no live copy of shard {} of {} at epoch >= {}", s, model_name_,
                            target[s]));
      }
      tried[*pick] = true;
      jobs.push_back(RestoreJob{.copy_id = *pick,
                                .required_epoch = target[s],
                                .done = false,
                                .rerouted = copies_[*pick].replica != 0});
      job_shard.push_back(s);
    }
    if (jobs.empty()) break;

    // Group this wave's jobs by lane; lanes run in parallel.
    std::map<std::size_t, std::vector<RestoreJob*>> by_lane;
    for (auto& job : jobs) by_lane[copies_[job.copy_id].lane].push_back(&job);
    std::vector<sim::Process> procs;
    procs.reserve(by_lane.size());
    for (auto& [lane_idx, lane_jobs] : by_lane) {
      auto p = lane_restore(*lanes_[lane_idx], lane_jobs, &max_epoch, stale);
      procs.push_back(cluster_.engine().spawn(std::move(p)));
    }
    for (auto& p : procs) co_await p.join();

    if (*stale) co_return RestoreResult{};  // round void, caller replays it

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!jobs[j].done) {
        degraded = true;  // this shard needed (at least) another wave
        continue;
      }
      done[job_shard[j]] = true;
      if (jobs[j].rerouted) {
        degraded = true;
        ++rerouted;
      }
    }
  }

  ++stats_.restores;
  if (degraded) ++stats_.degraded_restores;
  stats_.rerouted_shards += rerouted;
  stats_.last_epoch = std::max(stats_.last_epoch, max_epoch);
  co_return RestoreResult{.epoch = max_epoch, .degraded = degraded,
                          .rerouted_shards = rerouted};
}

sim::SubTask<ClusterClient::RestoreResult> ClusterClient::restore() {
  return settle<RestoreResult>("restore",
                               [this](bool* stale) { return restore_round(stale); });
}

}  // namespace portus::core::cluster
