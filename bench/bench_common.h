// Shared scaffolding for the per-figure benchmark binaries.
//
// Every binary reproduces one table/figure of the paper: it builds the
// simulated testbed, drives the relevant workload, and prints the same rows
// or series the paper reports, with the paper's reference values alongside
// (see EXPERIMENTS.md for the full comparison).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/checkfreq.h"
#include "baselines/torch_save.h"
#include "common/strformat.h"
#include "core/async_coordinator.h"
#include "core/client.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "dnn/parallel.h"
#include "dnn/training.h"
#include "net/cluster.h"
#include "storage/beegfs.h"
#include "storage/ext4_nvme.h"

namespace portus::bench {

// One fully wired testbed: paper cluster + Portus daemon + BeeGFS server +
// local NVMe filesystems on the compute nodes.
struct World {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(engine);
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;
  std::unique_ptr<storage::BeeGfsServer> beegfs_server;
  std::unique_ptr<storage::Ext4NvmeFs> volta_nvme;
  std::unique_ptr<storage::Ext4NvmeFs> ampere_nvme;

  explicit World(int daemon_workers = 8)
      : World(core::PortusDaemon::Config{.workers = daemon_workers}) {}

  explicit World(core::PortusDaemon::Config config) {
    daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                  rendezvous, std::move(config));
    daemon->start();
    beegfs_server = std::make_unique<storage::BeeGfsServer>(cluster->node("server"));
    volta_nvme = std::make_unique<storage::Ext4NvmeFs>(engine, "volta/ext4-nvme");
    ampere_nvme = std::make_unique<storage::Ext4NvmeFs>(engine, "ampere/ext4-nvme");
  }
  ~World() { engine.shutdown(); }

  net::Node& volta() { return cluster->node("client-volta"); }
  net::Node& ampere() { return cluster->node("client-ampere"); }
  net::Node& server() { return cluster->node("server"); }

  // Run one coroutine to completion on a fresh slice of virtual time.
  void run(sim::Process p) {
    auto proc = engine.spawn(std::move(p));
    engine.run();
    proc.check();  // surface failures loudly
  }
};

// A GPT job shard: one rank's model + its Portus client or BeeGFS mount.
struct GptRank {
  dnn::ShardSpec shard;
  gpu::GpuDevice* gpu = nullptr;
  net::Node* node = nullptr;
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::PortusClient> portus;
  std::unique_ptr<storage::BeeGfsMount> beegfs;
};

// Partition `spec` TP=8 x PP=2 across the two client nodes (8 GPUs each in
// the paper's GPT runs) and connect the chosen backends.
std::vector<GptRank> make_gpt_ranks(World& world, const dnn::ModelSpec& spec,
                                    bool with_portus, bool with_beegfs);

// Register all ranks with the daemon (must precede checkpoints).
sim::Process register_all(std::vector<GptRank>& ranks);

// Concurrent checkpoint of every rank's shard; returns the slowest rank's time.
sim::SubTask<Duration> checkpoint_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration);
// Concurrent restore (Portus).
sim::SubTask<Duration> restore_all(sim::Engine& engine, std::vector<GptRank>& ranks);

// Concurrent torch.save of every rank's shard to BeeGFS; slowest rank's time.
sim::SubTask<Duration> torch_save_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration);

// Where a bench drops its JSON artifact (BENCH_*.json, trace timelines):
// `bench/results/<filename>` under the current working directory — a
// gitignored spot when run from the repo root — creating the directory on
// first use. Override the directory with $PORTUS_BENCH_RESULTS.
std::string results_path(const std::string& filename);

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "paper reference: " << paper_ref << "\n\n";
}

inline double ratio(Duration a, Duration b) { return to_seconds(a) / to_seconds(b); }

// Paper-claims gate of the per-model speedup figures (Fig. 11/12): the
// mean speedup must sit within ±15% of the paper's and the largest must
// fall on `paper_max_model`. Returns the process exit code (0 = claim
// holds) and names the broken claim on stderr, leaving stdout untouched.
inline int speedup_gate(double mean, double paper_mean, const std::string& max_model,
                        const std::string& paper_max_model) {
  constexpr double kTolerance = 0.15;
  const bool mean_ok = mean >= paper_mean * (1.0 - kTolerance) &&
                       mean <= paper_mean * (1.0 + kTolerance);
  if (!mean_ok) {
    std::cerr << strf("claims gate: mean speedup {:.2f}x outside {:.2f}x +-15%\n", mean,
                      paper_mean);
  }
  if (max_model != paper_max_model) {
    std::cerr << strf("claims gate: max speedup on {}, paper has it on {}\n", max_model,
                      paper_max_model);
  }
  return mean_ok && max_model == paper_max_model ? 0 : 1;
}

}  // namespace portus::bench
