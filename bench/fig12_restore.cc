// Fig. 12 — Restoring time per model x storage system.
//
// Baselines load with GPUDirect Storage enabled (file bytes bypass main
// memory) but still pay the structured-file deserialization (SS III-F);
// Portus pushes raw TensorData into GPU memory with one-sided WRITEs.
//
// Paper: Portus averages 5.15x over BeeGFS-PMEM and 3.83x over ext4-NVMe;
// ResNet50 peaks at 7.0x. The gains are smaller than checkpointing because
// GDS already removes the main-memory hop for the baselines.
#include "bench_common.h"

using namespace portus;

namespace {

struct Row {
  std::string model;
  Duration portus{0};
  Duration beegfs{0};
  Duration nvme{0};
};

Row measure(const std::string& name) {
  Row row;
  row.model = name;
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;

  {  // Portus: checkpoint once, then time the restore push.
    bench::World world;
    auto& gpu = world.volta().gpu(0);
    auto model = dnn::ModelZoo::create(gpu, name, opt);
    core::PortusClient client{*world.cluster, world.volta(), gpu, world.rendezvous};
    world.run([](sim::Engine& eng, core::PortusClient& c, dnn::Model& m,
                 Duration& out) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
      const Time t0 = eng.now();
      co_await c.restore(m);
      out = eng.now() - t0;
    }(world.engine, client, model, row.portus));
  }
  {  // BeeGFS-PMEM: torch.load with GDS.
    bench::World world;
    auto& gpu = world.volta().gpu(0);
    auto model = dnn::ModelZoo::create(gpu, name, opt);
    storage::BeeGfsMount mount{*world.cluster, world.volta(), *world.beegfs_server, "mnt0"};
    baselines::TorchSaveCheckpointer ckpt{world.volta(), gpu, mount};
    world.run([](baselines::TorchSaveCheckpointer& c, dnn::Model& m,
                 Duration& out) -> sim::Process {
      co_await c.checkpoint(m, "/ckpt/x.ptck");
      const auto t = co_await c.restore(m, "/ckpt/x.ptck", /*gpu_direct=*/true);
      out = t.total;
    }(ckpt, model, row.beegfs));
  }
  {  // ext4-NVMe: torch.load with GDS.
    bench::World world;
    auto& gpu = world.volta().gpu(0);
    auto model = dnn::ModelZoo::create(gpu, name, opt);
    baselines::TorchSaveCheckpointer ckpt{world.volta(), gpu, *world.volta_nvme};
    world.run([](baselines::TorchSaveCheckpointer& c, dnn::Model& m,
                 Duration& out) -> sim::Process {
      co_await c.checkpoint(m, "/ckpt/x.ptck");
      const auto t = co_await c.restore(m, "/ckpt/x.ptck", /*gpu_direct=*/true);
      out = t.total;
    }(ckpt, model, row.nvme));
  }
  return row;
}

}  // namespace

int main() {
  bench::print_header("Fig. 12: restoring time per model x storage system",
                      "Portus avg 5.15x over BeeGFS-PMEM, 3.83x over ext4-NVMe; "
                      "ResNet50 up to 7.0x; baselines use GPUDirect Storage");

  std::cout << strf("{:<16}{:>10}{:>14}{:>13}{:>12}{:>10}\n", "model", "Portus",
                    "BeeGFS-PMEM", "ext4-NVMe", "vs BeeGFS", "vs NVMe");
  double sum_beegfs = 0, sum_nvme = 0, max_beegfs = 0;
  std::string max_model;
  const auto names = dnn::ModelZoo::table2_names();
  for (const auto& name : names) {
    const auto row = measure(name);
    const double vs_beegfs = bench::ratio(row.beegfs, row.portus);
    const double vs_nvme = bench::ratio(row.nvme, row.portus);
    sum_beegfs += vs_beegfs;
    sum_nvme += vs_nvme;
    if (vs_beegfs > max_beegfs) {
      max_beegfs = vs_beegfs;
      max_model = name;
    }
    std::cout << strf("{:<16}{:>10}{:>14}{:>13}{:>11.2f}x{:>9.2f}x\n", name,
                      format_duration(row.portus), format_duration(row.beegfs),
                      format_duration(row.nvme), vs_beegfs, vs_nvme);
  }
  const auto n = static_cast<double>(names.size());
  std::cout << strf("\naverage speedup: {:.2f}x vs BeeGFS-PMEM (paper 5.15x), "
                    "{:.2f}x vs ext4-NVMe (paper 3.83x)\n",
                    sum_beegfs / n, sum_nvme / n);
  std::cout << strf("max speedup:     {:.2f}x on {} (paper: 7.0x on resnet50)\n", max_beegfs,
                    max_model);
  // Claims gate on the BeeGFS-PMEM column only: the ext4-NVMe ordering
  // deviates from the paper (D1 in EXPERIMENTS.md).
  return bench::speedup_gate(sum_beegfs / n, 5.15, max_model, "resnet50");
}
