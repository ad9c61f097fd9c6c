// Recovery latency: daemon restart plus a full fsck sweep vs image
// population.
//
// The paper's availability argument is that a crashed Portus daemon is back
// in service as soon as it re-reads the three-level index — no payload copy,
// no log replay. This bench registers n model instances (each its own
// ModelTable entry, MIndex record, and double-mapped slot pair), commits one
// epoch each, then measures on the host clock:
//
//   recover_ms  — PortusDaemon::recover(): ModelTable scan + allocator
//                 rebuild + session teardown. Metadata-proportional.
//   fsck_ms     — portusctl fsck verify pass: walks every MIndex record and
//                 re-CRCs every committed tensor payload. Payload-
//                 proportional — the price of a full integrity audit, paid
//                 only on demand, never on the restart path.
//
// Emits BENCH_recovery.json; the host-clock columns print to stderr, so
// stdout is identical across runs. Fails (exit 1) if a recover() ever
// costs more than a generous 250 ms bound (it must stay metadata-cheap
// even at 48 models) or if fsck misses that the store is clean.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "bench_common.h"
#include "core/daemon/fsck.h"

using namespace portus;

namespace {

struct Row {
  int models = 0;
  Bytes image_bytes = 0;   // allocator bump: everything laid out on PMEM
  double recover_ms = 0;
  double fsck_ms = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

Row measure(int n_models) {
  Row row{.models = n_models};
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  core::QpRendezvous rendezvous;
  auto daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                     rendezvous);
  daemon->start();

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "alexnet", opt);
  core::PortusClient client{*cluster, volta, volta.gpu(0), rendezvous};

  // Each instance registers the full tensor set under its own name — n
  // independent ModelTable entries backed by one set of GPU buffers.
  auto proc = eng.spawn([](core::PortusClient& c, dnn::Model& m, int n) -> sim::Process {
    co_await c.connect();
    for (int i = 0; i < n; ++i) {
      core::PortusClient::ShardBinding binding;
      binding.reg_name = strf("alexnet#{}", i);
      binding.tensor_indices.resize(m.tensors().size());
      std::iota(binding.tensor_indices.begin(), binding.tensor_indices.end(), 0u);
      co_await c.register_shard(m, std::move(binding));
      const auto epoch = co_await c.checkpoint_named(strf("alexnet#{}", i), 1);
      if (epoch != 1) throw Error("unexpected epoch in recovery bench");
    }
  }(client, model, n_models));
  eng.run();
  proc.check();
  row.image_bytes = daemon->allocator().bump();

  const auto t0 = std::chrono::steady_clock::now();
  daemon->recover();
  row.recover_ms = ms_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const auto report = core::Fsck{*daemon}.run(/*repair=*/false);
  row.fsck_ms = ms_since(t1);
  if (!report.clean() || report.models_scanned != n_models) {
    throw Error(strf("fsck after clean shutdown: {} models scanned, clean={}",
                     report.models_scanned, report.clean()));
  }

  eng.shutdown();
  return row;
}

}  // namespace

int main() {
  bench::print_header("recovery: restart + fsck latency vs PMEM image population",
                      "restart re-reads the index only (Sec. 4.4); integrity "
                      "audit (fsck) re-CRCs payloads and is off the restart path");

  std::vector<Row> rows;
  for (const int n : {4, 16, 48}) rows.push_back(measure(n));

  // Host wall-clock times differ run to run, so they go to stderr (and the
  // JSON); stdout keeps only what a rerun reproduces byte for byte.
  std::cout << strf("{:>8}{:>12}\n", "models", "image");
  std::cerr << strf("{:>8}{:>14}{:>12}\n", "models", "recover", "fsck");
  for (const auto& row : rows) {
    std::cout << strf("{:>8}{:>12}\n", row.models, format_bytes(row.image_bytes));
    std::cerr << strf("{:>8}{:>13.2f}m{:>11.2f}m\n", row.models, row.recover_ms,
                      row.fsck_ms);
  }

  const auto json_path = bench::results_path("BENCH_recovery.json");
  std::ofstream json{json_path, std::ios::trunc};
  json << "{\n  \"bench\": \"recovery_time\",\n  \"model\": \"alexnet\",\n"
       << "  \"scale\": 0.01,\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    json << strf(
        "    {{\"models\": {}, \"image_bytes\": {}, \"recover_ms\": {:.3f}, "
        "\"fsck_ms\": {:.3f}}}{}\n",
        row.models, row.image_bytes, row.recover_ms, row.fsck_ms,
        i + 1 < rows.size() ? "," : "");
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";

  int rc = 0;
  for (const auto& row : rows) {
    if (row.recover_ms > 250.0) {
      std::cerr << "FAIL: recover() took " << row.recover_ms << " ms at " << row.models
                << " models — restart must stay metadata-cheap\n";
      rc = 1;
    }
  }
  if (rc == 0) std::cout << "recovery acceptance checks passed\n";
  return rc;
}
