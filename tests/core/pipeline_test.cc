// Pipelined datapath engine: window=1 serial equivalence, chunk-boundary
// edge cases, crash consistency mid-pipeline, stripe/window end-to-end
// correctness, and the client-side failure-recovery guard.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/pipeline.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "mem/address_space.h"
#include "net/cluster.h"
#include "rdma/fabric.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

// --- chunk_spans -------------------------------------------------------------

struct IndexFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 128,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 64_MiB}};
  RegisterModelMsg reg = [] {
    RegisterModelMsg m;
    m.model_name = "chunky";
    const Bytes sizes[] = {100, 1024, 1030, 4096};
    for (std::size_t i = 0; i < 4; ++i) {
      m.tensors.push_back(TensorDesc{.name = "t" + std::to_string(i), .size = sizes[i]});
    }
    return m;
  }();
};

TEST(ChunkSpansTest, ZeroChunkBytesYieldsOneSpanPerTensor) {
  IndexFixture f;
  const auto idx = MIndex::create(f.device, f.alloc, f.reg);
  const auto spans = idx.chunk_spans(0);
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].tensor, i);
    EXPECT_EQ(spans[i].offset, 0u);
    EXPECT_EQ(spans[i].len, idx.tensors()[i].size);
    EXPECT_EQ(spans[i].offset_in_slot, idx.tensors()[i].offset_in_slot);
  }
}

TEST(ChunkSpansTest, SplitsTensorsAtChunkBoundaries) {
  IndexFixture f;
  const auto idx = MIndex::create(f.device, f.alloc, f.reg);
  const auto spans = idx.chunk_spans(1024);
  // 100 (< chunk): 1 span; 1024 (exact): 1; 1030 (one over): 1024 + 6;
  // 4096 (multiple): 4 x 1024.
  ASSERT_EQ(spans.size(), 1u + 1u + 2u + 4u);
  EXPECT_EQ(spans[0].len, 100u);
  EXPECT_EQ(spans[1].len, 1024u);
  EXPECT_EQ(spans[2].len, 1024u);
  EXPECT_EQ(spans[3].len, 6u);
  EXPECT_EQ(spans[3].offset, 1024u);
  EXPECT_EQ(spans[3].offset_in_slot, idx.tensors()[2].offset_in_slot + 1024);
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(spans[i].tensor, 3u);
    EXPECT_EQ(spans[i].len, 1024u);
    EXPECT_EQ(spans[i].offset, (i - 4) * 1024);
  }
  // Full coverage, in layout order, no overlap.
  Bytes covered = 0;
  for (const auto& s : spans) covered += s.len;
  EXPECT_EQ(covered, 100u + 1024u + 1030u + 4096u);
}

// --- wire-level serial equivalence ------------------------------------------

// Two NICs + DRAM segments wired through one fabric, with `lanes` QP pairs
// all delivering into one server-side CQ — the shape a daemon session has.
struct WireRig {
  static constexpr Bytes kRegion = 16_MiB;

  sim::Engine eng;
  mem::AddressSpace as;
  rdma::Fabric fabric{eng};
  rdma::RdmaNic client_nic{eng, "client/nic"};
  rdma::RdmaNic server_nic{eng, "server/nic"};
  std::shared_ptr<mem::MemorySegment> src =
      as.create_segment("client/dram", mem::MemoryKind::kDram, kRegion);
  std::shared_ptr<mem::MemorySegment> dst =
      as.create_segment("server/dram", mem::MemoryKind::kDram, kRegion);
  rdma::ProtectionDomain& cpd = client_nic.alloc_pd("cpd");
  rdma::ProtectionDomain& spd = server_nic.alloc_pd("spd");
  rdma::CompletionQueue client_cq{eng};
  rdma::CompletionQueue server_cq{eng};
  const rdma::MemoryRegion* src_mr = nullptr;
  const rdma::MemoryRegion* dst_mr = nullptr;
  std::vector<rdma::QueuePair*> server_qps;

  // Back-to-back 256-aligned "tensors", mirroring MIndex slot layout.
  std::vector<Bytes> sizes{8_KiB, 300, 64_KiB, 256_KiB + 512, 128_KiB};
  std::vector<Bytes> offsets;

  WireRig(int lanes, int depth) {
    src_mr = &cpd.register_region(rdma::RegionDesc{
        .segment = src.get(), .addr = src->base_addr(), .length = kRegion});
    dst_mr = &spd.register_region(rdma::RegionDesc{
        .segment = dst.get(), .addr = dst->base_addr(), .length = kRegion});
    for (int i = 0; i < lanes; ++i) {
      auto& sqp = fabric.create_qp(server_nic, spd, server_cq, depth);
      auto& cqp = fabric.create_qp(client_nic, cpd, client_cq);
      fabric.connect(sqp, cqp);
      server_qps.push_back(&sqp);
    }
    Bytes cursor = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      offsets.push_back(cursor);
      src->fill(cursor, sizes[i], std::byte{static_cast<unsigned char>(0xC0 + i)});
      cursor += (sizes[i] + 255) & ~Bytes{255};
    }
  }

  std::vector<TransferChunk> pull_chunks() const {
    std::vector<TransferChunk> chunks;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      chunks.push_back(TransferChunk{.kind = TransferChunk::Kind::kRead,
                                     .tensor_index = i,
                                     .len = sizes[i],
                                     .lkey = dst_mr->lkey,
                                     .local_addr = dst_mr->addr + offsets[i],
                                     .rkey = src_mr->rkey,
                                     .remote_addr = src_mr->addr + offsets[i]});
    }
    return chunks;
  }

  void expect_bytes_arrived() const {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(dst->crc(offsets[i], sizes[i]), src->crc(offsets[i], sizes[i]))
          << "tensor " << i << " corrupted in flight";
    }
  }
};

Duration run_serial_pulls(WireRig& rig) {
  rig.eng.spawn([](WireRig& r) -> sim::Process {
    for (std::size_t i = 0; i < r.sizes.size(); ++i) {
      const auto wc = co_await r.server_qps[0]->read_sync(
          r.dst_mr->lkey, r.dst_mr->addr + r.offsets[i], r.sizes[i], r.src_mr->rkey,
          r.src_mr->addr + r.offsets[i]);
      EXPECT_EQ(wc.status, rdma::WcStatus::kSuccess);
    }
  }(rig));
  rig.eng.run();
  return rig.eng.now();
}

Duration run_pipelined_pulls(WireRig& rig, int window, DatapathStats& out) {
  rig.eng.spawn([](WireRig& r, int w, DatapathStats& stats) -> sim::Process {
    PipelinedTransfer pipe{r.eng, r.server_qps, r.server_cq,
                           PipelinedTransfer::Config{.window = w}, stats};
    auto chunks = r.pull_chunks();
    co_await pipe.run(std::move(chunks));
  }(rig, window, out));
  rig.eng.run();
  return rig.eng.now();
}

TEST(PipelineTest, WindowOneMatchesSerialPathExactly) {
  WireRig serial_rig{1, 1};
  const Duration serial = run_serial_pulls(serial_rig);
  serial_rig.expect_bytes_arrived();

  WireRig pipe_rig{1, 1};
  DatapathStats stats;
  const Duration pipelined = run_pipelined_pulls(pipe_rig, 1, stats);
  pipe_rig.expect_bytes_arrived();

  EXPECT_EQ(serial.count(), pipelined.count())
      << "window=1 must reproduce the serial datapath timing bit-for-bit";
  EXPECT_EQ(stats.chunks_posted, pipe_rig.sizes.size());
  EXPECT_EQ(stats.peak_window, 1);
}

TEST(PipelineTest, WindowedStripedPullsOverlapAndStayByteIdentical) {
  WireRig serial_rig{1, 1};
  const Duration serial = run_serial_pulls(serial_rig);

  WireRig pipe_rig{2, 8};
  DatapathStats stats;
  const Duration pipelined = run_pipelined_pulls(pipe_rig, 8, stats);
  pipe_rig.expect_bytes_arrived();

  EXPECT_LT(pipelined.count(), serial.count())
      << "a deep window over two stripes must beat the serial path";
  EXPECT_GT(stats.peak_window, 1);
  EXPECT_LE(stats.peak_window, 2 * 8);
  EXPECT_GT(stats.mean_window(), 1.0);
}

TEST(PipelineTest, FailedChunkDrainsWindowThenThrows) {
  WireRig rig{1, 4};
  bool threw = false;
  rig.eng.spawn([](WireRig& r, bool& out) -> sim::Process {
    DatapathStats stats;
    PipelinedTransfer pipe{r.eng, r.server_qps, r.server_cq,
                           PipelinedTransfer::Config{.window = 4}, stats};
    auto chunks = r.pull_chunks();
    chunks[2].rkey = 0xDEAD;  // poison one chunk mid-list
    try {
      co_await pipe.run(std::move(chunks));
    } catch (const Error&) {
      out = true;
    }
  }(rig, threw));
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(rig.eng.failed_process_count(), 0)
      << "the failure must surface in run(), not as an orphaned process";
}

// --- end-to-end through the daemon ------------------------------------------

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon;

  explicit Rig(PortusDaemon::Config config = {}) {
    daemon = std::make_unique<PortusDaemon>(*cluster, cluster->node("server"),
                                            rendezvous, config);
    daemon->start();
  }
  ~Rig() { eng.shutdown(); }
};

void paint_tensor(dnn::Model& m, std::size_t i, std::byte value) {
  auto& buf = m.tensor(i).buffer();
  buf.segment().fill(buf.offset(), buf.size(), value);
}

TEST(PipelineTest, ChunkedStripedCheckpointRestoreRoundTrips) {
  Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 4_KiB, .stripes = 2}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "portusd", /*stripes=*/2};

  bool ok = false;
  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    EXPECT_EQ(c.stats().negotiated_stripes, 2u);

    co_await c.checkpoint(m, 1);
    const auto crc_epoch1 = m.weights_crc();

    // Incremental round: local copies must interleave into the pipeline.
    paint_tensor(m, 0, std::byte{0xA0});
    paint_tensor(m, 7, std::byte{0xA7});
    const auto crc_epoch2 = m.weights_crc();
    std::vector<std::uint32_t> dirty{0, 7};
    co_await c.checkpoint_incremental(m, 2, std::move(dirty));

    m.mutate_weights(999);
    const auto epoch = co_await c.restore(m);
    EXPECT_EQ(epoch, 2u);
    EXPECT_EQ(m.weights_crc(), crc_epoch2)
        << "chunked+striped pull/copy/push must reassemble the exact state";
    EXPECT_NE(crc_epoch1, crc_epoch2);

    const auto& s = rig.daemon->stats();
    EXPECT_GT(s.chunks_posted, 3 * m.layer_count())
        << "4 KiB chunks over ~13 KiB tensors must split";
    EXPECT_GT(s.local_chunks, 0u) << "clean tensors ride the pipeline as local copies";
    EXPECT_GT(s.peak_window, 1);
    EXPECT_LE(s.peak_window, 2 * 4);
    EXPECT_GT(s.mean_window(), 0.0);
    done = true;
  }(r, client, model, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(PipelineTest, PipelinedCheckpointBeatsSerialEndToEnd) {
  const auto run_world = [](PortusDaemon::Config config, int stripes) {
    Rig r{std::move(config)};
    auto& gpu = r.cluster->node("client-volta").gpu(0);
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
    PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                        "portusd", stripes};
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(client, model));
    r.eng.run();
    EXPECT_EQ(r.eng.failed_process_count(), 0);
    return client.stats().last_checkpoint;
  };

  const Duration serial = run_world(PortusDaemon::Config{}, 1);
  const Duration pipelined = run_world(
      PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 64_KiB, .stripes = 2}, 2);
  EXPECT_LT(to_seconds(pipelined), to_seconds(serial) * 0.6)
      << "windowed+striped datapath must clearly beat the serial loop "
      << "(serial " << serial.count() << " ns, pipelined " << pipelined.count() << " ns)";
}

TEST(PipelineTest, CrashMidPipelineNeverLeavesTornDoneSlot) {
  for (const double fraction : {0.3, 0.5, 0.7}) {
    Rig r{PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 2_KiB, .stripes = 2}};
    auto& gpu = r.cluster->node("client-volta").gpu(0);
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
    PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                        "portusd", /*stripes=*/2};

    // Epoch 1 completes cleanly.
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(client, model));
    r.eng.run();
    ASSERT_EQ(r.eng.failed_process_count(), 0);
    const Duration full_op = client.stats().last_checkpoint;

    // Power fails partway through epoch 2, with a full transfer window in
    // flight and per-chunk persists racing the pulls.
    model.mutate_weights(2);
    bool finished = false;
    r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
      try {
        co_await c.checkpoint(m, 2);
      } catch (const Error&) {
        // teardown mid-op
      }
      done = true;
    }(client, model, finished));
    const auto cut = r.eng.now() + Duration{static_cast<Duration::rep>(
                                       static_cast<double>(full_op.count()) * fraction)};
    r.eng.run_until(cut);
    ASSERT_FALSE(finished) << "fraction " << fraction << " must land mid-checkpoint";
    r.daemon->device().simulate_crash();

    // Recovery: whatever survives, a DONE slot must be fully persisted and
    // the interrupted slot must not be restorable.
    const auto idx = r.daemon->load_index("resnet50");
    const auto done_slot = idx.latest_done_slot();
    ASSERT_TRUE(done_slot.has_value()) << "epoch 1 must remain restorable";
    EXPECT_EQ(idx.slot(*done_slot).epoch, 1u)
        << "the interrupted epoch-2 slot must never surface as DONE";
    for (int s = 0; s < 2; ++s) {
      if (idx.slot(s).state == SlotState::kDone) {
        EXPECT_TRUE(
            r.daemon->device().is_persisted(idx.slot(s).data_offset, idx.slot_size()))
            << "slot " << s << " is DONE but holds unpersisted bytes";
      } else {
        EXPECT_NE(idx.slot(s).state, SlotState::kDone);
      }
    }
  }
}

TEST(PipelineTest, StatsSurfaceThroughPortusctl) {
  Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 8_KiB, .stripes = 2}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "alexnet", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "portusd", /*stripes=*/2};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(5);
    co_await c.restore(m);
  }(client, model));
  r.eng.run();
  ASSERT_EQ(r.eng.failed_process_count(), 0);

  Portusctl ctl{*r.daemon};
  const auto text = ctl.render_stats();
  EXPECT_NE(text.find("peak window occupancy"), std::string::npos);
  EXPECT_NE(text.find("chunks posted"), std::string::npos);
  EXPECT_NE(text.find("queue delay"), std::string::npos);
  const auto& s = r.daemon->stats();
  EXPECT_GT(s.chunks_posted, 0u);
  EXPECT_EQ(s.chunks_posted, s.rdma_chunks + s.local_chunks);
  EXPECT_GE(s.queue_delay_max, s.mean_queue_delay());
}

// --- client-side failure guard (roundtrip RAII) ------------------------------

TEST(PipelineTest, FailedRoundtripDoesNotWedgeClient) {
  Rig r;
  // A "daemon" that accepts, reads one request, and dies without replying.
  r.cluster->listen("deadd");
  r.eng.spawn([](Rig& rig) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("deadd").accept();
    co_await socket->recv();
    socket->close();
  }(r));

  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "alexnet", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "deadd"};

  bool ok = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.connect();
    bool threw = false;
    try {
      co_await c.checkpoint(m, 1);
    } catch (const Disconnected&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // The op slot must be free again: a second attempt fails on the dead
    // socket, not on the "one op at a time" guard.
    try {
      co_await c.checkpoint(m, 2);
    } catch (const Error& e) {
      EXPECT_EQ(std::string{e.what()}.find("one control-plane"), std::string::npos)
          << "a failed roundtrip wedged op_in_flight_";
    }
    done = true;
  }(client, model, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace portus::core
