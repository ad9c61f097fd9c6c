#include <gtest/gtest.h>

#include "common/rng.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "sim/process.h"
#include "storage/beegfs.h"
#include "storage/ext4_nvme.h"
#include "storage/serializer.h"

#include <cmath>

namespace portus::storage {
namespace {

using namespace std::chrono_literals;

CheckpointFile make_file(int tensors, std::size_t bytes_each, std::uint64_t seed) {
  CheckpointFile f;
  f.model_name = "test-model";
  Rng rng{seed};
  for (int i = 0; i < tensors; ++i) {
    SerializedTensor t;
    t.meta.name = "layer" + std::to_string(i);
    t.meta.dtype = dnn::DType::kF32;
    t.meta.shape = {static_cast<std::int64_t>(bytes_each / 4)};
    t.data.resize(bytes_each);
    rng.fill(t.data);
    f.tensors.push_back(std::move(t));
  }
  return f;
}

// --- serializer ---------------------------------------------------------------

TEST(SerializerTest, RoundTrip) {
  const auto file = make_file(5, 4096, 1);
  const auto bytes = CheckpointSerializer::serialize(file);
  const auto back = CheckpointSerializer::deserialize(bytes);
  EXPECT_EQ(back.model_name, "test-model");
  ASSERT_EQ(back.tensors.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.tensors[i].meta.name, file.tensors[i].meta.name);
    EXPECT_EQ(back.tensors[i].meta.shape, file.tensors[i].meta.shape);
    EXPECT_EQ(back.tensors[i].data, file.tensors[i].data);
  }
}

TEST(SerializerTest, DetectsContainerCorruption) {
  const auto file = make_file(2, 1024, 2);
  auto bytes = CheckpointSerializer::serialize(file);
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW(CheckpointSerializer::deserialize(bytes), Corruption);
}

TEST(SerializerTest, DetectsTruncation) {
  const auto file = make_file(2, 1024, 3);
  auto bytes = CheckpointSerializer::serialize(file);
  bytes.resize(bytes.size() - 100);
  EXPECT_THROW(CheckpointSerializer::deserialize(bytes), Corruption);
}

TEST(SerializerTest, RejectsBadMagic) {
  std::vector<std::byte> junk(64, std::byte{0x41});
  EXPECT_THROW(CheckpointSerializer::deserialize(junk), Corruption);
}

TEST(SerializerTest, ContainerSizeModelMatchesReality) {
  sim::Engine eng;
  mem::AddressSpace as;
  gpu::GpuDevice gpu{eng, as, "gpu0", gpu::GpuKind::kV100};
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(gpu, "alexnet", opt);

  CheckpointFile file;
  file.model_name = model.name();
  for (auto& t : model.tensors()) {
    SerializedTensor st;
    st.meta = t.meta();
    st.data = t.buffer().download();
    file.tensors.push_back(std::move(st));
  }
  EXPECT_EQ(CheckpointSerializer::serialize(file).size(),
            CheckpointSerializer::container_size(model));
}

TEST(SerializerTest, MismatchedPayloadRejectedAtSerialize) {
  auto file = make_file(1, 1024, 4);
  file.tensors[0].data.resize(1000);  // no longer matches the shape
  EXPECT_THROW(CheckpointSerializer::serialize(file), InvalidArgument);
}

// --- ext4-NVMe ----------------------------------------------------------------

struct Ext4Fixture {
  sim::Engine eng;
  Ext4NvmeFs fs{eng, "ext4-nvme"};
};

TEST(Ext4NvmeTest, WriteReadRoundTrip) {
  Ext4Fixture f;
  std::vector<std::byte> data(3_MiB);
  Rng{5}.fill(data);
  std::vector<std::byte> got;
  f.eng.spawn([](Ext4Fixture& fx, std::vector<std::byte>& d,
                 std::vector<std::byte>& out) -> sim::Process {
    co_await fx.fs.write_file("ckpt.bin", d.size(), &d);
    out = co_await fx.fs.read_file("ckpt.bin");
  }(f, data, got));
  f.eng.run();
  EXPECT_EQ(got, data);
  EXPECT_TRUE(f.fs.exists("ckpt.bin"));
  EXPECT_EQ(f.fs.file_size("ckpt.bin"), 3_MiB);
}

TEST(Ext4NvmeTest, WriteTimeMatchesCostModel) {
  Ext4Fixture f;
  Time done{};
  f.eng.spawn([](Ext4Fixture& fx, Time& t) -> sim::Process {
    co_await fx.fs.write_file("big.bin", 270_MB, nullptr);  // phantom
    t = fx.eng.now();
  }(f, done));
  f.eng.run();
  const auto& spec = f.fs.spec();
  const double chunks = std::ceil(270e6 / static_cast<double>(spec.chunk));
  const double expected = 270e6 / spec.write_bw.bytes_per_second() +
                          chunks * to_seconds(spec.kernel_cost_per_chunk) +
                          to_seconds(spec.open_cost) + to_seconds(spec.fsync_cost);
  EXPECT_NEAR(to_seconds(done), expected, 0.01);
}

TEST(Ext4NvmeTest, GdsReadIsFasterThanBuffered) {
  Ext4Fixture f;
  Duration buffered{}, gds{};
  f.eng.spawn([](Ext4Fixture& fx, Duration& b, Duration& g) -> sim::Process {
    co_await fx.fs.write_file("x.bin", 100_MB, nullptr);
    Time t0 = fx.eng.now();
    co_await fx.fs.read_file_time_only("x.bin", false);
    b = fx.eng.now() - t0;
    t0 = fx.eng.now();
    co_await fx.fs.read_file_time_only("x.bin", true);
    g = fx.eng.now() - t0;
  }(f, buffered, gds));
  f.eng.run();
  EXPECT_LT(gds, buffered);
}

TEST(Ext4NvmeTest, MissingFileThrows) {
  Ext4Fixture f;
  bool threw = false;
  f.eng.spawn([](Ext4Fixture& fx, bool& t) -> sim::Process {
    try {
      co_await fx.fs.read_file("nope.bin");
    } catch (const NotFound&) {
      t = true;
    }
  }(f, threw));
  f.eng.run();
  EXPECT_TRUE(threw);
}

TEST(Ext4NvmeTest, RemoveDeletesFile) {
  Ext4Fixture f;
  f.eng.spawn([](Ext4Fixture& fx) -> sim::Process {
    co_await fx.fs.write_file("x.bin", 1024, nullptr);
    co_await fx.fs.remove("x.bin");
  }(f));
  f.eng.run();
  EXPECT_FALSE(f.fs.exists("x.bin"));
}

// --- BeeGFS -------------------------------------------------------------------

struct BeeGfsFixture {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  BeeGfsServer server{cluster->node("server")};
  BeeGfsMount mount{*cluster, cluster->node("client-volta"), server, "mnt0"};
};

TEST(BeeGfsTest, WriteReadRoundTripOverRpc) {
  BeeGfsFixture f;
  std::vector<std::byte> data(2500_KiB);  // crosses several 1 MiB chunks
  Rng{6}.fill(data);
  std::vector<std::byte> got;
  f.eng.spawn([](BeeGfsFixture& fx, std::vector<std::byte>& d,
                 std::vector<std::byte>& out) -> sim::Process {
    co_await fx.mount.write_file("/ckpt/model.bin", d.size(), &d);
    out = co_await fx.mount.read_file("/ckpt/model.bin");
  }(f, data, got));
  f.eng.run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(f.eng.failed_process_count(), 0);
}

TEST(BeeGfsTest, SingleStreamThroughputNearPaperCalibration) {
  BeeGfsFixture f;
  Time done{};
  f.eng.spawn([](BeeGfsFixture& fx, Time& t) -> sim::Process {
    co_await fx.mount.write_file("/big.bin", 1_GB, nullptr);
    t = fx.eng.now();
  }(f, done));
  f.eng.run();
  const double gbps = 1.0 / to_seconds(done);
  // Calibrated to ~1.5-1.6 GB/s effective single-stream write (RPC transport
  // + handler + DAX; Table I's RDMA+DAX = 42.8% of a ~2 s BERT checkpoint).
  EXPECT_GT(gbps, 1.2);
  EXPECT_LT(gbps, 2.2);
}

TEST(BeeGfsTest, MetadataCostDominatesSmallFiles) {
  BeeGfsFixture f;
  Duration small_time{};
  f.eng.spawn([](BeeGfsFixture& fx, Duration& t) -> sim::Process {
    const Time t0 = fx.eng.now();
    co_await fx.mount.write_file("/tiny.bin", 4_KiB, nullptr);
    t = fx.eng.now() - t0;
  }(f, small_time));
  f.eng.run();
  // Path resolution + commit are milliseconds; the 4 KiB itself is microseconds.
  EXPECT_GT(small_time, 10ms);
}

TEST(BeeGfsTest, ConcurrentMountsDegradeAggregateThroughput) {
  // Aggregate write bandwidth with 8 concurrent ranks must be well below
  // 8x the single-stream value (Optane fsdax degradation, Fig. 14's cause).
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  BeeGfsServer server{cluster->node("server")};

  std::vector<std::unique_ptr<BeeGfsMount>> mounts;
  for (int i = 0; i < 8; ++i) {
    mounts.push_back(std::make_unique<BeeGfsMount>(
        *cluster, cluster->node("client-ampere"), server, "mnt" + std::to_string(i)));
  }
  const Bytes per_rank = 1_GB;
  for (int i = 0; i < 8; ++i) {
    eng.spawn([](BeeGfsMount& m, int rank, Bytes n) -> sim::Process {
      co_await m.write_file("/shard" + std::to_string(rank), n, nullptr);
    }(*mounts[static_cast<std::size_t>(i)], i, per_rank));
  }
  const Time end = eng.run();
  const double aggregate_gbps = 8.0 / to_seconds(end);
  EXPECT_LT(aggregate_gbps, 2.0) << "fsdax write concurrency must collapse throughput";
  EXPECT_GT(aggregate_gbps, 0.4);
}

// Phantom chunks ride the RPC SENDs as uncopied tails; the wire, handler
// and DAX charges are unchanged, so the virtual time is pinned exactly.
TEST(BeeGfsTest, PhantomWriteThenTimingOnlyReadPinsVirtualTime) {
  BeeGfsFixture f;
  Duration write_time{};
  Duration read_time{};
  f.eng.spawn([](BeeGfsFixture& fx, Duration& w, Duration& r) -> sim::Process {
    const Time t0 = fx.eng.now();
    co_await fx.mount.write_file("/phantom.bin", 64_MiB + 123, nullptr);
    const Time t1 = fx.eng.now();
    const Bytes n = co_await fx.mount.read_file_time_only("/phantom.bin", false);
    EXPECT_EQ(n, 64_MiB + 123);
    w = t1 - t0;
    r = fx.eng.now() - t1;
  }(f, write_time, read_time));
  f.eng.run();
  EXPECT_EQ(f.eng.failed_process_count(), 0);
  EXPECT_EQ(write_time.count(), 57407976);
  EXPECT_EQ(read_time.count(), 28016726);
}

TEST(BeeGfsTest, RequiresFsdaxNamespace) {
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  EXPECT_THROW(BeeGfsServer{cluster->node("client-volta")}, InvalidArgument);
}

}  // namespace
}  // namespace portus::storage
