// Unit tests for the daemon's persistent structures: protocol encoding,
// allocator, ModelTable, MIndex, checkpoint transactions.
#include <gtest/gtest.h>

#include <atomic>
#include <string_view>
#include <thread>
#include <utility>

#include "common/strformat.h"
#include "core/daemon/allocator.h"
#include "core/daemon/mindex.h"
#include "core/daemon/model_table.h"
#include "core/daemon/slots.h"
#include "core/protocol.h"

namespace portus::core {
namespace {

// --- protocol ----------------------------------------------------------------

RegisterModelMsg sample_registration() {
  RegisterModelMsg m;
  m.model_name = "bert";
  m.qp_tokens = {0xCAFE1234, 0xCAFE1235};
  m.phantom = false;
  for (int i = 0; i < 3; ++i) {
    m.tensors.push_back(TensorDesc{
        .name = "bert.layer" + std::to_string(i),
        .dtype = dnn::DType::kF32,
        .shape = {512, 1024},
        .size = 512 * 1024 * 4,
        .gpu_addr = 0xFFFF0000ull + static_cast<std::uint64_t>(i) * 0x1000,
        .rkey = 0x1000u + static_cast<std::uint32_t>(i),
    });
  }
  return m;
}

TEST(ProtocolTest, RegisterModelRoundTrip) {
  const auto msg = sample_registration();
  const auto wire = encode(msg);
  EXPECT_EQ(decode_type(wire), MsgType::kRegisterModel);
  const auto back = decode_register_model(wire);
  EXPECT_EQ(back.model_name, "bert");
  EXPECT_EQ(back.qp_tokens, (std::vector<std::uint64_t>{0xCAFE1234, 0xCAFE1235}));
  ASSERT_EQ(back.tensors.size(), 3u);
  EXPECT_EQ(back.tensors[1].name, "bert.layer1");
  EXPECT_EQ(back.tensors[1].shape, (std::vector<std::int64_t>{512, 1024}));
  EXPECT_EQ(back.tensors[1].size, 512u * 1024 * 4);
  EXPECT_EQ(back.tensors[2].rkey, 0x1002u);
  EXPECT_EQ(back.total_bytes(), 3u * 512 * 1024 * 4);
}

TEST(ProtocolTest, AllControlMessagesRoundTrip) {
  {
    const auto w = encode(CheckpointReqMsg{.model_name = "m", .iteration = 7});
    const auto b = decode_checkpoint_req(w);
    EXPECT_EQ(b.model_name, "m");
    EXPECT_EQ(b.iteration, 7u);
  }
  {
    const auto w = encode(OpDoneMsg{.model_name = "m", .epoch = 3, .ok = true});
    const auto b = decode_op_done(w, MsgType::kCheckpointDone);
    EXPECT_EQ(b.type, MsgType::kCheckpointDone);
    EXPECT_TRUE(b.ok);
    EXPECT_EQ(b.epoch, 3u);
  }
  {
    const auto w = encode(
        OpDoneMsg{.type = MsgType::kRestoreDone, .model_name = "m", .ok = false, .error = "nope"});
    const auto b = decode_op_done(w, MsgType::kRestoreDone);
    EXPECT_EQ(b.type, MsgType::kRestoreDone);
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(b.error, "nope");
    // The tag still tells the two replies apart.
    EXPECT_THROW(decode_op_done(w, MsgType::kCheckpointDone), Corruption);
  }
  {
    const auto w = encode(FinishJobMsg{.model_name = "gpt"});
    EXPECT_EQ(decode_finish_job(w).model_name, "gpt");
  }
}

// Wire-layout golden: checkpoint and restore replies share OpDoneMsg, and
// each tag must encode to exactly these v6 bytes, the layout peers of the
// same protocol version read. The TCP model charges message.size(), so a
// layout change would also move virtual time.
TEST(ProtocolTest, OpDoneWireBytesMatchGolden) {
  constexpr std::string_view kBody =
      "080000007265736e657435300807060504030201000a00000071756575652066756c6c"
      "efbeadde0180841e0000000000010700000000000000";
  OpDoneMsg m{.model_name = "resnet50",
              .epoch = 0x0102030405060708ull,
              .ok = false,
              .error = "queue full",
              .payload_crc = 0xDEADBEEF,
              .backpressure = true,
              .retry_after_ns = 2'000'000,
              .epoch_mismatch = true,
              .current_epoch = 7};
  const auto hex = [](const std::vector<std::byte>& w) {
    std::string out;
    for (const auto b : w) out += strf("{:02x}", static_cast<unsigned>(b));
    return out;
  };
  for (const auto& [type, tag] : {std::pair{MsgType::kCheckpointDone, "04"},
                                 std::pair{MsgType::kRestoreDone, "06"}}) {
    m.type = type;
    const auto wire = encode(m);
    EXPECT_EQ(hex(wire), std::string{tag} + std::string{kBody}) << to_string(type);
    const auto back = decode_op_done(wire, type);
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.model_name, m.model_name);
    EXPECT_EQ(back.epoch, m.epoch);
    EXPECT_EQ(back.error, m.error);
    EXPECT_EQ(back.payload_crc, m.payload_crc);
    EXPECT_EQ(back.retry_after_ns, m.retry_after_ns);
    EXPECT_TRUE(back.backpressure && back.epoch_mismatch);
    EXPECT_EQ(back.current_epoch, 7u);
  }
}

TEST(ProtocolTest, WrongTypeDecodingThrows) {
  const auto wire = encode(CheckpointReqMsg{.model_name = "m"});
  EXPECT_THROW(decode_register_model(wire), Corruption);
}

TEST(ProtocolTest, QpRendezvous) {
  QpRendezvous rv;
  // No real QP needed for registry mechanics: use a fake pointer identity.
  auto* fake = reinterpret_cast<rdma::QueuePair*>(0x1234);
  const auto token = rv.publish(*fake);
  EXPECT_EQ(&rv.resolve(token), fake);
  EXPECT_THROW(rv.resolve(token + 999), NotFound);
}

// --- allocator ---------------------------------------------------------------

struct AllocFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator::Config config{.table_offset = 4_KiB,
                               .table_capacity = 512,
                               .data_offset = 1_MiB,
                               .data_end = 64_MiB};
  PmemAllocator alloc{device, config};
};

TEST(AllocatorTest, BumpAllocationIsDisjoint) {
  AllocFixture f;
  const auto a = f.alloc.alloc(1000);
  const auto b = f.alloc.alloc(1000);
  EXPECT_GE(a, 1_MiB);
  EXPECT_GE(b, a + 1000);
  EXPECT_EQ(f.alloc.live_bytes(), 2 * 1024u);  // 256-aligned
}

TEST(AllocatorTest, FreeAndReuse) {
  AllocFixture f;
  const auto a = f.alloc.alloc(10_KiB);
  f.alloc.free(a);
  EXPECT_EQ(f.alloc.live_bytes(), 0u);
  EXPECT_EQ(f.alloc.free_listed_bytes(), 10_KiB);
  const auto b = f.alloc.alloc(8_KiB);  // first-fit reuse of the freed extent
  EXPECT_EQ(b, a);
  EXPECT_EQ(f.alloc.free_listed_bytes(), 0u);
}

TEST(AllocatorTest, DoubleFreeAndUnknownFreeThrow) {
  AllocFixture f;
  const auto a = f.alloc.alloc(1_KiB);
  f.alloc.free(a);
  EXPECT_THROW(f.alloc.free(a), InvalidArgument);
  EXPECT_THROW(f.alloc.free(0xDEAD), InvalidArgument);
}

TEST(AllocatorTest, ExhaustionThrows) {
  AllocFixture f;
  EXPECT_THROW(f.alloc.alloc(128_MiB), ResourceExhausted);
  // After the failed attempt the heap is still usable.
  EXPECT_NO_THROW(f.alloc.alloc(1_MiB));
}

TEST(AllocatorTest, RecoveryRebuildsState) {
  AllocFixture f;
  const auto a = f.alloc.alloc(10_KiB);
  const auto b = f.alloc.alloc(20_KiB);
  f.alloc.free(a);
  f.device.persist_all();

  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.live_bytes(), (20_KiB / 256 + (20_KiB % 256 ? 1 : 0)) * 256);
  EXPECT_EQ(recovered.free_listed_bytes(), 10_KiB);
  EXPECT_GE(recovered.bump(), b + 20_KiB);
  // The freed extent is reusable after recovery.
  EXPECT_EQ(recovered.alloc(10_KiB), a);
}

TEST(AllocatorTest, CompactReclaimsTrailingFreeExtents) {
  AllocFixture f;
  const auto a = f.alloc.alloc(1_MiB);
  const auto b = f.alloc.alloc(2_MiB);
  (void)a;
  const auto bump_before = f.alloc.bump();
  f.alloc.free(b);
  EXPECT_EQ(f.alloc.compact(), 2_MiB);
  EXPECT_EQ(f.alloc.bump(), bump_before - 2_MiB);
  EXPECT_EQ(f.alloc.free_listed_bytes(), 0u);
}

TEST(AllocatorTest, ConcurrentAllocationNeverDoubleAllocates) {
  // Real-thread stress on the lock-free CAS path (outside the DES).
  AllocFixture f;
  constexpr int kThreads = 8;
  constexpr int kAllocsPerThread = 50;
  std::vector<std::vector<Bytes>> results(kThreads);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&f, &results, t] {
        for (int i = 0; i < kAllocsPerThread; ++i) {
          results[static_cast<std::size_t>(t)].push_back(f.alloc.alloc(4096));
        }
      });
    }
  }
  std::vector<Bytes> all;
  for (const auto& r : results) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "two threads received the same extent";
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kAllocsPerThread));
}

TEST(AllocatorTest, UnhomedAllocationsLandOnShardZero) {
  // Placement must not depend on thread identity: with no ScopedHome hint,
  // plain alloc() goes to shard 0 from every thread. All eight threads are
  // alive at once (each waits for the others before allocating), so their
  // ids are distinct; a hash of the id would spread them over the shards.
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 512,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 64_MiB,
                                                    .shards = 4}};
  constexpr int kThreads = 8;
  std::atomic<int> arrived{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        alloc.alloc(4096);
      });
    }
  }
  const auto stats = alloc.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].allocs, static_cast<std::uint64_t>(kThreads));
  for (std::size_t s = 1; s < stats.size(); ++s) EXPECT_EQ(stats[s].allocs, 0u) << s;

  // A ScopedHome still routes this thread's allocations to its shard.
  {
    const PmemAllocator::ScopedHome home{2};
    alloc.alloc(4096);
  }
  EXPECT_EQ(alloc.shard_stats()[2].allocs, 1u);
}

// --- NUMA partitions, size classes, adaptive refill --------------------------

TEST(AllocatorTest, OffsetBucketFansOutAlignedPartitionedOffsets) {
  // Heap offsets are XPLine-aligned multiples of 256, and NUMA partitioning
  // pins their high bits to a node slice on top of that. Identity hashing
  // (libstdc++ std::hash on integers) collapsed both patterns into a single
  // map bucket, serializing every free() on one lock — the golden-ratio mix
  // must spread either pattern across all 64 buckets.
  for (const Bytes base : {1_MiB, 32_MiB + 256 * 7}) {
    int load[64] = {};
    for (Bytes k = 0; k < 4096; ++k) {
      const auto b = PmemAllocator::offset_bucket(base + k * 256);
      ASSERT_LT(b, 64u);
      ++load[b];
    }
    int used = 0;
    int worst = 0;
    for (const int n : load) {
      if (n > 0) ++used;
      if (n > worst) worst = n;
    }
    EXPECT_EQ(used, 64) << "aligned offsets from base " << base
                        << " left buckets cold";
    EXPECT_LE(worst, 4 * 4096 / 64) << "bucket load badly skewed";
  }
}

TEST(AllocatorTest, SizeClassReusePrefersClassMates) {
  AllocFixture f;  // default classes: <= 4 KiB small, <= 256 KiB medium
  const auto medium = f.alloc.alloc(100_KiB);
  const auto small = f.alloc.alloc(2_KiB);
  f.alloc.free(medium);
  f.alloc.free(small);
  // The medium extent sits earlier in the table, so classic first fit would
  // burn 100 KiB on this 1 KiB request; segregation claims the class-mate.
  EXPECT_EQ(f.alloc.alloc(1_KiB), small);
  // With its own class drained, a small request still falls over to the
  // larger class instead of failing or consuming fresh heap.
  EXPECT_EQ(f.alloc.alloc(1_KiB), medium);
  EXPECT_EQ(f.alloc.free_listed_bytes(), 0u);
}

TEST(AllocatorTest, AdaptiveRefillScalesChunkWithDemand) {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator::Config cfg{.table_offset = 4_KiB,
                            .table_capacity = 2048,
                            .data_offset = 1_MiB,
                            .data_end = 64_MiB,
                            .refill_bytes = 4_KiB};
  PmemAllocator alloc{device, cfg};
  ASSERT_EQ(alloc.shard_stats()[0].refill_chunk, 4_KiB) << "cold shard at floor";

  // Requests outgrowing the chunk feed the demand EWMA: the next chunks are
  // sized to the observed appetite (one bump touch per EWMA window), never
  // above the 8x clamp, and stay there while small allocs drain them.
  for (int i = 0; i < 6; ++i) (void)alloc.alloc(16_KiB);
  const auto hot = alloc.shard_stats()[0].refill_chunk;
  EXPECT_GT(hot, 4_KiB);
  EXPECT_LE(hot, 8 * 4_KiB);
  const auto refills_before = alloc.shard_stats()[0].refills;
  for (int i = 0; i < 8; ++i) (void)alloc.alloc(1_KiB);
  EXPECT_LE(alloc.shard_stats()[0].refills, refills_before + 1)
      << "hot shard should serve small allocs from the scaled reservation";

  // With adaptation off the chunk is pinned to the configured floor.
  auto fixed_cfg = cfg;
  fixed_cfg.adaptive_refill = false;
  pmem::PmemDevice fixed_device{"pmem", 64_MiB, 0x1000};
  PmemAllocator fixed{fixed_device, fixed_cfg};
  for (int i = 0; i < 6; ++i) (void)fixed.alloc(16_KiB);
  EXPECT_EQ(fixed.shard_stats()[0].refill_chunk, 4_KiB);
}

TEST(AllocatorTest, NodePartitionsMatchDeviceTopology) {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000, pmem::PmemPerfModel::optane_numa(2)};
  ASSERT_EQ(device.numa_nodes(), 2u);
  PmemAllocator::Config cfg{.table_offset = 4_KiB,
                            .table_capacity = 2048,
                            .data_offset = 1_MiB,
                            .data_end = 64_MiB,
                            .shards = 4,
                            .numa_nodes = 2};
  PmemAllocator alloc{device, cfg};

  // Shards are pinned to nodes in contiguous groups, and each node arena is
  // the heap's intersection with the device's node slice.
  EXPECT_EQ(alloc.node_of_shard(0), 0u);
  EXPECT_EQ(alloc.node_of_shard(1), 0u);
  EXPECT_EQ(alloc.node_of_shard(2), 1u);
  EXPECT_EQ(alloc.node_of_shard(3), 1u);
  for (std::uint32_t n = 0; n < 2; ++n) {
    const auto [base, end] = alloc.node_partition(n);
    const auto [dev_lo, dev_hi] = device.node_range(n);
    EXPECT_GE(base, dev_lo);
    EXPECT_LE(end, dev_hi);
    EXPECT_GE(base, cfg.data_offset);
    EXPECT_LE(end, cfg.data_end);
    EXPECT_EQ(alloc.node_bump(n), base) << "fresh arena bump not at base";
  }

  // A socket-local alloc lands inside its shard's node slice, by both the
  // allocator's map and the device's.
  const auto a = alloc.alloc_on(0, 1_MiB);
  const auto b = alloc.alloc_on(3, 1_MiB);
  EXPECT_EQ(alloc.node_of_offset(a), 0u);
  EXPECT_EQ(device.node_of(a), 0u);
  EXPECT_EQ(alloc.node_of_offset(b), 1u);
  EXPECT_EQ(device.node_of(b), 1u);
  EXPECT_EQ(alloc.consumed_bytes(), 2_MiB);

  // recover() rebuilds each partition's bump to its own high-water mark and
  // the extended header round-trips the partition count.
  device.persist_all();
  PmemAllocator recovered{device, cfg};
  recovered.recover();
  EXPECT_EQ(recovered.node_bump(0), a + 1_MiB);
  EXPECT_EQ(recovered.node_bump(1), b + 1_MiB);
  const auto scrub = recovered.scrub_table();
  EXPECT_TRUE(scrub.header_valid);
  EXPECT_EQ(scrub.numa_nodes, 2u);
  EXPECT_EQ(scrub.torn_entries, 0u);
}

TEST(AllocatorTest, CrossNodeSpillCountsRemoteRefillsAndSteals) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000, pmem::PmemPerfModel::optane_numa(2)};
  PmemAllocator::Config cfg{.table_offset = 4_KiB,
                            .table_capacity = 2048,
                            .data_offset = 1_MiB,
                            .data_end = 16_MiB,
                            .shards = 2,
                            .numa_nodes = 2};
  PmemAllocator alloc{device, cfg};

  // A donor extent parked on the node-1 shard's free list.
  const auto donor = alloc.alloc_on(1, 512_KiB);
  alloc.free(donor);

  // Node 0 holds 7 MiB ([1 MiB, 8 MiB)); node 1 holds 7.5 MiB past the
  // donor. 14 x 1 MiB on the node-0 shard drains its home partition after 7
  // and falls over to the remote bump for the rest.
  for (int i = 0; i < 14; ++i) (void)alloc.alloc_on(0, 1_MiB);
  auto stats = alloc.shard_stats();
  EXPECT_EQ(stats[0].refills, 14u);
  EXPECT_EQ(stats[0].remote_refills, 7u);

  // Drain node 1's last 512 KiB too (another remote refill), then a large
  // request with every bump dry must claim the donor across the socket.
  (void)alloc.alloc_on(0, 512_KiB);
  const auto stolen = alloc.alloc_on(0, 384_KiB);
  EXPECT_EQ(stolen, donor);
  EXPECT_EQ(device.node_of(stolen), 1u);
  stats = alloc.shard_stats();
  EXPECT_EQ(stats[0].remote_refills, 8u);
  EXPECT_EQ(stats[0].steals, 1u);
  EXPECT_EQ(stats[0].cross_steals, 1u);
  EXPECT_THROW(alloc.alloc_on(0, 1_MiB), ResourceExhausted);
}

// --- ModelTable --------------------------------------------------------------

TEST(ModelTableTest, InsertLookupRemove) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000};
  ModelTable table{device, 4_KiB, 16};
  table.insert("resnet50", 0x100000);
  table.insert("bert", 0x200000);
  EXPECT_EQ(table.lookup("resnet50"), 0x100000u);
  EXPECT_EQ(table.lookup("bert"), 0x200000u);
  EXPECT_EQ(table.lookup("nope"), std::nullopt);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.names(), (std::vector<std::string>{"bert", "resnet50"}))
      << "ModelMap iterates in sorted (RB-tree) order";
  table.remove("bert");
  EXPECT_EQ(table.lookup("bert"), std::nullopt);
  EXPECT_THROW(table.remove("bert"), NotFound);
}

TEST(ModelTableTest, OverwriteUpdatesOffset) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000};
  ModelTable table{device, 4_KiB, 16};
  table.insert("m", 0x100);
  table.insert("m", 0x200);
  EXPECT_EQ(table.lookup("m"), 0x200u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ModelTableTest, CapacityExhaustion) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000};
  ModelTable table{device, 4_KiB, 2};
  table.insert("a", 1);
  table.insert("b", 2);
  EXPECT_THROW(table.insert("c", 3), ResourceExhausted);
}

TEST(ModelTableTest, RecoverySurvivesCrash) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000};
  {
    ModelTable table{device, 4_KiB, 16};
    table.insert("resnet50", 0x100000);
    table.insert("gpt", 0x300000);
    table.remove("gpt");
    table.insert("bert", 0x200000);
  }
  device.simulate_crash();  // all table writes were persisted by insert()

  ModelTable recovered{device, 4_KiB, 16};
  recovered.recover();
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.lookup("resnet50"), 0x100000u);
  EXPECT_EQ(recovered.lookup("bert"), 0x200000u);
  EXPECT_EQ(recovered.lookup("gpt"), std::nullopt);
}

TEST(ModelTableTest, NameLengthValidation) {
  pmem::PmemDevice device{"pmem", 16_MiB, 0x1000};
  ModelTable table{device, 4_KiB, 16};
  EXPECT_THROW(table.insert("", 1), InvalidArgument);
  EXPECT_THROW(table.insert(std::string(48, 'x'), 1), InvalidArgument);
  EXPECT_NO_THROW(table.insert(std::string(47, 'x'), 1));
}

// --- MIndex + CheckpointTxn ----------------------------------------------------

struct IndexFixture {
  pmem::PmemDevice device{"pmem", 256_MiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 512,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 256_MiB}};
  RegisterModelMsg reg = [] {
    RegisterModelMsg m;
    m.model_name = "bert";
    for (int i = 0; i < 4; ++i) {
      m.tensors.push_back(TensorDesc{
          .name = "t" + std::to_string(i),
          .dtype = dnn::DType::kF32,
          .shape = {100, 100},
          .size = 40'000,
      });
    }
    return m;
  }();
};

TEST(MIndexTest, CreateLaysOutTensorsContiguously) {
  IndexFixture f;
  const auto idx = MIndex::create(f.device, f.alloc, f.reg);
  EXPECT_EQ(idx.model_name(), "bert");
  ASSERT_EQ(idx.tensors().size(), 4u);
  Bytes expected_offset = 0;
  for (const auto& t : idx.tensors()) {
    EXPECT_EQ(t.offset_in_slot, expected_offset);
    expected_offset += (t.size + 255) & ~Bytes{255};
  }
  EXPECT_EQ(idx.slot_size(), expected_offset);
  EXPECT_NE(idx.slot(0).data_offset, idx.slot(1).data_offset);
  EXPECT_EQ(idx.slot(0).state, SlotState::kEmpty);
}

TEST(MIndexTest, LoadRoundTripsMetadata) {
  IndexFixture f;
  const auto created = MIndex::create(f.device, f.alloc, f.reg);
  const auto loaded = MIndex::load(f.device, created.record_offset());
  EXPECT_EQ(loaded.model_name(), "bert");
  EXPECT_EQ(loaded.slot_size(), created.slot_size());
  ASSERT_EQ(loaded.tensors().size(), 4u);
  EXPECT_EQ(loaded.tensors()[2].name, "t2");
  EXPECT_EQ(loaded.tensors()[2].shape, (std::vector<std::int64_t>{100, 100}));
  EXPECT_EQ(loaded.slot(0).data_offset, created.slot(0).data_offset);
}

TEST(MIndexTest, LoadRejectsGarbage) {
  IndexFixture f;
  EXPECT_THROW(MIndex::load(f.device, 2_MiB), Corruption);
}

TEST(CheckpointTxnTest, FirstCheckpointUsesSlot0) {
  IndexFixture f;
  auto idx = MIndex::create(f.device, f.alloc, f.reg);
  auto txn = CheckpointTxn::begin(idx);
  EXPECT_EQ(txn.slot(), 0);
  EXPECT_EQ(idx.slot(0).state, SlotState::kActive);
  EXPECT_EQ(txn.epoch(), 1u);
  txn.commit();
  EXPECT_EQ(idx.slot(0).state, SlotState::kDone);
  EXPECT_EQ(idx.latest_done_slot(), 0);
}

TEST(CheckpointTxnTest, AlternatesSlotsAndKeepsOneValidVersion) {
  IndexFixture f;
  auto idx = MIndex::create(f.device, f.alloc, f.reg);
  for (int i = 0; i < 6; ++i) {
    auto txn = CheckpointTxn::begin(idx);
    EXPECT_EQ(txn.slot(), i % 2);
    if (i > 0) {
      // While writing slot A, slot B must hold the previous DONE version.
      EXPECT_EQ(idx.slot(1 - txn.slot()).state, SlotState::kDone);
    }
    txn.commit();
    EXPECT_EQ(idx.latest_done_slot(), i % 2);
    EXPECT_EQ(idx.max_epoch(), static_cast<std::uint64_t>(i + 1));
  }
}

TEST(CheckpointTxnTest, AbortLeavesSlotActiveAndInvalid) {
  IndexFixture f;
  auto idx = MIndex::create(f.device, f.alloc, f.reg);
  {
    auto txn = CheckpointTxn::begin(idx);
    // destructor = crash semantics: no rollback write
  }
  EXPECT_EQ(idx.slot(0).state, SlotState::kActive);
  EXPECT_EQ(idx.latest_done_slot(), std::nullopt) << "ACTIVE must never be restorable";
  // The next checkpoint reuses the same (invalid) slot.
  auto txn2 = CheckpointTxn::begin(idx);
  EXPECT_EQ(txn2.slot(), 0);
  txn2.commit();
  EXPECT_EQ(idx.latest_done_slot(), 0);
}

TEST(CheckpointTxnTest, CrashDuringWriteLeavesPreviousVersionValid) {
  IndexFixture f;
  auto idx = MIndex::create(f.device, f.alloc, f.reg);

  // First complete checkpoint into slot 0.
  {
    auto txn = CheckpointTxn::begin(idx);
    f.device.fill(txn.data_offset(), idx.slot_size(), std::byte{0xAA});
    f.device.persist(txn.data_offset(), idx.slot_size());
    txn.commit();
  }
  // Second checkpoint crashes mid-transfer: ACTIVE persisted, data partial.
  {
    auto txn = CheckpointTxn::begin(idx);
    f.device.fill(txn.data_offset(), idx.slot_size() / 2, std::byte{0xBB});
    // no commit — power failure
  }
  f.device.simulate_crash();

  const auto recovered = MIndex::load(f.device, idx.record_offset());
  ASSERT_EQ(recovered.latest_done_slot(), 0);
  EXPECT_EQ(recovered.slot(1).state, SlotState::kActive);
  // Slot 0's data survived untouched.
  const auto data = f.device.read(recovered.slot(0).data_offset, recovered.slot_size());
  for (auto b : data) EXPECT_EQ(b, std::byte{0xAA});
}

TEST(MIndexTest, DestroyReleasesAllExtents) {
  IndexFixture f;
  auto idx = MIndex::create(f.device, f.alloc, f.reg);
  EXPECT_GT(f.alloc.live_bytes(), 0u);
  idx.destroy(f.alloc);
  EXPECT_EQ(f.alloc.live_bytes(), 0u);
}

}  // namespace
}  // namespace portus::core
