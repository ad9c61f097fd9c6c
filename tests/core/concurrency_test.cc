// Allocator and repacker concurrency (satellite coverage):
//   * real threads racing CAS claims on the same AllocTable entry — the
//     paper's lock-free fast path must hand a freed extent to exactly one
//     winner;
//   * 16 real threads churning a sharded arena (per-worker regions, refill
//     reservations, cross-shard frees) — extents stay disjoint, stats add
//     up, and the persistent sharded table round-trips through recover();
//   * the quiesce guard — Pause drains in-flight ops and fails non-owner
//     alloc/free while compact()/sweep_gaps() rewrite the table;
//   * the lock-free MPSC completion queue under real producer contention;
//   * repack running while a checkpoint transaction is open — the live
//     session's ACTIVE slot must survive, while genuine crash leftovers
//     (no session) are reclaimed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "core/client.h"
#include "core/daemon/allocator.h"
#include "core/daemon/daemon.h"
#include "core/daemon/repacker.h"
#include "core/daemon/slots.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

struct AllocFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator::Config config{.table_offset = 4_KiB,
                               .table_capacity = 2048,
                               .data_offset = 1_MiB,
                               .data_end = 64_MiB};
  PmemAllocator alloc{device, config};
};

TEST(AllocatorConcurrencyTest, RacingClaimsOnOneFreedExtent) {
  // One freed extent, two workers allocating the same size concurrently:
  // the FREE -> CLAIMED compare-&-swap must admit exactly one of them; the
  // loser falls through to the bump region. Repeated to give the race a
  // real chance to interleave both ways.
  for (int round = 0; round < 64; ++round) {
    AllocFixture f;
    const auto freed = f.alloc.alloc(4_KiB);
    f.alloc.free(freed);

    std::atomic<int> ready{0};
    Bytes got[2] = {0, 0};
    auto worker = [&](int id) {
      ready.fetch_add(1);
      while (ready.load() < 2) {}  // line both threads up on the CAS
      got[id] = f.alloc.alloc(4_KiB);
    };
    std::thread t0{worker, 0};
    std::thread t1{worker, 1};
    t0.join();
    t1.join();

    EXPECT_NE(got[0], got[1]);
    const int reused = (got[0] == freed ? 1 : 0) + (got[1] == freed ? 1 : 0);
    EXPECT_EQ(reused, 1) << "freed extent must be claimed exactly once";
    EXPECT_EQ(f.alloc.live_bytes(), 8_KiB);
    EXPECT_EQ(f.alloc.free_listed_bytes(), 0u);
  }
}

TEST(AllocatorConcurrencyTest, ParallelAllocFreeKeepsExtentsDisjoint) {
  AllocFixture f;
  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 200;
  std::vector<std::vector<Bytes>> held(kWorkers);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&f, &held, w] {
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const Bytes size = 1_KiB + static_cast<Bytes>((w * kOpsPerWorker + i) % 7) * 512;
        held[w].push_back(f.alloc.alloc(size));
        if (i % 3 == 2) {  // free a third of our own extents as we go
          f.alloc.free(held[w].back());
          held[w].pop_back();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every LIVE extent in the table is disjoint from every other.
  auto extents = f.alloc.extents();
  Bytes prev_end = 0;
  Bytes live = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "overlapping extents";
    prev_end = e.offset + e.size;
    if (e.state == AllocState::kLive) live += e.size;
  }
  EXPECT_EQ(live, f.alloc.live_bytes());

  // The DRAM mirror round-trips through the persistent AllocTable.
  f.device.persist_all();
  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.live_bytes(), f.alloc.live_bytes());
  EXPECT_EQ(recovered.free_listed_bytes(), f.alloc.free_listed_bytes());
}

// --- sharded arena: 16 real threads, refill reservations, recover() ---------

struct ShardedFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator::Config config{.table_offset = 4_KiB,
                               .table_capacity = 8192,
                               .data_offset = 1_MiB,
                               .data_end = 64_MiB,
                               .shards = 8,
                               .refill_bytes = 256_KiB};
  PmemAllocator alloc{device, config};
};

TEST(AllocatorConcurrencyTest, ShardedArenaStressSixteenThreads) {
  // Two real threads per shard churn allocs and frees the way daemon
  // workers do: pinned to an arena via alloc_on(), occasionally freeing an
  // extent another thread of the same shard allocated. The sharded fast
  // path must keep every LIVE extent disjoint without ever taking a global
  // lock, and the persistent table it leaves behind must recover
  // bit-exactly on a fresh allocator.
  ShardedFixture f;
  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 300;
  const std::uint32_t shard_count = f.alloc.shard_count();

  std::vector<std::vector<Bytes>> held(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}  // maximize interleaving
      const std::uint32_t shard = static_cast<std::uint32_t>(w) % shard_count;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Bytes size = 256 + static_cast<Bytes>((w * kOpsPerThread + i) % 7) * 512;
        held[w].push_back(f.alloc.alloc_on(shard, size));
        if (i % 3 == 2) {
          f.alloc.free(held[w].back());
          held[w].pop_back();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every extent the table tracks is disjoint from every other, the LIVE
  // total matches the counter, and every offset a thread still holds maps
  // to exactly one LIVE extent (first-fit reuse may grant a larger extent
  // than requested, so sizes are checked via the table, not the requests).
  auto extents = f.alloc.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  Bytes prev_end = 0;
  Bytes live = 0;
  std::map<Bytes, int> live_offsets;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "overlapping extents";
    prev_end = e.offset + e.size;
    if (e.state == AllocState::kLive) {
      live += e.size;
      ++live_offsets[e.offset];
    }
  }
  EXPECT_EQ(live, f.alloc.live_bytes());
  std::size_t held_count = 0;
  for (const auto& per_thread : held) {
    held_count += per_thread.size();
    for (const auto off : per_thread) {
      EXPECT_EQ(live_offsets[off], 1) << "held offset not a unique LIVE extent";
    }
  }
  EXPECT_EQ(held_count, live_offsets.size())
      << "LIVE extents the threads do not hold";

  // Per-shard accounting adds up: every op landed somewhere, and the
  // refill path (the only global-bump touch) actually ran under load.
  const auto stats = f.alloc.shard_stats();
  ASSERT_EQ(stats.size(), shard_count);
  std::uint64_t allocs = 0, frees = 0, refills = 0;
  Bytes shard_live = 0;
  for (const auto& s : stats) {
    allocs += s.allocs;
    frees += s.frees;
    refills += s.refills;
    shard_live += s.live;
  }
  EXPECT_EQ(allocs, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(frees, static_cast<std::uint64_t>(kThreads) * (kOpsPerThread / 3));
  EXPECT_GT(refills, 0u) << "refill reservations never exercised";
  EXPECT_EQ(shard_live, f.alloc.live_bytes());

  // The persistent sharded table round-trips: a fresh allocator over the
  // same image recovers the exact live/free accounting (reservation tails
  // reset; they are heap gaps until sweep_gaps() adopts them).
  f.device.persist_all();
  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.shard_count(), shard_count);
  EXPECT_EQ(recovered.live_bytes(), f.alloc.live_bytes());
  EXPECT_EQ(recovered.free_listed_bytes(), f.alloc.free_listed_bytes());

  // The recovered allocator is immediately serviceable on every shard.
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const auto off = recovered.alloc_on(s, 1_KiB);
    EXPECT_GE(off, f.config.data_offset);
    recovered.free(off);
  }
}

TEST(AllocatorConcurrencyTest, PauseFailsNonOwnersAndExemptsOwner) {
  ShardedFixture f;
  const auto mine = f.alloc.alloc(4_KiB);

  PmemAllocator::Pause pause{f.alloc};
  EXPECT_TRUE(f.alloc.quiesced());

  // Non-owner threads must fail loudly instead of racing the table rewrite.
  std::thread other{[&] {
    EXPECT_THROW(f.alloc.alloc(1_KiB), InvalidArgument);
    EXPECT_THROW(f.alloc.free(mine), InvalidArgument);
  }};
  other.join();

  // The owning thread's own ops are exempt (repacker/fsck free extents
  // while holding the Pause), and the guard is re-entrant.
  const auto owner_extent = f.alloc.alloc(1_KiB);
  {
    PmemAllocator::Pause nested{f.alloc};
    f.alloc.free(owner_extent);
  }
  EXPECT_TRUE(f.alloc.quiesced()) << "nested release dropped the outer pause";
  f.alloc.free(mine);
}

TEST(AllocatorConcurrencyTest, CompactAndSweepUnderChurnStayConsistent) {
  // Maintenance passes self-quiesce; churn threads treat the transient
  // InvalidArgument as backpressure and retry, exactly like a daemon worker
  // re-admitting a request after a repack pass. Nothing may be lost or
  // double-handed either way.
  ShardedFixture f;
  constexpr int kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<Bytes> mine;
      const std::uint32_t shard = static_cast<std::uint32_t>(w) % f.alloc.shard_count();
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          if (mine.size() < 16) {
            mine.push_back(f.alloc.alloc_on(shard, 512 + (w % 4) * 256));
          } else {
            f.alloc.free(mine.back());
            mine.pop_back();
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const InvalidArgument&) {
          // quiesced: retry after the maintenance pass releases
        }
      }
      for (const auto off : mine) {
        for (;;) {
          try {
            f.alloc.free(off);
            break;
          } catch (const InvalidArgument&) {
          }
        }
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    f.alloc.compact();
    f.alloc.sweep_gaps();
    // Insist on churn progress between passes — otherwise the maintenance
    // loop can finish before the workers are even scheduled and the test
    // never interleaves the two.
    const auto target = completed.load() + 50;
    while (completed.load() < target) std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(completed.load(), 0u);

  // Quiet now: a final compact + sweep must leave zero leaks — every byte
  // below the bump pointer tracked by exactly one table entry.
  f.alloc.compact();
  f.alloc.sweep_gaps();
  EXPECT_EQ(f.alloc.live_bytes(), 0u) << "all extents were freed";
  auto extents = f.alloc.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  Bytes tracked = 0;
  Bytes prev_end = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "overlapping extents";
    prev_end = e.offset + e.size;
    tracked += e.size;
  }
  EXPECT_EQ(tracked, f.alloc.bump() - f.config.data_offset) << "heap bytes leaked";

  f.device.persist_all();
  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.live_bytes(), 0u);
}

TEST(AllocatorConcurrencyTest, CheckpointStormVsIncrementalCompaction) {
  // The online repacker's schedule from a real-thread angle: checkpoint
  // workers churn paired slot extents (every model holds two slots; a
  // finished job frees both) while a dedicated maintenance thread runs
  // *incremental* compaction — many short bounded Pause windows, each
  // freeing and sweeping a little, instead of one long stop-the-world
  // quiesce. Workers treat the transient InvalidArgument during a window
  // exactly like admission Backpressure and retry.
  ShardedFixture f;
  constexpr int kWorkers = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checkpoints{0};

  // Retry exactly ONE allocator call until it clears a maintenance window.
  // The retry unit must be the individual op, not a compound sequence: a
  // window opening between free(slot0) and free(slot1) must not re-run the
  // first free (double free) or drop an already-granted allocation.
  const auto with_retry = [&](auto op) {
    for (;;) {
      try {
        return op();
      } catch (const InvalidArgument& e) {
        if (std::string_view{e.what()}.find("quiesced") == std::string_view::npos) throw;
        std::this_thread::yield();  // window open: back off and retry
      }
    }
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const std::uint32_t shard = static_cast<std::uint32_t>(w) % f.alloc.shard_count();
      std::vector<std::pair<Bytes, Bytes>> slots;  // (slot0, slot1) per model
      while (!stop.load(std::memory_order_relaxed)) {
        if (slots.size() < 8) {
          const Bytes size = 1_KiB + static_cast<Bytes>(w % 4) * 512;
          const auto s0 = with_retry([&] { return f.alloc.alloc_on(shard, size); });
          const auto s1 = with_retry([&] { return f.alloc.alloc_on(shard, size); });
          slots.emplace_back(s0, s1);
        } else {  // FINISH_JOB: both slots of the oldest model reclaimed
          with_retry([&] { f.alloc.free(slots.front().first); });
          with_retry([&] { f.alloc.free(slots.front().second); });
          slots.erase(slots.begin());
        }
        checkpoints.fetch_add(1, std::memory_order_relaxed);
      }
      for (const auto& [s0, s1] : slots) {
        with_retry([&] { f.alloc.free(s0); });
        with_retry([&] { f.alloc.free(s1); });
      }
    });
  }

  // Maintenance thread: 24 short windows. Holding the Pause while calling
  // the self-quiescing sweeps is the owner-exemption/re-entrancy contract
  // repack_online relies on.
  std::atomic<int> windows{0};
  std::thread maintenance{[&] {
    for (int round = 0; round < 24; ++round) {
      {
        PmemAllocator::Pause pause{f.alloc};
        f.alloc.sweep_gaps();
        f.alloc.compact();
      }
      windows.fetch_add(1, std::memory_order_relaxed);
      // Insist on churn progress between windows so the two actually
      // interleave instead of the maintenance loop finishing first.
      const auto target = checkpoints.load() + 25;
      while (checkpoints.load() < target) std::this_thread::yield();
    }
  }};
  maintenance.join();
  stop.store(true);
  for (auto& t : workers) t.join();
  EXPECT_EQ(windows.load(), 24);
  EXPECT_GT(checkpoints.load(), 0u);

  // Quiet: everything was freed, and no byte below the bump pointer leaked
  // through the interleaved windows.
  f.alloc.compact();
  f.alloc.sweep_gaps();
  EXPECT_EQ(f.alloc.live_bytes(), 0u);
  auto extents = f.alloc.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  Bytes tracked = 0;
  Bytes prev_end = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "overlapping extents";
    prev_end = e.offset + e.size;
    tracked += e.size;
  }
  EXPECT_EQ(tracked, f.alloc.bump() - f.config.data_offset) << "heap bytes leaked";

  f.device.persist_all();
  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.live_bytes(), 0u);
}

// --- NUMA-partitioned arena: socket pinning under real threads ---------------

struct NumaShardedFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000, pmem::PmemPerfModel::optane_numa(2)};
  PmemAllocator::Config config{.table_offset = 4_KiB,
                               .table_capacity = 8192,
                               .data_offset = 1_MiB,
                               .data_end = 64_MiB,
                               .shards = 8,
                               .refill_bytes = 256_KiB,
                               .numa_nodes = 2,
                               // Tight class boundaries so the stress mix
                               // exercises all three classes while the
                               // working set still fits one node partition.
                               .size_class_small = 1_KiB,
                               .size_class_large = 16_KiB};
  PmemAllocator alloc{device, config};
};

TEST(AllocatorConcurrencyTest, NumaShardedStressKeepsAllocsSocketLocal) {
  // Two real threads per socket-pinned shard churn mixed-size-class allocs
  // and frees. The working set fits each node's partition, so every grant
  // must stay on its shard's own socket (the spill counters stay zero), the
  // two partitions' extents stay disjoint, and the partitioned table
  // recovers bit-exactly with the extended header intact.
  NumaShardedFixture f;
  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 200;
  const std::uint32_t shard_count = f.alloc.shard_count();

  std::vector<std::vector<Bytes>> held(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}  // maximize interleaving
      const std::uint32_t shard = static_cast<std::uint32_t>(w) % shard_count;
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Cycle through the three size classes (small / medium / large).
        const int c = (w * kOpsPerThread + i) % 3;
        const Bytes size = c == 0 ? 512 : c == 1 ? 8_KiB : 32_KiB;
        held[w].push_back(f.alloc.alloc_on(shard, size));
        if (i % 3 == 2) {
          f.alloc.free(held[w].back());
          held[w].pop_back();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // LIVE extents are disjoint and the totals add up.
  auto extents = f.alloc.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  Bytes prev_end = 0;
  Bytes live = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "overlapping extents";
    prev_end = e.offset + e.size;
    if (e.state == AllocState::kLive) live += e.size;
  }
  EXPECT_EQ(live, f.alloc.live_bytes());

  // Socket pinning: every shard refilled only from its own node's bump, so
  // nothing spilled and the per-node bumps stay inside their partitions.
  Bytes reserved = 0;
  for (const auto& s : f.alloc.shard_stats()) {
    EXPECT_EQ(s.node, f.alloc.node_of_shard(s.shard));
    EXPECT_GT(s.refills, 0u) << "shard " << s.shard << " never refilled";
    EXPECT_EQ(s.remote_refills, 0u) << "shard " << s.shard << " spilled off-node";
    EXPECT_EQ(s.cross_steals, 0u);
    reserved += s.reserved;
  }
  for (const auto& e : extents) {
    const auto node = f.alloc.node_of_offset(e.offset);
    EXPECT_EQ(node, f.device.node_of(e.offset));
    const auto [base, end] = f.alloc.node_partition(node);
    EXPECT_GE(e.offset, base);
    EXPECT_LE(e.offset + e.size, end);
  }
  for (std::uint32_t n = 0; n < f.alloc.numa_node_count(); ++n) {
    const auto [base, end] = f.alloc.node_partition(n);
    EXPECT_GE(f.alloc.node_bump(n), base);
    EXPECT_LE(f.alloc.node_bump(n), end);
  }
  // No crash happened, so every consumed byte is live, free-listed, or in
  // an unconsumed shard reservation — nothing leaked between the arenas.
  EXPECT_EQ(f.alloc.live_bytes() + f.alloc.free_listed_bytes() + reserved,
            f.alloc.consumed_bytes());

  // Recovery over the partitioned image: accounting round-trips, the
  // extended header carries the partition count, and after sweep_gaps()
  // adopts the abandoned reservation tails every consumed byte is tracked.
  f.device.persist_all();
  PmemAllocator recovered{f.device, f.config};
  recovered.recover();
  EXPECT_EQ(recovered.live_bytes(), f.alloc.live_bytes());
  EXPECT_EQ(recovered.free_listed_bytes(), f.alloc.free_listed_bytes());
  const auto scrub = recovered.scrub_table();
  EXPECT_TRUE(scrub.header_valid);
  EXPECT_EQ(scrub.numa_nodes, 2u);
  recovered.sweep_gaps();
  Bytes tracked = 0;
  for (const auto& e : recovered.extents()) tracked += e.size;
  EXPECT_EQ(tracked, recovered.consumed_bytes()) << "heap bytes leaked";

  // The recovered allocator is serviceable on every shard, still socket-
  // local.
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const auto off = recovered.alloc_on(s, 1_KiB);
    EXPECT_EQ(recovered.node_of_offset(off), recovered.node_of_shard(s));
    recovered.free(off);
  }
}

// --- lock-free completion queue ---------------------------------------------

TEST(MpscQueueConcurrencyTest, EightProducersOneConsumerDeliverEverything) {
  // The RDMA completion path pushes from NIC-side executors and drains from
  // the daemon poller. Per-producer FIFO order and zero loss under real
  // contention are the two properties the CQ relies on.
  MpscQueue<std::uint64_t> q;
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 5000;

  std::vector<std::uint64_t> got;
  got.reserve(kProducers * kPerProducer);
  std::thread consumer{[&] {
    while (got.size() < kProducers * kPerProducer) {
      if (auto v = q.try_pop()) {
        got.push_back(*v);
      } else {
        std::this_thread::yield();  // transiently busy or empty
      }
    }
  }};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push(static_cast<std::uint64_t>(p) * 1'000'000 + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  std::map<std::uint64_t, std::uint64_t> next;  // producer -> expected seq
  for (const auto v : got) {
    const auto p = v / 1'000'000;
    const auto i = v % 1'000'000;
    EXPECT_EQ(i, next[p]) << "per-producer FIFO order violated";
    next[p] = i + 1;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<std::uint64_t>(p)], kPerProducer);
  }
  EXPECT_TRUE(q.empty());
}

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon = std::make_unique<PortusDaemon>(
      *cluster, cluster->node("server"), rendezvous, PortusDaemon::Config{});
  Rig() { daemon->start(); }
  ~Rig() { eng.shutdown(); }
};

TEST(RepackerConcurrencyTest, RepackSparesOpenCheckpointTxn) {
  Rig r;
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
  }(client, model));
  r.eng.run();

  MIndex* idx = r.daemon->find_live_index("alexnet");
  ASSERT_NE(idx, nullptr);

  // A checkpoint is mid-flight: its slot is ACTIVE with the DONE flag still
  // pending. Repack must not treat it as a crash leftover — the session is
  // live and the transfer may still be running.
  auto txn = CheckpointTxn::begin(*idx);
  const auto active_offset = idx->slot(txn.slot()).data_offset;
  ASSERT_NE(active_offset, 0u);
  ASSERT_EQ(idx->slot(txn.slot()).state, SlotState::kActive);

  const auto report = Repacker{*r.daemon}.repack();
  EXPECT_EQ(report.slots_cleared, 0);
  EXPECT_EQ(report.freed_crashed, 0u);
  EXPECT_EQ(idx->slot(txn.slot()).state, SlotState::kActive);
  EXPECT_EQ(idx->slot(txn.slot()).data_offset, active_offset);

  // The surviving transaction commits normally after the repack pass.
  std::vector<std::uint32_t> crcs;
  for (const auto& t : idx->tensors()) {
    crcs.push_back(idx->device().crc(txn.data_offset() + t.offset_in_slot, t.size));
  }
  txn.commit(crcs);
  EXPECT_EQ(idx->slot(txn.slot()).state, SlotState::kDone);
  EXPECT_EQ(idx->max_epoch(), 1u);
}

TEST(RepackerConcurrencyTest, RepackReclaimsActiveSlotWithoutSession) {
  Rig r;
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(client, model));
  r.eng.run();

  // Crash mid-checkpoint: the second slot goes ACTIVE, then the daemon
  // restarts. No session survives, so the ACTIVE slot is a crash leftover.
  {
    MIndex* idx = r.daemon->find_live_index("alexnet");
    ASSERT_NE(idx, nullptr);
    auto txn = CheckpointTxn::begin(*idx);
    (void)txn;  // never committed: simulated crash before DONE
  }
  r.daemon->device().persist_all();
  r.daemon->recover();
  ASSERT_EQ(r.daemon->find_live_index("alexnet"), nullptr);

  const auto report = Repacker{*r.daemon}.repack();
  EXPECT_EQ(report.slots_cleared, 1);
  EXPECT_GT(report.freed_crashed, 0u);

  // The committed epoch-1 version is untouched and still restorable.
  const auto idx = r.daemon->load_index("alexnet");
  ASSERT_TRUE(idx.latest_done_slot().has_value());
  EXPECT_EQ(idx.slot(*idx.latest_done_slot()).epoch, 1u);
}

}  // namespace
}  // namespace portus::core
