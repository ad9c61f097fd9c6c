// Sharded PMEM allocator with a persistent AllocTable (SS III-B).
//
// The daemon allocates contiguous TensorData regions and MIndex records out
// of the devdax namespace. Allocation status lives in two places:
//   * a DRAM mirror with std::atomic entry states, claimed by
//     compare-&-swap — the paper's lock-free fast path ("we apply the
//     compare & swap intrinsic to ensure the lock-free of the whole system");
//   * the persistent AllocTable region on PMEM, written through after every
//     state change so a restarted daemon can rebuild its heap.
//
// The table is split into N per-shard arenas so concurrent workers do not
// serialize on one set of cache lines (DiStore-style segment preallocation):
//
//   [64 B header: magic | shards | per-shard capacity | geometry | crc]
//   [shard 0: per_shard_capacity x 24 B entries]
//   ...
//   [shard N-1: per_shard_capacity x 24 B entries]
//
// Each shard owns its entry range, its own free list (CAS FREE -> CLAIMED
// reuse, first fit), and a private bump *reservation* carved from the global
// bump pointer in refill_bytes chunks — with refill enabled a worker only
// touches shared state once per refill, not once per alloc. Refilling a
// shard that still holds reservation leftovers first publishes the leftover
// as a FREE entry (its persist is the mid-refill crash fence: a power cut
// there leaves either the old reservation tracked or a clean FREE extent,
// never a double-owned range). A crash abandons unpublished reservation
// tails as heap gaps; recover() rebuilds per shard and sweep_gaps() adopts
// the gaps back.
//
// Allocation policy per shard: own free list (size-class segregated) ->
// reservation -> refill from the home NUMA node's bump -> steal a freed
// extent from a same-node shard -> cross-node steal -> refill from a remote
// node's bump -> throw. Freed extents are indexed by offset in a DRAM hash
// map so free() is O(1).
//
// NUMA (Config::numa_nodes > 1): the heap is partitioned into one
// contiguous slice per socket (matching PmemDevice::node_range) with an
// independent bump pointer each; every shard is pinned to the node owning
// its refill source, so a session routed to a socket-local shard keeps all
// of its records — and therefore all of its persist traffic — on that
// socket's DIMMs. Cross-node steals/refills are the spill path and are
// counted separately: the modeled cross-socket tax is charged where the
// bytes move (the pipeline's locality-tagged flows), the allocator just
// decides placement.
//
// Size classes (small/medium/large by Config::size_class_*): free-list
// reuse claims only extents of the request's class or larger classes,
// fixing the mixed-size over-grant where first fit burned a large extent on
// a small request. Adaptive refill (Config::adaptive_refill) scales a
// shard's next reservation by an EWMA of the bytes it allocated between
// refills, so hot shards touch the shared bump less often.
//
// Defaults (shards = 1, refill_bytes = 0, numa_nodes = 1) degenerate to the
// classic single arena: every fresh alloc reserves exactly its own size
// from the global bump, so offsets, table contents and compaction behave
// bit-identically to the unsharded allocator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "pmem/pmem_device.h"

namespace portus::core {

enum class AllocState : std::uint32_t { kFree = 0, kClaimed = 1, kLive = 2 };

class PmemAllocator {
 public:
  struct Config {
    Bytes table_offset = 0;       // persistent AllocTable location
    std::uint32_t table_capacity = 4096;  // max tracked extents (all shards)
    Bytes data_offset = 0;        // heap start
    Bytes data_end = 0;           // heap end (exclusive)
    Bytes alignment = 256;        // XPLine alignment
    std::uint32_t shards = 1;     // per-worker arenas (table split N ways)
    // Reservation chunk a shard grabs from the global bump when its local
    // region runs dry. 0 = reserve exactly the requested size (classic
    // bump-per-alloc behavior, no leftovers).
    Bytes refill_bytes = 0;
    // NUMA partitions of the heap. Must divide the device topology
    // (PmemDevice::numa_nodes) and be <= shards; 1 = flat classic heap.
    std::uint32_t numa_nodes = 1;
    // Size-class boundaries for free-list segregation: size <= small ->
    // class 0, size <= large -> class 1, else class 2. small = 0 disables
    // segregation (pure first fit over the whole shard list).
    Bytes size_class_small = 4096;
    Bytes size_class_large = 262144;
    // Scale refill reservations by an EWMA of per-shard demand between
    // refills, clamped to [refill_bytes, 8 * refill_bytes]. Inert while
    // refill_bytes == 0 (there is nothing to scale).
    bool adaptive_refill = true;
  };

  struct Extent {
    Bytes offset = 0;
    Bytes size = 0;
    AllocState state = AllocState::kFree;
  };

  // Per-shard observability (portusctl stats / cluster-status).
  struct ShardStats {
    std::uint32_t shard = 0;
    std::uint32_t node = 0;      // NUMA node this shard's arena is pinned to
    std::uint32_t entries = 0;   // table slots in use (including dead ones)
    std::uint32_t capacity = 0;  // per-shard entry capacity
    Bytes live = 0;
    Bytes free_listed = 0;
    Bytes reserved = 0;          // unconsumed local reservation
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t refills = 0;     // node-bump reservations taken
    std::uint64_t reuse_hits = 0;  // allocs served from the own free list
    std::uint64_t steals = 0;      // allocs served from another shard's list
    std::uint64_t cross_steals = 0;    // ...from a shard on another node
    std::uint64_t remote_refills = 0;  // reservations carved off another node
    std::uint64_t scan_steps = 0;      // free-list entries examined by claims
    // Free-list entry counts per size class (advisory counters).
    std::uint32_t free_small = 0;
    std::uint32_t free_medium = 0;
    std::uint32_t free_large = 0;
    Bytes refill_chunk = 0;  // next reservation size the demand EWMA implies
  };

  // Persistent-table scrub (fsck pass 0): re-validate the sharded header
  // and every entry's CRC straight from the device, independent of the
  // DRAM mirror. recover() silently skips torn entries — their extents
  // resurface as heap gaps — so this is the only place their count is
  // observable. Never-written (all-zero) slots do not count as torn.
  struct TableScrub {
    bool header_valid = false;
    std::uint32_t shards = 0;
    std::uint32_t numa_nodes = 0;  // from the extended header (1 = flat)
    std::uint32_t torn_entries = 0;
  };

  // RAII quiesce guard: blocks until every in-flight alloc()/free() has
  // drained, then fails new ones until released. compact()/sweep_gaps()
  // acquire it themselves; maintenance passes that also free extents
  // (repacker, fsck repair) hold one Pause across the whole pass — the
  // owning thread's own alloc/free calls are exempt, everyone else's throw
  // instead of silently racing the table rewrite. Re-entrant per thread.
  class Pause {
   public:
    explicit Pause(PmemAllocator& a) : a_{a} { a_.quiesce_acquire(); }
    ~Pause() { a_.quiesce_release(); }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    PmemAllocator& a_;
  };

  // Thread-local placement hint: while alive, plain alloc() on this thread
  // targets `shard` instead of shard 0. The daemon wraps a
  // session's MIndex allocations in one so its records land on the
  // session's home (socket-local) shard. Nestable; restores the previous
  // hint on destruction.
  class ScopedHome {
   public:
    explicit ScopedHome(std::uint32_t shard);
    ~ScopedHome();
    ScopedHome(const ScopedHome&) = delete;
    ScopedHome& operator=(const ScopedHome&) = delete;

   private:
    std::uint64_t prev_;
  };

  PmemAllocator(pmem::PmemDevice& device, Config config);

  // Allocate `size` bytes; returns the device offset. Thread-safe: CAS
  // free-list claims + shard-local reservations (the global bump is only
  // touched on refill). Lands on the thread's ScopedHome shard, or on
  // shard 0 without one, so placement never depends on thread identity.
  Bytes alloc(Bytes size);
  // Same, on an explicit shard (daemon workers pin their own arena).
  Bytes alloc_on(std::uint32_t shard, Bytes size);

  // Release a previously allocated extent (by its exact offset). O(1):
  // the extent is looked up in the DRAM offset index, not scanned.
  void free(Bytes offset);

  // Rebuild the DRAM mirror from the persistent AllocTable (daemon restart).
  // Validates the sharded-table header; reservations reset to empty (a
  // crash-abandoned reservation tail becomes a heap gap for sweep_gaps()).
  void recover();

  // --- introspection / repacker support ---
  // Node 0's bump pointer — the only one on a flat (numa_nodes = 1) heap,
  // where it keeps its classic meaning. Multi-node consumers want
  // consumed_bytes() / node_bump().
  Bytes bump() const { return arenas_[0]->bump.load(std::memory_order_relaxed); }
  // Total bump consumption across every node partition (== bump() -
  // data_offset on a flat heap). Untracked gaps count until swept.
  Bytes consumed_bytes() const;
  Bytes live_bytes() const;
  Bytes free_listed_bytes() const;  // freed-but-not-reclaimed extents
  Bytes capacity() const { return config_.data_end - config_.data_offset; }
  std::uint32_t shard_count() const { return config_.shards; }
  std::uint32_t numa_node_count() const { return config_.numa_nodes; }
  std::uint32_t node_of_shard(std::uint32_t shard) const {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(shard) *
                                      config_.numa_nodes / config_.shards);
  }
  std::uint32_t node_of_offset(Bytes offset) const;
  // [base, end) of a node's heap slice; bump starts at base.
  std::pair<Bytes, Bytes> node_partition(std::uint32_t node) const {
    return {arenas_.at(node)->base, arenas_.at(node)->end};
  }
  Bytes node_bump(std::uint32_t node) const {
    return arenas_.at(node)->bump.load(std::memory_order_relaxed);
  }
  std::vector<Extent> extents() const;
  std::vector<ShardStats> shard_stats() const;
  TableScrub scrub_table() const;
  bool quiesced() const { return paused_.load(std::memory_order_acquire); }

  // Reclaim trailing free extents into the bump region and drop free
  // entries that were fully reabsorbed. Self-quiescing: acquires a Pause
  // (no-op if the calling thread already holds one) so live allocation
  // cannot race the rewrite. Shard reservations are flushed back to FREE
  // entries first so their tails are reclaimable too.
  Bytes compact();

  // Adopt untracked heap bytes back as FREE extents. A crash can tear an
  // AllocTable entry whose extent sits *between* surviving entries, or
  // abandon a shard reservation's unpublished tail: recover() skips them,
  // the bump pointer stays beyond, and the bytes leak. Every hole below
  // the bump pointer becomes a FREE entry again (reusing a dead table slot
  // or appending one). Returns the adopted byte count. Self-quiescing like
  // compact().
  Bytes sweep_gaps();

  static constexpr Bytes kHeaderSize = 64;
  static constexpr Bytes kEntrySize = 24;  // offset u64 | size u64 | state u32 | crc u32
  static constexpr int kSizeClasses = 3;   // small / medium / large

  // Bucket index for the DRAM offset map. Offsets are XPLine-aligned
  // multiples of 256 (and node partitioning makes the high bits regular
  // too), so hashing must actually mix: std::hash on integers is the
  // identity on libstdc++, which collapsed every entry into bucket 0.
  // Exposed for the fan-out unit test.
  static std::size_t offset_bucket(Bytes offset) {
    std::uint64_t x = offset;
    x ^= x >> 33;
    x *= 0x9E3779B97F4A7C15ull;  // golden-ratio (Fibonacci) multiplier
    x ^= x >> 29;
    return static_cast<std::size_t>(x & (kMapBuckets - 1));
  }

 private:
  struct Entry {
    Bytes offset = 0;
    Bytes size = 0;
    std::atomic<std::uint32_t> state{0};
  };

  struct Shard {
    std::vector<std::unique_ptr<Entry>> entries;
    std::atomic<std::uint32_t> entry_count{0};
    std::uint32_t node = 0;  // NUMA node whose bump refills this shard
    // Serializes the persist write-through only (device_.write of entry
    // images). Real PMEM updates entries with 8-byte atomic stores + clwb;
    // the simulated device writes via memcpy, so racing re-persists of the
    // same entry — benign by the convergence loop in persist_entry() —
    // would still be a C++ data race without this. Never touched by the
    // CAS claim fast path itself, only around the device write.
    std::mutex persist_mu;
    std::mutex res_mu;     // guards the local reservation cursor
    Bytes res_cursor = 0;  // next unconsumed reservation byte
    Bytes res_end = 0;     // reservation end (exclusive)
    // Adaptive-refill demand tracking, guarded by res_mu: bytes consumed
    // from the reservation since the last refill, and the refill-to-refill
    // EWMA that sizes the next chunk.
    Bytes since_refill = 0;
    double demand_ewma = 0.0;
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> reuse_hits{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> cross_steals{0};
    std::atomic<std::uint64_t> remote_refills{0};
    std::atomic<std::uint64_t> scan_steps{0};
    // Per-class free-entry counts. Advisory: a racing free() sits between
    // its state CAS and the counter bump for a moment, so a claim may see
    // 0 and fall through to fresh space — safe, never lost, just briefly
    // less thrifty. Signed so the transient undercount can dip below zero.
    std::array<std::atomic<std::int32_t>, kSizeClasses> free_by_class{};
  };

  // One bump arena per NUMA node (a single arena spanning the whole heap
  // when numa_nodes == 1).
  struct NodeArena {
    Bytes base = 0;
    Bytes end = 0;
    std::atomic<Bytes> bump{0};
  };

  // DRAM offset -> (shard, entry) index for O(1) free(); bucketed so
  // concurrent inserts/lookups shard their locks too.
  static constexpr std::size_t kMapBuckets = 64;
  struct MapBucket {
    mutable std::mutex mu;
    std::unordered_map<Bytes, std::uint64_t> loc;  // offset -> shard<<32|index
  };

  // Throws unless alloc/free are admissible (quiesce guard); counts the op.
  struct OpGuard {
    explicit OpGuard(const PmemAllocator& a);
    ~OpGuard();
    const PmemAllocator& a_;
  };

  void write_header();
  bool header_matches() const;  // valid CRC + this geometry
  void persist_entry(std::uint32_t shard, std::uint32_t index);
  Bytes table_slot_offset(std::uint32_t shard, std::uint32_t index) const {
    const auto global = static_cast<Bytes>(shard) * per_shard_capacity_ + index;
    return config_.table_offset + kHeaderSize + global * kEntrySize;
  }
  std::uint32_t preferred_shard() const;
  bool segregated() const { return config_.size_class_small > 0; }
  int class_of(Bytes size) const {
    if (!segregated()) return 0;
    if (size <= config_.size_class_small) return 0;
    if (size <= config_.size_class_large) return 1;
    return 2;
  }
  void note_free_entries(Shard& sh, Bytes size, int delta) {
    sh.free_by_class[class_of(size)].fetch_add(delta, std::memory_order_relaxed);
  }
  std::optional<Bytes> claim_free_extent(std::uint32_t shard, Bytes size);
  // Carve `chunk` bytes off a node's bump arena; nullopt when it is full.
  std::optional<Bytes> reserve_from_node(std::uint32_t node, Bytes chunk);
  // Size of the next reservation for this shard (adaptive EWMA or the
  // static refill_bytes), aligned and at least `size`. Caller holds res_mu.
  Bytes refill_chunk_size(Shard& sh, Bytes size);
  // Publish a shard's unconsumed reservation as a FREE entry and empty it.
  // Caller holds shard.res_mu (alloc refill) or the quiesce pause.
  void flush_reservation(std::uint32_t shard);
  void map_insert(Bytes offset, std::uint32_t shard, std::uint32_t index);
  void map_erase(Bytes offset);
  std::optional<std::pair<std::uint32_t, std::uint32_t>> map_find(Bytes offset) const;
  MapBucket& bucket_for(Bytes offset) const { return map_[offset_bucket(offset)]; }

  void quiesce_acquire();
  void quiesce_release();
  bool quiesced_by_me() const;

  pmem::PmemDevice& device_;
  Config config_;
  std::uint32_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::array<MapBucket, kMapBuckets> map_;
  std::vector<std::unique_ptr<NodeArena>> arenas_;  // one per NUMA node

  // Quiesce guard state (see Pause).
  mutable std::atomic<int> active_ops_{0};
  std::atomic<bool> paused_{false};
  std::atomic<std::thread::id> pause_owner_{};
  int pause_depth_ = 0;  // owner-thread only
};

}  // namespace portus::core
