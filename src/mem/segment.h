// MemorySegment: a named, addressable range of simulated device memory.
//
// Every byte store in the reproduction lives in some segment — a node's
// DRAM, a GPU's device memory, or a PMEM DIMM namespace. Segments give the
// RDMA layer and the copy engines one uniform substrate: a memory region is
// (segment, offset, length), and a transfer is a bounds-checked copy between
// two segments plus a virtual-time cost.
//
// Storage is *sparse*: segments can be terabyte-scale (a 768 GiB PMEM
// namespace, a 48 GiB GPU) while only pages that were actually written are
// materialized. Unwritten ranges read as zeros. Large-model benchmarks mark
// their payloads "phantom" at the buffer/MR level so no pages materialize at
// all; functional tests use real bytes and verify them with CRCs.
//
// Addresses: each segment is assigned a non-overlapping range in a 64-bit
// *global address space* (see address_space.h) so the daemon can hold
// "persistent pointers" and "remote GPU addresses" as plain integers the way
// the real system does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace portus::mem {

enum class MemoryKind : std::uint8_t {
  kDram = 0,
  kGpu = 1,
  kPmem = 2,
};

const char* to_string(MemoryKind kind);

class MemorySegment {
 public:
  static constexpr Bytes kPageSize = 256_KiB;

  MemorySegment(std::string name, MemoryKind kind, Bytes size, std::uint64_t base_addr);
  virtual ~MemorySegment() = default;
  MemorySegment(const MemorySegment&) = delete;
  MemorySegment& operator=(const MemorySegment&) = delete;

  const std::string& name() const { return name_; }
  MemoryKind kind() const { return kind_; }
  Bytes size() const { return size_; }

  // Global-address-space base of this segment. offset o in this segment has
  // global address base_addr() + o.
  std::uint64_t base_addr() const { return base_addr_; }
  bool contains_global(std::uint64_t addr, Bytes len) const {
    return addr >= base_addr_ && addr + len <= base_addr_ + size_ && addr + len >= addr;
  }
  Bytes to_offset(std::uint64_t global_addr) const {
    PORTUS_CHECK_ARG(contains_global(global_addr, 0), "global address outside segment");
    return global_addr - base_addr_;
  }

  // Bounds-checked, page-chunked access. Reads of never-written ranges
  // yield zeros. write() notifies mark_dirty (PMEM persistence tracking).
  virtual void write(Bytes offset, std::span<const std::byte> data);
  void read_into(Bytes offset, std::span<std::byte> out) const;
  std::vector<std::byte> read(Bytes offset, Bytes len) const;
  void fill(Bytes offset, Bytes len, std::byte value);

  // CRC-32 of a range without materializing a temporary copy.
  std::uint32_t crc(Bytes offset, Bytes len) const;

  // Persist/restore the materialized pages to a host stream ("PIMG"
  // format). This is how a simulated PMEM device image survives across
  // tool invocations (portusctl demo/view/dump operate on image files).
  void save_image(std::ostream& out) const;
  void load_image(std::istream& in);

  // Bytes currently backed by real storage (diagnostics / tests).
  Bytes materialized_bytes() const {
    std::lock_guard lock{pages_mu_};
    return pages_.size() * kPageSize;
  }

  // Persistence hook: default no-op (DRAM/GPU are volatile; PMEM overrides).
  virtual void mark_dirty(Bytes offset, Bytes len);

 protected:
  void check_range(Bytes offset, Bytes len) const {
    PORTUS_CHECK_ARG(offset + len <= size_ && offset + len >= offset,
                     "segment access out of bounds: " + name_);
  }
  // Raw page-level write that bypasses the mark_dirty hook (used by PMEM
  // crash simulation to scramble unpersisted ranges).
  void write_raw(Bytes offset, std::span<const std::byte> data);
  void fill_raw(Bytes offset, Bytes len, std::byte value);

 private:
  std::byte* page_for_write(Bytes page_index);
  const std::byte* page_for_read(Bytes page_index) const;  // nullptr => zeros

  template <typename Fn>
  void for_each_chunk(Bytes offset, Bytes len, Fn&& fn) const;

  std::string name_;
  MemoryKind kind_;
  Bytes size_;
  std::uint64_t base_addr_;
  // Guards the page map only: the simulation is single-threaded, but unit
  // tests stress the daemon's lock-free allocator (which writes through to
  // PMEM) from real threads, and real PMEM tolerates concurrent stores to
  // distinct lines.
  mutable std::mutex pages_mu_;
  // Pages come zeroed from calloc: memory fresh from the OS is zero
  // already, so a new page costs only the frames its writes touch.
  struct FreePage {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  using Page = std::unique_ptr<std::byte[], FreePage>;
  static Page new_page();
  std::unordered_map<Bytes, Page> pages_;
};

// Chunked copy between two segments (real byte movement; no time cost —
// timing is the caller's concern). Ranges are bounds-checked.
void copy_bytes(MemorySegment& dst, Bytes dst_off, const MemorySegment& src, Bytes src_off,
                Bytes len);

}  // namespace portus::mem
