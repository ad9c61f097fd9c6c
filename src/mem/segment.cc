#include "mem/segment.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <new>
#include <ostream>
#include <vector>

#include "common/crc32.h"

namespace portus::mem {

const char* to_string(MemoryKind kind) {
  switch (kind) {
    case MemoryKind::kDram: return "DRAM";
    case MemoryKind::kGpu: return "GPU";
    case MemoryKind::kPmem: return "PMEM";
  }
  return "?";
}

MemorySegment::MemorySegment(std::string name, MemoryKind kind, Bytes size,
                             std::uint64_t base_addr)
    : name_{std::move(name)}, kind_{kind}, size_{size}, base_addr_{base_addr} {
  PORTUS_CHECK_ARG(size > 0, "segment size must be positive");
}

MemorySegment::Page MemorySegment::new_page() {
  Page page{static_cast<std::byte*>(std::calloc(kPageSize, 1))};
  if (!page) throw std::bad_alloc{};
  return page;
}

std::byte* MemorySegment::page_for_write(Bytes page_index) {
  std::lock_guard lock{pages_mu_};
  auto& slot = pages_[page_index];
  if (!slot) slot = new_page();
  return slot.get();
}

const std::byte* MemorySegment::page_for_read(Bytes page_index) const {
  std::lock_guard lock{pages_mu_};
  const auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.get();
}

template <typename Fn>
void MemorySegment::for_each_chunk(Bytes offset, Bytes len, Fn&& fn) const {
  Bytes pos = offset;
  const Bytes end = offset + len;
  while (pos < end) {
    const Bytes page = pos / kPageSize;
    const Bytes in_page = pos % kPageSize;
    const Bytes n = std::min(kPageSize - in_page, end - pos);
    fn(page, in_page, pos - offset, n);
    pos += n;
  }
}

void MemorySegment::write(Bytes offset, std::span<const std::byte> data) {
  write_raw(offset, data);
  mark_dirty(offset, data.size());
}

void MemorySegment::write_raw(Bytes offset, std::span<const std::byte> data) {
  check_range(offset, data.size());
  for_each_chunk(offset, data.size(), [&](Bytes page, Bytes in_page, Bytes src_off, Bytes n) {
    std::memcpy(page_for_write(page) + in_page, data.data() + src_off, n);
  });
}

void MemorySegment::read_into(Bytes offset, std::span<std::byte> out) const {
  check_range(offset, out.size());
  for_each_chunk(offset, out.size(), [&](Bytes page, Bytes in_page, Bytes dst_off, Bytes n) {
    const std::byte* p = page_for_read(page);
    if (p == nullptr) {
      std::memset(out.data() + dst_off, 0, n);
    } else {
      std::memcpy(out.data() + dst_off, p + in_page, n);
    }
  });
}

std::vector<std::byte> MemorySegment::read(Bytes offset, Bytes len) const {
  std::vector<std::byte> out(len);
  read_into(offset, out);
  return out;
}

void MemorySegment::fill(Bytes offset, Bytes len, std::byte value) {
  fill_raw(offset, len, value);
  mark_dirty(offset, len);
}

void MemorySegment::fill_raw(Bytes offset, Bytes len, std::byte value) {
  check_range(offset, len);
  for_each_chunk(offset, len, [&](Bytes page, Bytes in_page, Bytes, Bytes n) {
    std::memset(page_for_write(page) + in_page, static_cast<int>(value), n);
  });
}

std::uint32_t MemorySegment::crc(Bytes offset, Bytes len) const {
  check_range(offset, len);
  static const std::byte kZeros[4096] = {};
  Crc32 c;
  for_each_chunk(offset, len, [&](Bytes page, Bytes in_page, Bytes, Bytes n) {
    const std::byte* p = page_for_read(page);
    if (p == nullptr) {
      Bytes left = n;
      while (left > 0) {
        const Bytes k = std::min<Bytes>(left, sizeof kZeros);
        c.update(kZeros, k);
        left -= k;
      }
    } else {
      c.update(p + in_page, n);
    }
  });
  return c.value();
}

void MemorySegment::mark_dirty(Bytes, Bytes) {}

namespace {
constexpr std::uint32_t kImageMagic = 0x474D4950;  // "PIMG"
}

void MemorySegment::save_image(std::ostream& out) const {
  std::lock_guard lock{pages_mu_};
  const std::uint64_t magic = kImageMagic;
  const std::uint64_t size = size_;
  const std::uint64_t page_size = kPageSize;
  const std::uint64_t count = pages_.size();
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&size), 8);
  out.write(reinterpret_cast<const char*>(&page_size), 8);
  out.write(reinterpret_cast<const char*>(&count), 8);
  // Sorted page order keeps images deterministic.
  std::vector<Bytes> indices;
  indices.reserve(pages_.size());
  for (const auto& [idx, page] : pages_) indices.push_back(idx);
  std::sort(indices.begin(), indices.end());
  for (const auto idx : indices) {
    const std::uint64_t i = idx;
    out.write(reinterpret_cast<const char*>(&i), 8);
    out.write(reinterpret_cast<const char*>(pages_.at(idx).get()), kPageSize);
  }
  PORTUS_CHECK(out.good(), "failed to write segment image");
}

void MemorySegment::load_image(std::istream& in) {
  std::lock_guard lock{pages_mu_};
  std::uint64_t magic = 0, size = 0, page_size = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), 8);
  in.read(reinterpret_cast<char*>(&size), 8);
  in.read(reinterpret_cast<char*>(&page_size), 8);
  in.read(reinterpret_cast<char*>(&count), 8);
  if (!in.good() || magic != kImageMagic) throw Corruption("bad segment image header");
  if (page_size != kPageSize) throw Corruption("segment image page size mismatch");
  if (size > size_) throw Corruption("segment image larger than this device");
  pages_.clear();
  for (std::uint64_t p = 0; p < count; ++p) {
    std::uint64_t idx = 0;
    in.read(reinterpret_cast<char*>(&idx), 8);
    auto page = new_page();
    in.read(reinterpret_cast<char*>(page.get()), kPageSize);
    if (!in.good()) throw Corruption("truncated segment image");
    pages_.emplace(idx, std::move(page));
  }
}

void copy_bytes(MemorySegment& dst, Bytes dst_off, const MemorySegment& src, Bytes src_off,
                Bytes len) {
  std::byte scratch[64 * 1024];
  Bytes moved = 0;
  while (moved < len) {
    const Bytes n = std::min<Bytes>(sizeof scratch, len - moved);
    src.read_into(src_off + moved, std::span<std::byte>{scratch, n});
    dst.write(dst_off + moved, std::span<const std::byte>{scratch, n});
    moved += n;
  }
}

}  // namespace portus::mem
