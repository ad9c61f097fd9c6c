#include "mem/segment.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "mem/address_space.h"

namespace portus::mem {
namespace {

TEST(SegmentTest, ReadOfUnwrittenRangeIsZeros) {
  MemorySegment seg{"s", MemoryKind::kDram, 1_MiB, 0x1000};
  const auto data = seg.read(1000, 64);
  for (auto b : data) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(seg.materialized_bytes(), 0u);
}

TEST(SegmentTest, WriteReadRoundTrip) {
  MemorySegment seg{"s", MemoryKind::kDram, 1_MiB, 0x1000};
  std::vector<std::byte> data(777);
  Rng{1}.fill(data);
  seg.write(123, data);
  EXPECT_EQ(seg.read(123, 777), data);
}

TEST(SegmentTest, WriteSpanningPageBoundary) {
  MemorySegment seg{"s", MemoryKind::kDram, 4 * MemorySegment::kPageSize, 0x1000};
  std::vector<std::byte> data(MemorySegment::kPageSize + 999);
  Rng{2}.fill(data);
  const Bytes off = MemorySegment::kPageSize - 500;
  seg.write(off, data);
  EXPECT_EQ(seg.read(off, data.size()), data);
  // Bytes around the write must still read as zero.
  EXPECT_EQ(seg.read(off - 1, 1)[0], std::byte{0});
  EXPECT_EQ(seg.read(off + data.size(), 1)[0], std::byte{0});
}

// A new page must read as zeros around a write even when the allocator hands
// back memory that a dead segment filled with other bytes.
TEST(SegmentTest, RecycledPageMemoryReadsAsZeros) {
  constexpr Bytes kPages = 8;
  constexpr Bytes kSize = kPages * MemorySegment::kPageSize;
  std::vector<std::byte> expected(MemorySegment::kPageSize);
  expected[100] = std::byte{1};
  for (int round = 0; round < 3; ++round) {
    {
      MemorySegment dirty{"dirty", MemoryKind::kDram, kSize, 0x1000};
      dirty.fill(0, kSize, std::byte{0xEE});
    }
    MemorySegment seg{"s", MemoryKind::kDram, kSize, 0x1000};
    for (Bytes p = 0; p < kPages; ++p) {
      seg.write(p * MemorySegment::kPageSize + 100, std::vector<std::byte>(1, std::byte{1}));
    }
    for (Bytes p = 0; p < kPages; ++p) {
      EXPECT_EQ(seg.read(p * MemorySegment::kPageSize, MemorySegment::kPageSize), expected);
    }
  }
}

TEST(SegmentTest, OutOfBoundsAccessThrows) {
  MemorySegment seg{"s", MemoryKind::kDram, 4096, 0x1000};
  std::vector<std::byte> data(10);
  EXPECT_THROW(seg.write(4090, data), InvalidArgument);
  EXPECT_THROW(seg.read(4096, 1), InvalidArgument);
  EXPECT_THROW(seg.read(0, 4097), InvalidArgument);
  // Overflowing offset+len must not wrap.
  EXPECT_THROW(seg.read(~0ull - 2, 8), InvalidArgument);
}

TEST(SegmentTest, CrcMatchesReferenceAndZeroPages) {
  MemorySegment seg{"s", MemoryKind::kDram, 2_MiB, 0x1000};
  std::vector<std::byte> data(300'000);
  Rng{3}.fill(data);
  seg.write(100'000, data);

  // CRC over [0, 500k): zeros + data + zeros, computed independently.
  std::vector<std::byte> reference(500'000);
  std::copy(data.begin(), data.end(), reference.begin() + 100'000);
  EXPECT_EQ(seg.crc(0, reference.size()), Crc32::of(reference));
}

TEST(SegmentTest, FillWritesValue) {
  MemorySegment seg{"s", MemoryKind::kDram, 1_MiB, 0x1000};
  seg.fill(10, 100, std::byte{0xAB});
  for (auto b : seg.read(10, 100)) EXPECT_EQ(b, std::byte{0xAB});
  EXPECT_EQ(seg.read(9, 1)[0], std::byte{0});
}

TEST(SegmentTest, SparseHugeSegment) {
  // A 768 GiB segment must be constructible and usable without materializing
  // storage (the whole point of sparse paging).
  MemorySegment seg{"pmem", MemoryKind::kPmem, 768_GiB, 0x1000};
  std::vector<std::byte> data(4096);
  Rng{4}.fill(data);
  seg.write(512_GiB, data);
  EXPECT_EQ(seg.read(512_GiB, 4096), data);
  EXPECT_LE(seg.materialized_bytes(), 2 * MemorySegment::kPageSize);
}

TEST(SegmentTest, GlobalAddressing) {
  MemorySegment seg{"s", MemoryKind::kGpu, 1_MiB, 0xAB000};
  EXPECT_TRUE(seg.contains_global(0xAB000, 1));
  EXPECT_TRUE(seg.contains_global(0xAB000 + 1_MiB - 1, 1));
  EXPECT_FALSE(seg.contains_global(0xAB000 + 1_MiB, 1));
  EXPECT_FALSE(seg.contains_global(0xAAFFF, 1));
  EXPECT_EQ(seg.to_offset(0xAB123), 0x123u);
  EXPECT_THROW(seg.to_offset(0x1), InvalidArgument);
}

TEST(CopyBytesTest, CopiesAcrossSegments) {
  MemorySegment a{"a", MemoryKind::kDram, 1_MiB, 0x1000};
  MemorySegment b{"b", MemoryKind::kDram, 1_MiB, 0x200000};
  std::vector<std::byte> data(200'000);
  Rng{5}.fill(data);
  a.write(0, data);
  copy_bytes(b, 1234, a, 0, data.size());
  EXPECT_EQ(b.read(1234, data.size()), data);
}

TEST(AddressSpaceTest, SegmentsDoNotOverlapAndResolve) {
  AddressSpace as;
  auto s1 = as.create_segment("a", MemoryKind::kDram, 10_MiB);
  auto s2 = as.create_segment("b", MemoryKind::kGpu, 10_MiB);
  EXPECT_NE(s1->base_addr(), s2->base_addr());
  EXPECT_GE(s2->base_addr(), s1->base_addr() + s1->size());

  EXPECT_EQ(&as.resolve(s1->base_addr() + 5, 100), s1.get());
  EXPECT_EQ(&as.resolve(s2->base_addr(), 1), s2.get());
  EXPECT_THROW(as.resolve(1, 1), ProtectionFault);
  // Guard gap between segments is unmapped.
  EXPECT_THROW(as.resolve(s1->base_addr() + s1->size() + 1, 1), ProtectionFault);
}

}  // namespace
}  // namespace portus::mem
