// Memory-system tests: sparse main memory, set-associative cache timing
// model (LRU replacement, write-back eviction accounting), TLB and the full
// hierarchy.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/main_memory.h"

namespace reese::mem {
namespace {

// --- MainMemory ----------------------------------------------------------------

TEST(MainMemory, ZeroInitialized) {
  MainMemory memory;
  EXPECT_EQ(memory.load(0x1234, 8), 0u);
  EXPECT_EQ(memory.load_u8(~u64{0}), 0u);
}

TEST(MainMemory, StoreLoadRoundTrip) {
  MainMemory memory;
  memory.store(0x1000, 8, 0x1122334455667788ULL);
  EXPECT_EQ(memory.load(0x1000, 8), 0x1122334455667788ULL);
  EXPECT_EQ(memory.load(0x1000, 4), 0x55667788u);
  EXPECT_EQ(memory.load(0x1004, 4), 0x11223344u);
  EXPECT_EQ(memory.load_u8(0x1007), 0x11u);
}

TEST(MainMemory, LittleEndian) {
  MainMemory memory;
  memory.store(0x2000, 2, 0xBEEF);
  EXPECT_EQ(memory.load_u8(0x2000), 0xEFu);
  EXPECT_EQ(memory.load_u8(0x2001), 0xBEu);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory memory;
  const Addr boundary = MainMemory::kPageSize - 4;
  memory.store(boundary, 8, 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(memory.load(boundary, 8), 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(memory.allocated_pages(), 2u);
}

TEST(MainMemory, WriteBlock) {
  MainMemory memory;
  std::vector<u8> data(10000);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  memory.write_block(0x3000, data.data(), data.size());
  for (usize i = 0; i < data.size(); i += 997) {
    EXPECT_EQ(memory.load_u8(0x3000 + i), static_cast<u8>(i * 7));
  }
}

TEST(MainMemory, ContentHashIgnoresZeroPages) {
  MainMemory a;
  MainMemory b;
  a.store(0x1000, 8, 42);
  b.store(0x1000, 8, 42);
  b.store(0x900000, 8, 0);  // touched-but-zero page
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.store(0x900000, 8, 1);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(MainMemory, DeepCopy) {
  MainMemory a;
  a.store(0x1000, 8, 7);
  MainMemory b = a;
  b.store(0x1000, 8, 9);
  EXPECT_EQ(a.load(0x1000, 8), 7u);
  EXPECT_EQ(b.load(0x1000, 8), 9u);
}

// --- Cache ---------------------------------------------------------------------

CacheConfig small_cache() {
  CacheConfig config;
  config.name = "test";
  config.size_bytes = 1024;   // 16 sets x 2 ways x 32B
  config.line_bytes = 32;
  config.associativity = 2;
  config.hit_latency = 2;
  return config;
}

TEST(Cache, ColdMissThenHit) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  const u32 miss_latency = cache.access(0x1000, false);
  EXPECT_EQ(miss_latency, 62u);  // hit latency + dram
  const u32 hit_latency = cache.access(0x1000, false);
  EXPECT_EQ(hit_latency, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  cache.access(0x1000, false);
  EXPECT_EQ(cache.access(0x101F, false), 2u);  // same 32B line
  EXPECT_EQ(cache.access(0x1020, false), 62u);  // next line
}

TEST(Cache, AssociativityHoldsConflicts) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  // Two addresses mapping to the same set (stride = 16 sets * 32B = 512).
  cache.access(0x0, false);
  cache.access(0x200, false);
  EXPECT_EQ(cache.access(0x0, false), 2u);
  EXPECT_EQ(cache.access(0x200, false), 2u);
  EXPECT_TRUE(cache.contains(0x0));
  EXPECT_TRUE(cache.contains(0x200));
}

TEST(Cache, LruEvictsOldest) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  cache.access(0x0, false);    // way A
  cache.access(0x200, false);  // way B
  cache.access(0x0, false);    // touch A -> B is LRU
  cache.access(0x400, false);  // evicts B
  EXPECT_TRUE(cache.contains(0x0));
  EXPECT_FALSE(cache.contains(0x200));
  EXPECT_TRUE(cache.contains(0x400));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, WriteBackDirtyEviction) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  cache.access(0x0, true);     // dirty line
  cache.access(0x200, false);
  cache.access(0x400, false);  // evicts one of them; 0x0 is LRU -> writeback
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  cache.access(0x0, false);
  cache.access(0x200, false);
  cache.access(0x400, false);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(Cache, StatsReadWriteSplit) {
  FlatMemoryLevel dram(60);
  Cache cache(small_cache(), &dram);
  cache.access(0x0, false);
  cache.access(0x0, true);
  cache.access(0x0, true);
  EXPECT_EQ(cache.stats().read_accesses, 1u);
  EXPECT_EQ(cache.stats().write_accesses, 2u);
  EXPECT_EQ(cache.stats().accesses, 3u);
}

// Property: for any pow2 geometry, a working set that fits sees only cold
// misses on a second full sweep.
class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheGeometryTest, FittingWorkingSetHasOnlyColdMisses) {
  const auto [size_kb, line, assoc] = GetParam();
  CacheConfig config;
  config.size_bytes = static_cast<u64>(size_kb) * 1024;
  config.line_bytes = static_cast<u32>(line);
  config.associativity = static_cast<u32>(assoc);
  FlatMemoryLevel dram(60);
  Cache cache(config, &dram);

  const u64 lines = config.size_bytes / config.line_bytes;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (u64 i = 0; i < lines; ++i) {
      cache.access(i * config.line_bytes, false);
    }
  }
  EXPECT_EQ(cache.stats().misses, lines);  // cold only
  EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(1, 32, 1), std::make_tuple(4, 32, 2),
                      std::make_tuple(8, 64, 4), std::make_tuple(32, 32, 2),
                      std::make_tuple(16, 16, 8), std::make_tuple(2, 64, 2)));

// Property: thrashing working set (2x capacity, same set) always misses
// under LRU.
TEST(Cache, LruThrashingAlwaysMisses) {
  CacheConfig config = small_cache();  // 2-way
  FlatMemoryLevel dram(60);
  Cache cache(config, &dram);
  // Three lines in one set, round robin: LRU pathological case.
  for (int i = 0; i < 30; ++i) {
    cache.access(static_cast<Addr>(i % 3) * 512, false);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
}

// --- TLB ------------------------------------------------------------------------
// A TLB is a Cache of page translations behind a flat page-walk level.

TEST(Tlb, MissThenHit) {
  const HierarchyConfig config;
  FlatMemoryLevel walk(config.page_walk_latency);
  Cache tlb(config.dtlb, &walk);
  EXPECT_EQ(tlb.access(0x1000, false), 30u);
  EXPECT_EQ(tlb.access(0x1FFF, false), 0u);  // same page
  EXPECT_EQ(tlb.access(0x2000, false), 30u);  // next page
  EXPECT_EQ(tlb.stats().misses, 2u);
  EXPECT_EQ(tlb.stats().accesses, 3u);
}

TEST(Tlb, CapacityEviction) {
  const HierarchyConfig config;
  FlatMemoryLevel walk(config.page_walk_latency);
  Cache tlb(config.dtlb, &walk);
  // Five pages one set-count apart share a set of the 4-way TLB.
  const Addr stride = config.dtlb.set_count() * config.dtlb.line_bytes;
  for (Addr p = 0; p < 5; ++p) tlb.access(p * stride, false);
  // Page 0 was LRU; it must miss again.
  EXPECT_EQ(tlb.access(0, false), 30u);
}

// --- Hierarchy --------------------------------------------------------------------

TEST(Hierarchy, L1MissGoesToL2) {
  HierarchyConfig config;
  Hierarchy hierarchy(config);
  const u32 cold = hierarchy.data_access(0x100000, false);
  // dl1 hit(2) + ul2 hit(12) + dram(60) + the D-TLB miss
  EXPECT_EQ(cold, 2u + 12u + 60u + config.page_walk_latency);
  EXPECT_EQ(hierarchy.data_access(0x100000, false), 2u);
  // The next 32-byte L1 line shares the 64-byte L2 line and the page.
  EXPECT_EQ(hierarchy.data_access(0x100020, false), 2u + 12u);
  EXPECT_EQ(hierarchy.ul2().stats().misses, 1u);
}

TEST(Hierarchy, L2SharedBetweenInstAndData) {
  Hierarchy hierarchy(HierarchyConfig{});
  hierarchy.inst_access(0x5000);
  EXPECT_EQ(hierarchy.ul2().stats().accesses, 1u);
  hierarchy.data_access(0x5000, false);  // same line, already in L2
  EXPECT_EQ(hierarchy.ul2().stats().accesses, 2u);
  EXPECT_EQ(hierarchy.ul2().stats().hits, 1u);
}

TEST(Hierarchy, TlbChargesAdditively) {
  HierarchyConfig config;
  Hierarchy hierarchy(config);
  const u32 first = hierarchy.data_access(0x100000, false);
  EXPECT_EQ(first, 2u + 12u + 60u + config.page_walk_latency);
}

TEST(Hierarchy, ReportMentionsAllLevels) {
  Hierarchy hierarchy(HierarchyConfig{});
  const std::string report = hierarchy.report();
  EXPECT_NE(report.find("il1"), std::string::npos);
  EXPECT_NE(report.find("dl1"), std::string::npos);
  EXPECT_NE(report.find("ul2"), std::string::npos);
  EXPECT_NE(report.find("dram"), std::string::npos);
}

}  // namespace
}  // namespace reese::mem
