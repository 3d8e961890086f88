// Differential test: the production Cache against an independent,
// obviously-correct reference model, over random access streams and a
// grid of geometries. Any divergence in set indexing, tag matching, LRU
// ordering or writeback accounting shows up as a hit/miss mismatch.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "common/rng.h"
#include "mem/cache.h"

namespace reese::mem {
namespace {

/// Reference model: map of sets, each an LRU list of tags. Mirrors the
/// documented behaviour (write-back, write-allocate, LRU) with none of the
/// production code's packing tricks.
class ReferenceCache {
 public:
  ReferenceCache(u64 size_bytes, u32 line_bytes, u32 associativity)
      : line_bytes_(line_bytes),
        set_count_(size_bytes / (u64{line_bytes} * associativity)),
        associativity_(associativity) {}

  struct Outcome {
    bool hit;
    bool writeback;  ///< a dirty line was evicted
  };

  Outcome access(Addr addr, bool is_write) {
    const u64 line = addr / line_bytes_;
    const u64 set = line % set_count_;
    const u64 tag = line / set_count_;
    auto& entries = sets_[set];

    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->tag == tag) {
        Entry entry = *it;
        entry.dirty = entry.dirty || is_write;
        entries.erase(it);
        entries.push_front(entry);  // MRU
        return {true, false};
      }
    }
    bool writeback = false;
    if (entries.size() == associativity_) {
      writeback = entries.back().dirty;
      entries.pop_back();  // evict LRU
    }
    entries.push_front(Entry{tag, is_write});
    return {false, writeback};
  }

 private:
  struct Entry {
    u64 tag;
    bool dirty;
  };
  u64 line_bytes_;
  u64 set_count_;
  u32 associativity_;
  std::map<u64, std::list<Entry>> sets_;
};

struct Geometry {
  u64 size_bytes;
  u32 line_bytes;
  u32 associativity;
};

class CacheDifferentialTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheDifferentialTest, RandomStreamMatchesReference) {
  const Geometry& geometry = GetParam();
  CacheConfig config;
  config.size_bytes = geometry.size_bytes;
  config.line_bytes = geometry.line_bytes;
  config.associativity = geometry.associativity;
  config.hit_latency = 2;

  FlatMemoryLevel dram(60);
  Cache cache(config, &dram);
  ReferenceCache reference(geometry.size_bytes, geometry.line_bytes,
                           geometry.associativity);

  SplitMix64 rng(geometry.size_bytes ^ geometry.line_bytes ^
                 geometry.associativity);
  u64 expected_hits = 0;
  u64 expected_writebacks = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mixed locality: 70% inside a window 2x the cache, 30% anywhere in a
    // larger region — produces real conflict/capacity behaviour.
    Addr addr;
    if (rng.next_bool(0.7)) {
      addr = rng.next_below(2 * geometry.size_bytes);
    } else {
      addr = rng.next_below(16 * geometry.size_bytes);
    }
    const bool is_write = rng.next_bool(0.3);

    const u64 hits_before = cache.stats().hits;
    cache.access(addr, is_write);
    const bool cache_hit = cache.stats().hits > hits_before;

    const ReferenceCache::Outcome expected = reference.access(addr, is_write);
    ASSERT_EQ(cache_hit, expected.hit)
        << "access " << i << " addr 0x" << std::hex << addr;
    if (expected.hit) ++expected_hits;
    if (expected.writeback) ++expected_writebacks;
  }
  EXPECT_EQ(cache.stats().hits, expected_hits);
  EXPECT_EQ(cache.stats().writebacks, expected_writebacks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferentialTest,
    ::testing::Values(Geometry{1024, 32, 1}, Geometry{1024, 32, 2},
                      Geometry{4096, 64, 4}, Geometry{8192, 32, 8},
                      Geometry{2048, 16, 2}, Geometry{32768, 32, 2},
                      Geometry{16384, 64, 1}, Geometry{4096, 128, 4},
                      // The I- and D-TLB: 64 and 128 4 KiB pages, 4-way.
                      Geometry{64 * 4096, 4096, 4},
                      Geometry{128 * 4096, 4096, 4}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(info.param.size_bytes) + "B_" +
             std::to_string(info.param.line_bytes) + "line_" +
             std::to_string(info.param.associativity) + "way";
    });

}  // namespace
}  // namespace reese::mem
