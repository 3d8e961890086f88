// The full memory hierarchy of the simulated machine (Table 1 of the
// paper): split L1 I/D caches, a unified L2, flat DRAM behind it, and
// I/D TLBs.
//
//   L1 I: 32 KB, 2-way, 2-cycle hit        L1 D: 32 KB, 2-way, 2-cycle hit
//   L2  : 512 KB, 4-way, 12-cycle hit (shared by I and D)
//   DRAM: fixed 60-cycle access
//   TLBs: 64 (I) and 128 (D) entries, 4-way, free hit, 30-cycle page walk
//
// A TLB is a Cache of page translations: a 4 KiB line is one page, a hit
// costs nothing, and a miss pays a page walk that one flat level shared by
// both TLBs models. The machine is flat physically-addressed, so like the
// caches the TLBs are timing-only.
#pragma once

#include <memory>
#include <string>

#include "mem/cache.h"

namespace reese::mem {

struct HierarchyConfig {
  CacheConfig il1{.name = "il1",
                  .size_bytes = 32 * 1024,
                  .line_bytes = 32,
                  .associativity = 2,
                  .hit_latency = 2};
  CacheConfig dl1{.name = "dl1",
                  .size_bytes = 32 * 1024,
                  .line_bytes = 32,
                  .associativity = 2,
                  .hit_latency = 2};
  CacheConfig ul2{.name = "ul2",
                  .size_bytes = 512 * 1024,
                  .line_bytes = 64,
                  .associativity = 4,
                  .hit_latency = 12};
  CacheConfig itlb{.name = "itlb",
                   .size_bytes = 64 * 4096,
                   .line_bytes = 4096,
                   .associativity = 4,
                   .hit_latency = 0};
  CacheConfig dtlb{.name = "dtlb",
                   .size_bytes = 128 * 4096,
                   .line_bytes = 4096,
                   .associativity = 4,
                   .hit_latency = 0};
  u32 memory_latency = 60;
  u32 page_walk_latency = 30;
};

/// Owns the caches and TLBs and answers "how many cycles does this access
/// take". TLB miss latency is additive (the walk overlaps nothing),
/// matching sim-outorder's treatment.
class Hierarchy {
 public:
  explicit Hierarchy(const HierarchyConfig& config);

  /// Instruction fetch of the line containing `pc`.
  u32 inst_access(Addr pc);

  /// Data access latency (loads and committed stores).
  u32 data_access(Addr addr, bool is_write);

  Cache& il1() { return *il1_; }
  Cache& dl1() { return *dl1_; }
  Cache& ul2() { return *ul2_; }
  const Cache& il1() const { return *il1_; }
  const Cache& dl1() const { return *dl1_; }
  const Cache& ul2() const { return *ul2_; }
  Cache& dtlb() { return *dtlb_; }

  /// Checkpoint serialization of every level's tag/stat state.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

  /// Multi-line summary for reports.
  std::string report() const;

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  std::unique_ptr<FlatMemoryLevel> dram_;
  std::unique_ptr<FlatMemoryLevel> page_walk_;
  std::unique_ptr<Cache> ul2_;
  std::unique_ptr<Cache> il1_;
  std::unique_ptr<Cache> dl1_;
  std::unique_ptr<Cache> itlb_;
  std::unique_ptr<Cache> dtlb_;
};

}  // namespace reese::mem
