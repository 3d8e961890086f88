// Translation lookaside buffer timing model.
//
// Like the caches, the TLB is timing-only: the simulated machine is flat
// physically-addressed, so the TLB merely charges a miss penalty (modelling
// a hardware page-table walk) with SimpleScalar-style defaults.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::mem {

struct TlbConfig {
  std::string name = "tlb";
  u32 entries = 64;
  u32 associativity = 4;
  u32 page_bits = 12;        ///< 4 KiB pages
  u32 miss_latency = 30;     ///< cycles to walk on a miss
};

struct TlbStats {
  u64 accesses = 0;
  u64 misses = 0;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Returns the extra latency this access pays (0 on hit).
  u32 access(Addr addr);

  const TlbStats& stats() const { return stats_; }
  const TlbConfig& config() const { return config_; }

  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

  // --- component-site fault campaigns (DESIGN.md §16) ----------------------
  // Same poison model as Cache: a poisoned entry models a corrupted
  // translation. A later hit on it uses the corrupt translation (SDC
  // candidate); a refill that overwrites it clears the upset unread
  // (masked). Poison is not serialized (site campaigns are whole-cell).

  /// Poison the entry selected by `cell` (modulo the entry count). Returns
  /// false if that entry is invalid or already poisoned.
  bool poison_random_entry(u64 cell) {
    const usize index = static_cast<usize>(cell % entries_.size());
    if (!entries_[index].valid || poison_[index] != 0) return false;
    poison_[index] = 1;
    ++poison_active_;
    return true;
  }
  u32 take_poison_consumed() {
    const u32 count = poison_consumed_;
    poison_consumed_ = 0;
    return count;
  }
  u32 take_poison_cleared() {
    const u32 count = poison_cleared_;
    poison_cleared_ = 0;
    return count;
  }

 private:
  struct Entry {
    u64 vpn = 0;
    bool valid = false;
    u64 stamp = 0;
  };

  TlbConfig config_;
  u32 set_count_;
  std::vector<Entry> entries_;
  TlbStats stats_;
  u64 tick_ = 0;

  // Component-site poison bitmap, parallel to entries_ (see Cache).
  std::vector<u8> poison_;
  u32 poison_active_ = 0;
  u32 poison_consumed_ = 0;
  u32 poison_cleared_ = 0;
};

}  // namespace reese::mem
