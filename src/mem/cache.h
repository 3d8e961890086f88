// Timing model of one set-associative cache level: LRU replacement,
// write-back and write-allocate, the policy of the paper's sim-outorder
// caches.
//
// Function and timing are decoupled in this simulator (as in SimpleScalar):
// data values live in MainMemory, while Cache only tracks tags to decide
// hit/miss and compute access latency. An access returns its total latency
// in cycles, recursing into the next level on a miss.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::mem {

struct CacheConfig {
  std::string name = "cache";
  u64 size_bytes = 32 * 1024;
  u32 line_bytes = 32;
  u32 associativity = 2;
  u32 hit_latency = 1;        ///< cycles for a hit (includes lookup; a
                              ///< TLB's hit is free)

  u64 set_count() const { return size_bytes / (u64{line_bytes} * associativity); }
  /// Validates power-of-two geometry; aborts with a message on bad configs
  /// (configuration bugs, not user input).
  void validate() const;
};

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 read_accesses = 0;
  u64 write_accesses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;

  double miss_rate() const;
};

/// Interface for the level below a cache (another cache or main memory).
class MemoryLevel {
 public:
  virtual ~MemoryLevel() = default;
  /// Latency of serving a whole-line access at `addr`.
  virtual u32 access(Addr addr, bool is_write) = 0;
  virtual const std::string& name() const = 0;
};

/// Flat DRAM model: fixed first-word latency (SimpleScalar's chunked model
/// collapses to this for single-line fills).
class FlatMemoryLevel final : public MemoryLevel {
 public:
  explicit FlatMemoryLevel(u32 latency, std::string name = "dram")
      : latency_(latency), name_(std::move(name)) {}
  u32 access(Addr, bool) override {
    ++accesses_;
    return latency_;
  }
  const std::string& name() const override { return name_; }
  u64 accesses() const { return accesses_; }

  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  u32 latency_;
  std::string name_;
  u64 accesses_ = 0;
};

class Cache final : public MemoryLevel {
 public:
  /// `next` is the level to fetch misses from and write dirty victims back
  /// to; it must outlive this cache.
  Cache(const CacheConfig& config, MemoryLevel* next);

  /// Simulate an access to the line holding `addr`; returns the total
  /// latency, the levels below included on a miss.
  u32 access(Addr addr, bool is_write) override;

  /// Probe without changing state (for tests and warmth queries).
  bool contains(Addr addr) const;

  const CacheStats& stats() const { return stats_; }
  const std::string& name() const override { return config_.name; }

  /// Checkpoint serialization: tag array, stats and LRU tick. The
  /// geometry comes from the config, so load() into a cache built with a
  /// different line count latches a reader error.
  /// Poison state (component-site campaigns) is deliberately NOT serialized:
  /// site campaigns run whole cells without mid-cell snapshots.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

  // --- component-site fault campaigns (DESIGN.md §16) ----------------------
  // A poisoned line models a particle strike in the data array (in a TLB,
  // a corrupted translation): function and timing are decoupled here, so
  // the corruption cannot change a loaded value — instead the pipeline
  // observes *when* the poisoned line is next read (the corrupt data is
  // consumed → potential SDC) versus overwritten or evicted (masked) and
  // classifies the strike accordingly.

  /// Poison the line selected by `cell` (reduced modulo the line count).
  /// Returns false if that way is invalid or already poisoned — nothing to
  /// corrupt, the strike is trivially masked.
  bool poison_random_line(u64 cell) {
    const usize index = static_cast<usize>(cell % lines_.size());
    if (!lines_[index].valid || poison_[index] != 0) return false;
    poison_[index] = 1;
    ++poison_active_;
    return true;
  }
  /// Number of poisoned lines whose data was read since the last take — and
  /// reset the counter. The caller attributes these to the access it just
  /// simulated.
  u32 take_poison_consumed() {
    const u32 count = poison_consumed_;
    poison_consumed_ = 0;
    return count;
  }
  /// Same for poisoned lines that were overwritten or evicted (masked).
  u32 take_poison_cleared() {
    const u32 count = poison_cleared_;
    poison_cleared_ = 0;
    return count;
  }
 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    u64 stamp = 0;  ///< last-use time (LRU)
  };

  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  u32 access_one_line(Addr addr, bool is_write);
  usize victim_way(usize set_base);

  Addr line_addr(Addr addr) const { return addr & ~(Addr{config_.line_bytes} - 1); }
  u64 set_index(Addr addr) const { return (addr >> line_shift_) & set_mask_; }
  u64 tag_bits(Addr addr) const { return addr >> tag_shift_; }

  CacheConfig config_;
  MemoryLevel* next_;
  // The geometry is powers of two (CacheConfig::validate), so an address
  // splits into tag | set | offset by shifts and a mask.
  unsigned line_shift_ = 0;  ///< log2(line_bytes)
  unsigned tag_shift_ = 0;   ///< log2(line_bytes * set count)
  u64 set_mask_ = 0;         ///< set count - 1
  std::vector<Line> lines_;  ///< set-major: lines_[set * assoc + way]
  CacheStats stats_;
  u64 tick_ = 0;

  // Component-site poison bitmap, parallel to lines_. poison_active_ != 0
  // gates every hot-path check so campaigns without cache sites pay one
  // compare per access.
  std::vector<u8> poison_;
  u32 poison_active_ = 0;
  u32 poison_consumed_ = 0;
  u32 poison_cleared_ = 0;
};

}  // namespace reese::mem
