#include "mem/cache.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/bitutil.h"
#include "common/snapshot.h"
#include "common/stats.h"

namespace reese::mem {

double CacheStats::miss_rate() const { return safe_ratio(misses, accesses); }

void CacheConfig::validate() const {
  auto die = [this](const char* what) {
    std::fprintf(stderr, "cache '%s': %s\n", name.c_str(), what);
    std::abort();
  };
  if (!is_pow2(line_bytes) || line_bytes < 4) die("line size must be pow2 >= 4");
  if (associativity == 0) die("associativity must be >= 1");
  if (size_bytes == 0 || size_bytes % (u64{line_bytes} * associativity) != 0) {
    die("size must be a multiple of line_bytes * associativity");
  }
  if (!is_pow2(set_count())) die("set count must be a power of two");
}

Cache::Cache(const CacheConfig& config, MemoryLevel* next)
    : config_(config), next_(next) {
  config_.validate();
  assert(next_ != nullptr && "cache needs a next level");
  line_shift_ = log2_exact(config_.line_bytes);
  tag_shift_ = line_shift_ + log2_exact(config_.set_count());
  set_mask_ = config_.set_count() - 1;
  lines_.resize(config_.set_count() * config_.associativity);
  poison_.resize(lines_.size(), 0);
}

bool Cache::contains(Addr addr) const {
  const u64 set_base = set_index(addr) * config_.associativity;
  const u64 tag = tag_bits(addr);
  for (u32 way = 0; way < config_.associativity; ++way) {
    const Line& line = lines_[set_base + way];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

usize Cache::victim_way(usize set_base) {
  // Prefer an invalid way, else the least recently used.
  for (u32 way = 0; way < config_.associativity; ++way) {
    if (!lines_[set_base + way].valid) return way;
  }
  usize victim = 0;
  u64 oldest = ~u64{0};
  for (u32 way = 0; way < config_.associativity; ++way) {
    if (lines_[set_base + way].stamp < oldest) {
      oldest = lines_[set_base + way].stamp;
      victim = way;
    }
  }
  return victim;
}

u32 Cache::access_one_line(Addr addr, bool is_write) {
  ++tick_;
  ++stats_.accesses;
  if (is_write) {
    ++stats_.write_accesses;
  } else {
    ++stats_.read_accesses;
  }

  const u64 set_base = set_index(addr) * config_.associativity;
  const u64 tag = tag_bits(addr);

  for (u32 way = 0; way < config_.associativity; ++way) {
    Line& line = lines_[set_base + way];
    if (line.valid && line.tag == tag) {
      ++stats_.hits;
      if (poison_active_ != 0 && poison_[set_base + way] != 0) {
        // Poisoned line touched: a read consumes the corrupt data (SDC
        // candidate); a write overwrites it (masked). Either way the
        // poison is spent.
        poison_[set_base + way] = 0;
        --poison_active_;
        if (is_write) {
          ++poison_cleared_;
        } else {
          ++poison_consumed_;
        }
      }
      line.stamp = tick_;
      if (is_write) line.dirty = true;
      return config_.hit_latency;
    }
  }

  // Miss: reads and writes both allocate.
  ++stats_.misses;
  const usize way = victim_way(set_base);
  Line& line = lines_[set_base + way];
  if (poison_active_ != 0 && poison_[set_base + way] != 0) {
    // Fill over a poisoned victim: the corrupt data leaves the cache
    // unread (a dirty writeback of it is charged to the same event).
    poison_[set_base + way] = 0;
    --poison_active_;
    ++poison_cleared_;
  }
  if (line.valid) {
    ++stats_.evictions;
    if (line.dirty) {
      ++stats_.writebacks;
      // Victim writeback goes to a write buffer; its latency is not on
      // the critical path of this access.
      next_->access((line.tag << tag_shift_) | (set_index(addr) << line_shift_),
                    true);
    }
  }
  const u32 fill_latency = next_->access(line_addr(addr), false);
  line.valid = true;
  line.tag = tag;
  line.dirty = is_write;
  line.stamp = tick_;
  return config_.hit_latency + fill_latency;
}

u32 Cache::access(Addr addr, bool is_write) {
  const Addr first_line = line_addr(addr);
  return access_one_line(first_line, is_write);
}

template <class Self, class Io>
void Cache::layout(Self& self, Io& io) {
  io.geometry(self.lines_.size(),
              "cache '" + self.config_.name +
                  "' geometry mismatch (snapshot built with a different "
                  "configuration)");
  for (auto& line : self.lines_) {
    io.field(line.tag);
    io.field(line.valid);
    io.field(line.dirty);
    io.field(line.stamp);
  }
  io.field(self.stats_.accesses);
  io.field(self.stats_.hits);
  io.field(self.stats_.misses);
  io.field(self.stats_.read_accesses);
  io.field(self.stats_.write_accesses);
  io.field(self.stats_.evictions);
  io.field(self.stats_.writebacks);
  io.field(self.tick_);
}

void Cache::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void Cache::load(SnapshotReader* reader) { layout(*this, *reader); }

template <class Self, class Io>
void FlatMemoryLevel::layout(Self& self, Io& io) {
  io.field(self.accesses_);
}

void FlatMemoryLevel::save(SnapshotWriter* writer) const {
  layout(*this, *writer);
}
void FlatMemoryLevel::load(SnapshotReader* reader) { layout(*this, *reader); }

}  // namespace reese::mem
