// Sparse, paged simulated main memory.
//
// Backing store for the functional machine state. Pages are allocated on
// first touch so workloads can use widely separated code/data/stack/heap
// regions without reserving gigabytes. All multi-byte accesses are
// little-endian and support arbitrary (unaligned) addresses.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::mem {

class MainMemory {
 public:
  static constexpr usize kPageBits = 12;
  static constexpr usize kPageSize = usize{1} << kPageBits;

  MainMemory() = default;

  // Deep-copyable: the speculative overlay machinery and tests snapshot
  // memory images. All special members reset the page-pointer cache — a
  // moved-from map still owns nothing, and a stale cached pointer would
  // alias a page now owned by another image.
  MainMemory(const MainMemory& other);
  MainMemory& operator=(const MainMemory& other);
  MainMemory(MainMemory&& other) noexcept;
  MainMemory& operator=(MainMemory&& other) noexcept;

  // The load/store fast path is inline: when the access hits the cached
  // page (the overwhelmingly common case — see the cache comment below) it
  // indexes the page's flat byte array directly, with no out-of-line call.
  // Misses, first touches, and page-straddling accesses take the _slow
  // out-of-line path.

  u8 load_u8(Addr addr) const {
    if ((addr >> kPageBits) == cached_index_) {
      return (*cached_page_)[addr & (kPageSize - 1)];
    }
    return static_cast<u8>(load_slow(addr, 1));
  }
  void store_u8(Addr addr, u8 value) {
    if ((addr >> kPageBits) == cached_index_) {
      (*cached_page_)[addr & (kPageSize - 1)] = value;
      return;
    }
    store_slow(addr, 1, value);
  }

  /// Load `bytes` (1..8) little-endian; unallocated memory reads as zero.
  u64 load(Addr addr, unsigned bytes) const {
    const usize offset = addr & (kPageSize - 1);
    if ((addr >> kPageBits) == cached_index_ && offset + bytes <= kPageSize) {
      u64 value = 0;
      std::memcpy(&value, cached_page_->data() + offset, bytes);
      return value;
    }
    return load_slow(addr, bytes);
  }
  /// Store the low `bytes` (1..8) of `value` little-endian.
  void store(Addr addr, unsigned bytes, u64 value) {
    const usize offset = addr & (kPageSize - 1);
    if ((addr >> kPageBits) == cached_index_ && offset + bytes <= kPageSize) {
      std::memcpy(cached_page_->data() + offset, &value, bytes);
      return;
    }
    store_slow(addr, bytes, value);
  }

  /// Bulk copy-in used by the program loader.
  void write_block(Addr addr, const u8* data, usize size);

  /// Number of distinct pages touched (memory footprint diagnostics).
  usize allocated_pages() const { return pages_.size(); }

  /// FNV-1a hash over all allocated pages in address order — the functional
  /// equivalence fingerprint used by tests (golden ISS vs pipeline).
  u64 content_hash() const;

  /// Checkpoint serialization: a sparse page dump (every allocated page,
  /// address-ordered) followed by the content hash, which load() recomputes
  /// and verifies so a corrupted memory image fails loudly at restore time.
  /// No shared field list (common/snapshot.h): the writer sorts the pages,
  /// and the reader rebuilds each one and re-hashes the image.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  using Page = std::array<u8, kPageSize>;

  const Page* find_page(Addr addr) const;
  Page& touch_page(Addr addr);

  u64 load_slow(Addr addr, unsigned bytes) const;
  void store_slow(Addr addr, unsigned bytes, u64 value);

  void invalidate_page_cache() const {
    cached_index_ = kNoPage;
    cached_page_ = nullptr;
  }

  std::unordered_map<u64, std::unique_ptr<Page>> pages_;

  // Last-page pointer cache: workload access streams are strongly
  // page-local (sequential scans, stack frames, hot loops), so remembering
  // the last page touched lets the common case skip the unordered_map hash
  // + probe entirely and index straight into the page's flat byte array.
  // Not a thread-safety hazard: a MainMemory belongs to exactly one
  // simulated core (parallel experiment cells each own their image).
  static constexpr u64 kNoPage = ~u64{0};
  mutable u64 cached_index_ = kNoPage;
  mutable Page* cached_page_ = nullptr;
};

}  // namespace reese::mem
