#include "mem/main_memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "common/snapshot.h"

namespace reese::mem {

MainMemory::MainMemory(const MainMemory& other) { *this = other; }

MainMemory& MainMemory::operator=(const MainMemory& other) {
  if (this == &other) return *this;
  pages_.clear();
  pages_.reserve(other.pages_.size());
  for (const auto& [page_index, page] : other.pages_) {
    pages_.emplace(page_index, std::make_unique<Page>(*page));
  }
  invalidate_page_cache();
  return *this;
}

MainMemory::MainMemory(MainMemory&& other) noexcept
    : pages_(std::move(other.pages_)) {
  other.invalidate_page_cache();
}

MainMemory& MainMemory::operator=(MainMemory&& other) noexcept {
  if (this == &other) return *this;
  pages_ = std::move(other.pages_);
  invalidate_page_cache();
  other.invalidate_page_cache();
  return *this;
}

const MainMemory::Page* MainMemory::find_page(Addr addr) const {
  const u64 index = addr >> kPageBits;
  if (index == cached_index_) return cached_page_;
  auto it = pages_.find(index);
  if (it == pages_.end()) return nullptr;
  cached_index_ = index;
  cached_page_ = it->second.get();
  return cached_page_;
}

MainMemory::Page& MainMemory::touch_page(Addr addr) {
  const u64 index = addr >> kPageBits;
  if (index == cached_index_) return *cached_page_;
  auto& slot = pages_[index];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  cached_index_ = index;
  cached_page_ = slot.get();
  return *slot;
}

u64 MainMemory::load_slow(Addr addr, unsigned bytes) const {
  assert(bytes >= 1 && bytes <= 8);
  // In-page access that missed the page cache.
  const usize offset = addr & (kPageSize - 1);
  if (offset + bytes <= kPageSize) {
    const Page* page = find_page(addr);
    if (page == nullptr) return 0;
    u64 value = 0;
    std::memcpy(&value, page->data() + offset, bytes);
    return value;
  }
  // Page-straddling access: byte loop (each byte re-enters the fast path).
  u64 value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<u64>(load_u8(addr + i)) << (8 * i);
  }
  return value;
}

void MainMemory::store_slow(Addr addr, unsigned bytes, u64 value) {
  assert(bytes >= 1 && bytes <= 8);
  const usize offset = addr & (kPageSize - 1);
  if (offset + bytes <= kPageSize) {
    std::memcpy(touch_page(addr).data() + offset, &value, bytes);
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    store_u8(addr + i, static_cast<u8>(value >> (8 * i)));
  }
}

void MainMemory::write_block(Addr addr, const u8* data, usize size) {
  for (usize i = 0; i < size;) {
    const usize offset = (addr + i) & (kPageSize - 1);
    const usize chunk = std::min(size - i, kPageSize - offset);
    std::memcpy(touch_page(addr + i).data() + offset, data + i, chunk);
    i += chunk;
  }
}

u64 MainMemory::content_hash() const {
  std::vector<u64> indices;
  indices.reserve(pages_.size());
  for (const auto& [page_index, page] : pages_) indices.push_back(page_index);
  std::sort(indices.begin(), indices.end());

  u64 hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&hash](u64 v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (u64 index : indices) {
    const Page& page = *pages_.at(index);
    // Skip all-zero pages so "touched but zero" equals "never touched".
    bool all_zero = true;
    for (u8 b : page) {
      if (b != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    mix(index);
    for (u8 b : page) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

void MainMemory::save(SnapshotWriter* writer) const {
  std::vector<u64> indices;
  indices.reserve(pages_.size());
  for (const auto& [page_index, page] : pages_) indices.push_back(page_index);
  std::sort(indices.begin(), indices.end());

  writer->field(indices.size());
  for (u64 index : indices) {
    writer->field(index);
    writer->put_bytes(pages_.at(index)->data(), kPageSize);
  }
  writer->field(content_hash());
}

void MainMemory::load(SnapshotReader* reader) {
  pages_.clear();
  invalidate_page_cache();
  const u64 page_count = reader->get_u64();
  for (u64 i = 0; i < page_count && reader->ok(); ++i) {
    const u64 index = reader->get_u64();
    auto page = std::make_unique<Page>();
    reader->get_bytes(page->data(), kPageSize);
    pages_.emplace(index, std::move(page));
  }
  const u64 stored_hash = reader->get_u64();
  if (reader->ok() && stored_hash != content_hash()) {
    reader->fail("memory image hash mismatch after restore");
  }
}

}  // namespace reese::mem
