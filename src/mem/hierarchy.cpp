#include "mem/hierarchy.h"

#include "common/snapshot.h"
#include "common/strutil.h"

namespace reese::mem {

Hierarchy::Hierarchy(const HierarchyConfig& config) {
  dram_ = std::make_unique<FlatMemoryLevel>(config.memory_latency);
  page_walk_ =
      std::make_unique<FlatMemoryLevel>(config.page_walk_latency, "walk");
  ul2_ = std::make_unique<Cache>(config.ul2, dram_.get());
  il1_ = std::make_unique<Cache>(config.il1, ul2_.get());
  dl1_ = std::make_unique<Cache>(config.dl1, ul2_.get());
  itlb_ = std::make_unique<Cache>(config.itlb, page_walk_.get());
  dtlb_ = std::make_unique<Cache>(config.dtlb, page_walk_.get());
}

// A translation is only ever read: a TLB hit consumes a poisoned entry,
// and a TLB line is never dirty.
u32 Hierarchy::inst_access(Addr pc) {
  const u32 latency = il1_->access(pc, /*is_write=*/false);
  return latency + itlb_->access(pc, /*is_write=*/false);
}

u32 Hierarchy::data_access(Addr addr, bool is_write) {
  const u32 latency = dl1_->access(addr, is_write);
  return latency + dtlb_->access(addr, /*is_write=*/false);
}

template <class Self, class Io>
void Hierarchy::layout(Self& self, Io& io) {
  io.part(*self.dram_);
  io.part(*self.page_walk_);
  io.part(*self.ul2_);
  io.part(*self.il1_);
  io.part(*self.dl1_);
  io.part(*self.itlb_);
  io.part(*self.dtlb_);
}

void Hierarchy::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void Hierarchy::load(SnapshotReader* reader) { layout(*this, *reader); }

std::string Hierarchy::report() const {
  std::string out;
  for (const Cache* cache : {il1_.get(), dl1_.get(), ul2_.get()}) {
    const CacheStats& s = cache->stats();
    out += format("  %-4s: %10llu accesses, %9llu misses (%.3f%% miss rate)\n",
                  cache->name().c_str(),
                  static_cast<unsigned long long>(s.accesses),
                  static_cast<unsigned long long>(s.misses),
                  100.0 * s.miss_rate());
  }
  out += format("  dram: %10llu accesses\n",
                static_cast<unsigned long long>(dram_->accesses()));
  return out;
}

}  // namespace reese::mem
