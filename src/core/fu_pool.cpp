#include "core/fu_pool.h"

#include <cassert>

#include "common/snapshot.h"
#include "common/stats.h"

namespace reese::core {

const char* fu_kind_name(FuKind kind) {
  switch (kind) {
    case FuKind::kIntAlu: return "int-alu";
    case FuKind::kIntMult: return "int-mult";
    case FuKind::kFpAlu: return "fp-alu";
    case FuKind::kFpMult: return "fp-mult";
    case FuKind::kMemPort: return "mem-port";
    case FuKind::kCount: break;
  }
  return "?";
}

FuPool::FuPool(const CoreConfig& config) {
  auto init = [this](FuKind kind, u32 count) {
    next_free_[static_cast<usize>(kind)].assign(count, 0);
  };
  init(FuKind::kIntAlu, config.int_alu_count);
  init(FuKind::kIntMult, config.int_mult_count);
  init(FuKind::kFpAlu, config.fp_alu_count);
  init(FuKind::kFpMult, config.fp_mult_count);
  init(FuKind::kMemPort, config.mem_port_count);
}

double FuPool::utilization(FuKind kind, Cycle cycles) const {
  const usize index = static_cast<usize>(kind);
  if (next_free_[index].empty() || cycles == 0) return 0.0;
  return safe_ratio(ops_issued_[index],
                    cycles * next_free_[index].size());
}

template <class Self, class Io>
void FuPool::layout(Self& self, Io& io) {
  for (usize kind = 0; kind < kFuKindCount; ++kind) {
    io.geometry(self.next_free_[kind].size(),
                "functional-unit count mismatch (snapshot built with a "
                "different configuration)");
    for (auto& next_free : self.next_free_[kind]) io.field(next_free);
    io.field(self.ops_issued_[kind]);
  }
}

void FuPool::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void FuPool::load(SnapshotReader* reader) { layout(*this, *reader); }

}  // namespace reese::core
