// Pipeline checkpoint/restore: the drain barrier and whole-state
// serialization (DESIGN.md §14).
//
// Snapshots land only on a drained pipeline: drain_to_barrier() suppresses
// fetch and cycles until every in-flight structure is empty, so the state
// that needs to persist collapses to the architectural machine (registers,
// memory, PC), the history structures (predictor, BTB, RAS, cache/TLB tags,
// FU next-free cycles), the sequence counter, the LSQ ticket, the 1-of-k
// re-execution counter, and the stats. Nothing transient — the fetch queue,
// RUU, LSQ and R-stream Queue rings, event queues, spec overlay,
// create-vector — is serialized; a freshly constructed pipeline is
// already in the drained configuration for all of it. (The per-slot RUU
// `gen` counters restart at zero after a restore; they only ever compare
// against refs recorded in the same run segment, and every pre-snapshot ref
// is dead either way — slot invalid — so behavior is unaffected.)
#include <cassert>

#include "common/snapshot.h"
#include "core/pipeline.h"

namespace reese::core {

namespace {

// Section tags ("ARCH", "MEMY", ...) checked by load_state so a reader that
// drifts out of sync fails at the next component boundary.
constexpr u32 kTagArch = 0x41524348;
constexpr u32 kTagMemory = 0x4D454D59;
constexpr u32 kTagRun = 0x52554E21;
constexpr u32 kTagBranch = 0x42505244;
constexpr u32 kTagHier = 0x48494552;
constexpr u32 kTagFu = 0x4655504C;
constexpr u32 kTagReese = 0x52455345;
constexpr u32 kTagStats = 0x53544154;

}  // namespace

bool Pipeline::quiescent() const {
  return ifq_.empty() && ruu_.empty() && lsq_.empty() && !spec_mode_ &&
         rqueue_.empty() && p_events_.empty() && r_events_.empty();
}

bool Pipeline::drain_to_barrier(Cycle limit) {
  drain_fetch_stall_ = true;
  const Cycle start = now_;
  while (!quiescent() && !halted_ && !bad_pc_) {
    if (now_ - start >= limit) break;
    cycle();
  }
  drain_fetch_stall_ = false;
  return quiescent();
}

template <class Self, class Io>
void Pipeline::layout(Self& self, Io& io) {
  io.section(kTagArch);
  isa::ArchState::layout(self.front_state_, io);

  io.section(kTagMemory);
  io.part(self.memory_);

  io.section(kTagRun);
  io.field(self.now_);
  io.field(self.next_seq_);
  io.field(self.fetch_pc_);
  io.field(self.fetch_stall_until_);
  io.field(self.halted_);
  io.field(self.bad_pc_);
  io.field(self.fetch_done_);
  io.field(self.lsq_ticket_head_);

  io.section(kTagBranch);
  io.part(self.gshare_);
  io.part(self.btb_);
  io.part(self.ras_);

  io.section(kTagHier);
  io.part(*self.hierarchy_);

  io.section(kTagFu);
  io.part(self.fu_pool_);

  io.section(kTagReese);
  io.field(self.reexec_counter_);

  io.section(kTagStats);
  io.part(self.stats_);
}

void Pipeline::save_state(SnapshotWriter* writer) const {
  assert(quiescent() && "pipeline must be drained before save_state");
  layout(*this, *writer);
}

void Pipeline::load_state(SnapshotReader* reader) {
  assert(quiescent() && "load_state target must be freshly constructed");
  layout(*this, *reader);
}

}  // namespace reese::core
