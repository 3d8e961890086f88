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

void save_arch(SnapshotWriter* writer, const isa::ArchState& state) {
  for (u64 reg : state.xregs) writer->put_u64(reg);
  for (u64 reg : state.fregs) writer->put_u64(reg);
  writer->put_u64(state.pc);
  writer->put_bool(state.halted);
  writer->put_u64(state.out_hash);
  writer->put_u64(state.out_count);
}

void load_arch(SnapshotReader* reader, isa::ArchState* state) {
  for (u64& reg : state->xregs) reg = reader->get_u64();
  for (u64& reg : state->fregs) reg = reader->get_u64();
  state->pc = reader->get_u64();
  state->halted = reader->get_bool();
  state->out_hash = reader->get_u64();
  state->out_count = reader->get_u64();
}

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

void Pipeline::save_state(SnapshotWriter* writer) const {
  assert(quiescent() && "pipeline must be drained before save_state");

  writer->put_section(kTagArch);
  save_arch(writer, front_state_);

  writer->put_section(kTagMemory);
  memory_.save(writer);

  writer->put_section(kTagRun);
  writer->put_u64(now_);
  writer->put_u64(next_seq_);
  writer->put_u64(fetch_pc_);
  writer->put_u64(fetch_stall_until_);
  writer->put_bool(halted_);
  writer->put_bool(bad_pc_);
  writer->put_bool(fetch_done_);
  writer->put_u64(lsq_ticket_head_);

  writer->put_section(kTagBranch);
  gshare_.save_state(writer);
  btb_.save(writer);
  ras_.save(writer);

  writer->put_section(kTagHier);
  hierarchy_->save(writer);

  writer->put_section(kTagFu);
  fu_pool_.save(writer);

  writer->put_section(kTagReese);
  writer->put_u64(reexec_counter_);

  writer->put_section(kTagStats);
  stats_.save(writer);
}

void Pipeline::load_state(SnapshotReader* reader) {
  assert(quiescent() && "load_state target must be freshly constructed");

  if (!reader->expect_section(kTagArch)) return;
  load_arch(reader, &front_state_);

  if (!reader->expect_section(kTagMemory)) return;
  memory_.load(reader);

  if (!reader->expect_section(kTagRun)) return;
  now_ = reader->get_u64();
  next_seq_ = reader->get_u64();
  fetch_pc_ = reader->get_u64();
  fetch_stall_until_ = reader->get_u64();
  halted_ = reader->get_bool();
  bad_pc_ = reader->get_bool();
  fetch_done_ = reader->get_bool();
  lsq_ticket_head_ = reader->get_u64();

  if (!reader->expect_section(kTagBranch)) return;
  gshare_.load_state(reader);
  btb_.load(reader);
  ras_.load(reader);

  if (!reader->expect_section(kTagHier)) return;
  hierarchy_->load(reader);

  if (!reader->expect_section(kTagFu)) return;
  fu_pool_.load(reader);

  if (!reader->expect_section(kTagReese)) return;
  reexec_counter_ = reader->get_u64();

  if (!reader->expect_section(kTagStats)) return;
  stats_.load(reader);
}

}  // namespace reese::core
