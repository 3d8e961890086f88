// REESE-specific pipeline stages: release (RUU -> R-stream Queue), R-stream
// issue into leftover capacity, comparison at R writeback, and the final
// in-order commit from the queue head.
#include <algorithm>
#include <cassert>

#include "core/pipeline.h"

namespace reese::core {

using isa::ExecClass;
using isa::Opcode;

bool Pipeline::reese_priority() const {
  // §4.3: counters watch the R-queue occupancy; when it runs hot, redundant
  // instructions must be scheduled ahead of primary ones or the queue fills
  // and blocks the whole pipeline. The percentage threshold is folded into
  // an entry count at construction so the per-cycle check is one compare.
  return rqueue_.size() >= rpriority_min_count_;
}

void Pipeline::reese_release() {
  u32 released = 0;
  u32 position = 0;
  while (released < config_.commit_width && position < ruu_count_) {
    const u32 slot_index = ruu_index_at(position);
    RuuEntry& entry = ruu_[slot_index];
    if (entry.released) {
      ++position;
      continue;
    }
    if (!entry.completed) break;
    assert(!entry.spec && "speculative instruction reached the RUU head");
    if (rqueue_.full()) {
      ++stats_.rqueue_full_stall_cycles;
      break;
    }

    REntry& redundant = rqueue_.push_slot();
    redundant.inst = entry.inst;
    redundant.pc = entry.pc;
    redundant.seq = entry.seq;
    redundant.rs1_value = entry.rs1_value;
    redundant.rs2_value = entry.rs2_value;
    redundant.p_result = entry.result;
    redundant.r_base_value = entry.result;  // loads: the reload's value
    redundant.mem_addr = entry.mem_addr;
    redundant.p_next = entry.actual_next;
    redundant.p_issue_cycle = entry.issue_cycle;
    redundant.p_complete_cycle = entry.complete_cycle;
    redundant.holds_ruu_slot = !config_.reese.early_release;

    // Partial re-execution (§7 future work): re-execute 1 of every k. The
    // counter rotates in [0, k) so the common k=1 case never divides.
    const u32 k = std::max<u32>(1, config_.reese.reexec_interval);
    redundant.needs_reexec = reexec_counter_ == 0;
    if (++reexec_counter_ >= k) reexec_counter_ = 0;

    // A component strike (RUU result or LSQ address) travels with the
    // instruction into the checker. The flipped result seeded BOTH
    // p_result and r_base_value above — so for loads the comparator sees
    // two agreeing corrupt copies (REESE's load-data blind spot), while
    // recomputed classes mismatch and detect.
    redundant.fault = entry.fault;
    entry.fault = 0;

    if (fault_hook_ != nullptr) {
      const Strike strike =
          fault_hook_->on_instruction(entry.seq, now_, entry.pc, entry.inst);
      if (strike.id != 0) {
        redundant.fault = strike.id;
        (strike.flip_r ? redundant.r_flip : redundant.p_result) ^=
            u64{1} << (strike.bit % 64);
      }
    }

    ++stats_.rqueue_enqueued;
    trace(TraceKind::kRelease, redundant);

    if (config_.reese.early_release) {
      assert(position == 0 &&
             "early release must drain contiguously from the head");
      free_ruu_head();
      // Head moved; position 0 is the next entry.
    } else {
      entry.released = true;
      ++position;
    }
    ++released;
  }
}

void Pipeline::reese_issue(u32* budget) {
  // Strict FIFO issue: scan from the head, skip entries already in flight
  // or not selected for re-execution, stop at the first entry that cannot
  // issue this cycle. `issued` and `needs_reexec` never revert while an
  // entry is queued, so the settled head prefix only grows until popped;
  // r_issue_next_id_ remembers the first candidate so the scan does not
  // re-skip the prefix every cycle.
  const usize queue_size = rqueue_.size();
  if (queue_size == 0) return;
  const u64 front_id = rqueue_.front().id;
  if (r_issue_next_id_ < front_id) r_issue_next_id_ = front_id;
  for (usize index = static_cast<usize>(r_issue_next_id_ - front_id);
       index < queue_size && *budget > 0; ++index) {
    REntry& entry = rqueue_.at(index);
    if (!entry.needs_reexec || entry.issued) {
      r_issue_next_id_ += entry.id == r_issue_next_id_ ? 1 : 0;
      continue;
    }

    if (config_.reese.min_separation > 0 &&
        now_ < entry.p_complete_cycle + config_.reese.min_separation) {
      break;  // §2: enforce a minimum P->R separation when configured
    }

    // An R instruction needs a scheduler-window slot while it executes.
    // The head R instruction may always proceed (the comparator stage has
    // a dedicated staging latch), which guarantees forward progress when
    // the window is packed with P entries and the R-queue is full.
    if (config_.reese.window_sharing &&
        ruu_count_ + r_inflight_ >= config_.ruu_size && r_inflight_ > 0) {
      break;
    }

    const Cycle complete_at =
        acquire_redundant_unit(entry.inst, entry.pc, entry.mem_addr, true);
    if (complete_at == 0) break;

    entry.issued = true;
    r_issue_next_id_ += entry.id == r_issue_next_id_ ? 1 : 0;
    trace(TraceKind::kRIssue, entry);
    if (config_.reese.window_sharing) ++r_inflight_;
    stats_.separation.add(now_ - entry.p_issue_cycle);
    schedule_r_event(complete_at, entry.id);
    ++stats_.issued_r;
    --*budget;
  }
}

Cycle Pipeline::acquire_redundant_unit(const isa::Instruction& inst, Addr pc,
                                       Addr mem_addr, bool architectural) {
  const ExecClass exec_class = inst.info().exec_class;
  if (exec_class == ExecClass::kLoad) {
    // Redundant loads recompute the effective address on an integer ALU
    // and re-access the D-cache through a memory port (§4.4: the P-stream
    // access brought the line in, so the access almost always hits).
    if (!fu_pool_.try_acquire(FuKind::kMemPort, now_, 1)) return 0;
    const Cycle complete_at = now_ + hierarchy_->data_access(mem_addr, false);
    if (mem_site_armed()) drain_mem_site_events(pc, architectural);
    return complete_at;
  }
  if (exec_class == ExecClass::kStore) {
    // Stores re-verify their effective address and value through the
    // memory pipeline (AGU + store-buffer check) or a plain ALU; the
    // single architectural cache write happens at commit.
    const FuKind unit = config_.reese.r_store_uses_port ? FuKind::kMemPort
                                                        : FuKind::kIntAlu;
    return fu_pool_.try_acquire(unit, now_, 1) ? now_ + 1 : 0;
  }
  if (exec_class == ExecClass::kNone) return now_ + 1;
  OpTiming timing = op_timing(exec_class, config_);
  // The comparator staging cost applies to the single-cycle ALU paths;
  // long-latency units already have output buffering.
  if (timing.fu == FuKind::kIntAlu || timing.fu == FuKind::kFpAlu) {
    timing.issue_latency = std::max(
        timing.issue_latency, std::max<u32>(1, config_.reese.r_fu_occupancy));
  }
  if (!fu_pool_.try_acquire(timing.fu, now_, timing.issue_latency)) return 0;
  return now_ + timing.result_latency;
}

bool Pipeline::recompute_and_compare(const isa::Instruction& inst, Addr pc,
                                     u64 rs1_value, u64 rs2_value,
                                     Addr mem_addr, Addr p_next, u64 p_result,
                                     u64 load_value, u64 r_flip) const {
  // Re-run the computation from the stored operands — the same semantics
  // function the P stream used, as in hardware where it is the same ALU.
  // The comparator is branch-free: each path accumulates a difference word
  // (XOR of the recomputed and stored values) instead of testing and
  // short-circuiting, and a single final test decides mismatch. This keeps
  // the per-comparison work a straight dependency chain the branch
  // predictor never sees.
  u64 r_value = 0;
  u64 aux_diff = 0;
  const isa::OpInfo& info = inst.info();
  if (info.exec_class == ExecClass::kLoad) {
    // The reload returns the same architecturally-correct value the P load
    // saw (all older stores have committed; younger ones have not).
    r_value = load_value;
    const isa::ComputeOut out = isa::compute(inst, rs1_value, rs2_value, pc);
    aux_diff = out.addr ^ mem_addr;
  } else {
    const isa::ComputeOut out = isa::compute(inst, rs1_value, rs2_value, pc);
    if (info.exec_class == ExecClass::kStore) {
      r_value = out.value;
      aux_diff = out.addr ^ mem_addr;
    } else if (isa::is_cond_branch(inst.op)) {
      r_value = out.taken ? 1 : 0;
      // Not-taken branches carry no target to verify; the all-ones/all-zeros
      // mask zeroes the target term without a second branch.
      aux_diff = (out.target ^ p_next) & (0 - static_cast<u64>(out.taken));
    } else if (isa::is_jump(inst.op)) {
      r_value = out.value;  // link value
      aux_diff = out.target ^ p_next;
    } else if (inst.op == Opcode::kOut) {
      r_value = rs1_value;
    } else {
      r_value = out.value;
    }
  }

  r_value ^= r_flip;
  return ((r_value ^ p_result) | aux_diff) != 0;
}

void Pipeline::reese_complete(u64 entry_id) {
  REntry& entry = rqueue_.by_id(entry_id);
  assert(entry.issued && !entry.completed);

  entry.mismatch = recompute_and_compare(
      entry.inst, entry.pc, entry.rs1_value, entry.rs2_value, entry.mem_addr,
      entry.p_next, entry.p_result, entry.r_base_value, entry.r_flip);
  entry.completed = true;
  trace(TraceKind::kRComplete, entry);
  // The R instruction holds its scheduler-window slot through the
  // writeback and comparison stages before it is recycled.
  if (config_.reese.window_sharing) {
    r_release_at_.schedule(now_ + config_.reese.compare_stage_cycles, now_, 1u);
  }
  ++stats_.committed_r;
  ++stats_.comparisons;
}

void Pipeline::reese_commit() {
  // Stats deltas accumulate locally and post once per commit group, not per
  // instruction, so the hot loop touches only the queue and the entry.
  u32 group = 0;
  u32 skipped = 0;
  while (group < config_.commit_width && !rqueue_.empty()) {
    REntry& entry = rqueue_.front();
    if (entry.needs_reexec && !entry.completed) break;

    if (isa::is_store(entry.inst.op)) {
      // The single architectural memory write (delayed past comparison,
      // §4.3: "results may not be committed into memory before they have
      // been compared").
      if (!fu_pool_.try_acquire(FuKind::kMemPort, now_, 1)) break;
      hierarchy_->data_access(entry.mem_addr, true);
      if (mem_site_armed()) drain_mem_site_events(entry.pc, true);
    }

    if (entry.mismatch) {
      // Soft error detected. The model charges error_recovery_penalty as a
      // fetch freeze: nothing is flushed or refetched, because
      // architectural state is never actually corrupted (see DESIGN.md).
      ++stats_.errors_detected;
      trace(TraceKind::kError, entry);
      fetch_stall_until_ = std::max(
          fetch_stall_until_, now_ + config_.reese.error_recovery_penalty);
    }

    if (entry.fault != 0) {
      // A mismatch is a detection (including false positives from
      // corrupted checker state). An escape — a 1-of-k skip, or a strike
      // after the comparison — commits a datapath corruption as SDC, while
      // a checker-only corruption leaves architectural state correct.
      const FaultOutcome outcome = entry.mismatch ? FaultOutcome::kDetected
                                   : entry.fault_checker_only
                                       ? FaultOutcome::kMasked
                                       : FaultOutcome::kSdc;
      resolve_fault(entry.fault, outcome, entry.pc);
    }

    skipped += entry.needs_reexec ? 0 : 1;
    if (entry.holds_ruu_slot) free_ruu_head();
    if (entry.inst.op == Opcode::kHalt) halted_ = true;
    trace(TraceKind::kCommit, entry);
    rqueue_.pop_front();
    ++group;
    if (halted_) break;
  }
  stats_.committed += group;
  stats_.rskipped += skipped;
}

}  // namespace reese::core
