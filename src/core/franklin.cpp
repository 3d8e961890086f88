// Franklin's time-redundancy scheme ("A Study of Time Redundant Fault
// Tolerance Techniques for Superscalar Processors", [24] in the paper) —
// the related work REESE improves on.
//
// Instructions are duplicated at the dynamic scheduler: every RUU entry
// must execute twice before it can commit, occupying its window slot for
// both executions. The first execution completes through complete_entry
// like any other, waking dependents and resolving branches (forwarding
// before comparison, as in REESE), but the entry only becomes committable
// after the duplicate execution's result has been compared. There is no
// R-stream Queue and no early release — which is exactly the structural
// pressure REESE's queue removes.
#include <algorithm>
#include <cassert>

#include "core/pipeline.h"

namespace reese::core {

void Pipeline::franklin_arm_duplicate(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(franklin_mode() && !entry.first_done);
  entry.first_done = true;

  // Create the comparator's stored copy; the fault hook may corrupt it
  // (or schedule a flip of the duplicate execution's output).
  FranklinCopy& copy = franklin_copies_[slot_index];
  copy.p_result = entry.result;
  copy.r_flip = 0;
  if (!entry.spec && fault_hook_ != nullptr) {
    const Strike strike =
        fault_hook_->on_instruction(entry.seq, now_, entry.pc, entry.inst);
    if (strike.id != 0) {
      entry.fault = strike.id;
      (strike.flip_r ? copy.r_flip : copy.p_result) ^=
          u64{1} << (strike.bit % 64);
    }
  }

  // Re-arm for the duplicate execution; the entry re-enters the issue scan.
  entry.issued = false;
  mark_ready(slot_index);
}

bool Pipeline::franklin_issue_second(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.first_done && !entry.issued && !entry.completed);

  const Cycle complete_at = acquire_redundant_unit(entry.inst, entry.pc,
                                                  entry.mem_addr, !entry.spec);
  if (complete_at == 0) return false;

  entry.issued = true;
  clear_ready(slot_index);
  stats_.separation.add(now_ - entry.issue_cycle);
  schedule_p_event(complete_at, RuuRef{slot_index, entry.gen});
  trace(TraceKind::kRIssue, entry);
  ++stats_.issued_r;
  return true;
}

void Pipeline::franklin_second_completion(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.first_done && !entry.completed);
  entry.completed = true;

  if (entry.spec) return;  // wrong-path duplicates are never compared

  const FranklinCopy& copy = franklin_copies_[slot_index];
  const bool mismatch = recompute_and_compare(
      entry.inst, entry.pc, entry.rs1_value, entry.rs2_value, entry.mem_addr,
      entry.actual_next, copy.p_result, entry.result, copy.r_flip);
  ++stats_.comparisons;
  ++stats_.committed_r;
  trace(TraceKind::kRComplete, entry);

  if (mismatch) {
    ++stats_.errors_detected;
    trace(TraceKind::kError, entry);
    fetch_stall_until_ = std::max(
        fetch_stall_until_, now_ + config_.reese.error_recovery_penalty);
  }
  if (entry.fault != 0) {
    // The comparison is where the fault ends: caught, or escaping to commit.
    resolve_fault(entry.fault,
                  mismatch ? FaultOutcome::kDetected
                           : escape_outcome(entry.inst),
                  entry.pc);
    entry.fault = 0;
  }
}

}  // namespace reese::core
