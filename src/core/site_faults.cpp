// Component-targeted fault injection (DESIGN.md §16).
//
// When the installed FaultHook targets a FaultSite other than kResult, the
// pipeline polls it once per cycle and, on a strike, corrupts the named
// microarchitectural structure: an RUU entry's stored result, an R-stream
// Queue slot (REESE's own checker state), an LSQ effective address,
// predictor/BTB bits, or a D-L1/D-TLB line via the poison model in mem/.
// The struck entry carries the strike's id (a poisoned line's id waits in
// mem_poison_pending_) until the corrupted state dies; there the id
// resolves, exactly once, through resolve_fault with one masked/detected/
// SDC outcome and the static PC that owned (or consumed) the corrupted
// state — the root-cause attribution the component-AVF campaigns
// aggregate. This is the same resolution every result flip goes through.
//
// Resolution points live where the corrupted state dies:
//   * the strike itself (empty slot, dead state) -> masked at once
//   * squash (recover_from_mispredict)      -> masked
//   * baseline commit (commit_head_baseline) -> SDC if the value is
//     architecturally live, else masked
//   * REESE commit (reese_commit)           -> detected on mismatch; an
//     escape is SDC for datapath state and masked for checker-only state
//   * cache/TLB poison consumption/eviction  -> drained after data accesses
// Strikes still unresolved at the end of a run (in-flight queue entries,
// un-touched poisoned lines) are finalized as masked by the injector.
#include <cassert>

#include "common/bitutil.h"
#include "core/pipeline.h"

namespace reese::core {

void Pipeline::poll_site_fault() {
  const Strike strike = fault_hook_->on_site_cycle(now_);
  if (strike.id == 0) return;
  switch (fault_site_) {
    case FaultSite::kResult:    break;  // poll not armed for kResult
    case FaultSite::kRuu:       strike_ruu(strike); break;
    case FaultSite::kRQueue:    strike_rqueue(strike); break;
    case FaultSite::kLsq:       strike_lsq(strike); break;
    case FaultSite::kPredictor: strike_predictor(strike); break;
    case FaultSite::kBtb:       strike_btb(strike); break;
    case FaultSite::kDCache:    strike_dcache(strike); break;
    case FaultSite::kDTlb:      strike_dtlb(strike); break;
  }
}

void Pipeline::strike_ruu(const Strike& strike) {
  // Strike a physical RUU slot, occupied or not — the structure's
  // vulnerability includes its empty entries, exactly like a hardware
  // campaign hitting a random flop.
  const u32 slot_index = static_cast<u32>(strike.cell % config_.ruu_size);
  RuuEntry& entry = ruu_[slot_index];
  if (!entry.valid) {
    resolve_fault(strike.id, FaultOutcome::kMasked, 0);
    return;
  }
  if (entry.released || entry.fault != 0) {
    // Released entries are dead copies (the R-queue owns the live state);
    // a second strike on an already-struck entry adds nothing.
    resolve_fault(strike.id, FaultOutcome::kMasked, entry.pc);
    return;
  }
  // Flip a bit of the stored result. Functional execution happened at
  // dispatch, so this is measurement-only for consumers — it corrupts what
  // commit (baseline) or the release-to-R-queue copy (REESE) will see.
  entry.result = flip_bit(entry.result, strike.bit & 63);
  entry.fault = strike.id;
}

void Pipeline::strike_rqueue(const Strike& strike) {
  // The headline experiment: the fault lands in REESE's own checker. The
  // strike picks a physical queue slot; hitting an empty one is masked (the
  // queue's vulnerability scales with its occupancy).
  const usize index = static_cast<usize>(strike.cell % rqueue_.capacity());
  if (index >= rqueue_.size()) {
    resolve_fault(strike.id, FaultOutcome::kMasked, 0);
    return;
  }
  REntry& entry = rqueue_.at(index);
  if (entry.fault != 0) {
    resolve_fault(strike.id, FaultOutcome::kMasked, entry.pc);
    return;
  }
  entry.fault = strike.id;
  entry.fault_checker_only = strike.field % 4 != 0;
  switch (strike.field % 4) {
    case 0:
      // The stored result. In hardware this is the value that will be
      // committed to architectural state: an upset caught by a pending
      // comparison is a (correct) detection; one that lands after the
      // comparison — or on a 1-of-k slot that skips re-execution — commits
      // silently (SDC).
      entry.p_result = flip_bit(entry.p_result, strike.bit & 63);
      break;
    case 1:
      // Stored operand copies feed only the re-execution: a corrupt operand
      // makes the recomputation disagree with a *correct* result — a
      // false-positive detection that charges the recovery penalty. If the
      // operand is never consumed, the upset is masked.
      entry.rs1_value = flip_bit(entry.rs1_value, strike.bit & 63);
      break;
    case 2:
      entry.rs2_value = flip_bit(entry.rs2_value, strike.bit & 63);
      break;
    case 3:
      // Control-state upset: kill the re-execute flag. The instruction
      // commits its (correct) value unchecked — architecturally masked,
      // but REESE silently lost coverage for it. on_checker_loss()
      // quantifies that window.
      if (entry.needs_reexec && !entry.issued) {
        entry.needs_reexec = false;
        fault_hook_->on_checker_loss();
      }
      break;
  }
}

void Pipeline::strike_lsq(const Strike& strike) {
  const u32 position = static_cast<u32>(strike.cell % config_.lsq_size);
  if (position >= lsq_count_) {
    resolve_fault(strike.id, FaultOutcome::kMasked, 0);
    return;
  }
  RuuEntry& entry = ruu_[lsq_[lsq_index_at(position)]];
  assert(entry.valid && (entry.is_load() || entry.is_store()));
  if (entry.released || entry.fault != 0) {
    resolve_fault(strike.id, FaultOutcome::kMasked, entry.pc);
    return;
  }
  // Flip a bit of the effective address. Loaded/stored *values* stay
  // functional (captured at dispatch), but the corrupted address perturbs
  // cache timing and LSQ ordering for real, reaches the baseline's commit
  // write, and is what REESE's address comparison (aux_diff) checks.
  entry.mem_addr = flip_bit(entry.mem_addr, strike.bit & 63);
  entry.fault = strike.id;
}

void Pipeline::strike_predictor(const Strike& strike) {
  // Predictor state is architecturally dead by construction — a flipped
  // pattern counter can only cost a misprediction. The flip is applied for
  // real (the timing perturbation is genuine) and the strike resolves
  // masked immediately: this is the campaign's AVF≈0 ground-truth control.
  if (gshare_ != nullptr) {
    gshare_->flip_counter_bit(strike.cell, strike.bit);
  }
  resolve_fault(strike.id, FaultOutcome::kMasked, 0);
}

void Pipeline::strike_btb(const Strike& strike) {
  // Same architecturally-dead contract as the direction predictor: a
  // corrupt BTB target mispredicts, dispatch computes the true target and
  // recovers. (Invalid-entry strikes don't even perturb timing.)
  btb_.flip_target_bit(strike.cell, strike.bit);
  resolve_fault(strike.id, FaultOutcome::kMasked, 0);
}

void Pipeline::strike_dcache(const Strike& strike) {
  if (!hierarchy_->dl1().poison_random_line(strike.cell)) {
    resolve_fault(strike.id, FaultOutcome::kMasked, 0);
    return;
  }
  mem_poison_pending_.push_back(strike.id);
}

void Pipeline::strike_dtlb(const Strike& strike) {
  if (!hierarchy_->dtlb().poison_random_entry(strike.cell)) {
    resolve_fault(strike.id, FaultOutcome::kMasked, 0);
    return;
  }
  mem_poison_pending_.push_back(strike.id);
}

void Pipeline::drain_mem_site_events(Addr pc, bool architectural) {
  u32 consumed = 0;
  u32 cleared = 0;
  if (fault_site_ == FaultSite::kDCache) {
    consumed = hierarchy_->dl1().take_poison_consumed();
    cleared = hierarchy_->dl1().take_poison_cleared();
  } else {
    consumed = hierarchy_->dtlb().take_poison_consumed();
    cleared = hierarchy_->dtlb().take_poison_cleared();
  }
  if (consumed == 0 && cleared == 0) return;

  // A poisoned line holds one strike, and each strike resolves on the
  // first read or clear of its line, so every event has a pending id. The
  // lines resolve roughly in strike order; taking the oldest id keeps the
  // attribution deterministic.
  const auto resolve_oldest = [this](FaultOutcome outcome, Addr at_pc) {
    assert(!mem_poison_pending_.empty());
    resolve_fault(mem_poison_pending_.front(), outcome, at_pc);
    mem_poison_pending_.erase(mem_poison_pending_.begin());
  };
  for (u32 i = 0; i < consumed; ++i) {
    // The access that just ran read corrupt data (or translated through a
    // corrupt entry). Both the P access and REESE's R re-access read the
    // SAME corrupted structure, so the comparator sees agreeing copies:
    // REESE is blind here, and an architectural consumer means SDC. A
    // wrong-path consumer squashes — masked.
    resolve_oldest(architectural ? FaultOutcome::kSdc : FaultOutcome::kMasked,
                   pc);
  }
  for (u32 i = 0; i < cleared; ++i) {
    // Overwritten or evicted before any read: the corruption left the
    // structure unconsumed.
    resolve_oldest(FaultOutcome::kMasked, 0);
  }
}

}  // namespace reese::core
