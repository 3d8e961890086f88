#include "faults/injector.h"

#include <algorithm>
#include <cassert>

namespace reese::faults {

const char* fault_target_name(FaultTarget target) {
  switch (target) {
    case FaultTarget::kPResult: return "p";
    case FaultTarget::kRResult: return "r";
    case FaultTarget::kEither: return "either";
  }
  return "?";
}

Injector::Injector(const InjectorConfig& config)
    : config_(config), rng_(config.seed) {
  std::sort(config_.schedule.begin(), config_.schedule.end());
}

void Injector::close_window(OpenWindow* open) {
  FaultRecord& record = records_[open->record_index];
  record.window_closed = true;
  record.ace = open->last_use_pos > open->def_pos;
  record.live_window = record.ace ? open->last_use_pos - open->def_pos : 0;
  open->record_index = OpenWindow::kNone;
}

void Injector::finalize_windows() {
  for (OpenWindow& open : open_windows_) {
    if (open.record_index != OpenWindow::kNone) close_window(&open);
  }
  // Site mode: strikes whose corrupted state was still live at end of run
  // (in-flight queue entries, unconsumed poisoned lines) never reached an
  // architectural consumer — masked. They keep pc 0: no consumer to blame.
  if (!site_mode()) return;
  for (FaultRecord& record : records_) {
    if (record.resolved) continue;
    record.resolved = true;
    record.outcome = core::FaultOutcome::kMasked;
    ++resolved_;
  }
}

u64 Injector::add_record(const FaultRecord& record) {
  records_.push_back(record);
  return records_.size();
}

core::Strike Injector::on_site_cycle(Cycle now) {
  if (config_.rate <= 0.0 || !rng_.next_bool(config_.rate)) return {};
  // All randomness stays here so the pipeline's strike handling is a pure
  // function of the strike — campaigns are bit-identical for any --jobs
  // split as long as each cell owns its own seeded injector.
  FaultRecord record;
  record.injected_at = now;
  core::Strike strike;
  strike.id = add_record(record);
  strike.cell = rng_.next();
  strike.bit = static_cast<unsigned>(rng_.next_below(64));
  strike.field = rng_.next();
  return strike;
}

core::Strike Injector::on_instruction(InstSeq seq, Cycle now, Addr pc,
                                      const isa::Instruction& inst) {
  // Site mode strikes structures per cycle, not instruction results.
  if (site_mode()) return {};

  // Advance the committed-stream ACE tracking before the injection
  // decision: this instruction's reads consume earlier faulted values, and
  // its definition closes the previous value's window even when the
  // instruction is itself about to be faulted.
  ++stream_pos_;
  const isa::DefUse du = isa::def_use(inst);
  for (u8 u = 0; u < du.use_count; ++u) {
    OpenWindow& open = open_windows_[du.uses[u].flat()];
    if (open.record_index != OpenWindow::kNone) {
      open.last_use_pos = stream_pos_;
    }
  }
  OpenWindow* def_window = nullptr;
  if (du.def_count > 0) {
    def_window = &open_windows_[du.defs[0].flat()];
    if (def_window->record_index != OpenWindow::kNone) {
      close_window(def_window);
    }
  }

  bool inject = false;
  // Explicit schedule: binary search (callers may report instructions out
  // of program order, e.g. the Franklin scheme's completion-order hook).
  if (std::binary_search(config_.schedule.begin(), config_.schedule.end(),
                         seq) &&
      fired_.insert(seq).second) {
    inject = true;
  }
  if (!inject && config_.rate > 0.0) inject = rng_.next_bool(config_.rate);
  if (!inject) return {};

  bool hit_p = false;
  switch (config_.target) {
    case FaultTarget::kPResult: hit_p = true; break;
    case FaultTarget::kRResult: hit_p = false; break;
    case FaultTarget::kEither: hit_p = rng_.next_bool(0.5); break;
  }
  core::Strike strike;
  strike.flip_r = !hit_p;
  strike.bit = static_cast<unsigned>(rng_.next_below(64));

  FaultRecord record;
  record.seq = seq;
  record.injected_at = now;
  record.pc = pc;
  record.hit_p = hit_p;
  record.exec_class = inst.info().exec_class;
  strike.id = add_record(record);
  const usize record_index = strike.id - 1;

  // Start the ACE-window measurement for the faulted value.
  const isa::OpInfo& info = inst.info();
  if (info.writes_rd && (info.is_fp_rd || inst.rd != isa::kZeroReg)) {
    *def_window = {record_index, stream_pos_, stream_pos_};
  } else {
    FaultRecord& rec = records_.back();
    rec.window_closed = true;
    if (info.exec_class == isa::ExecClass::kStore ||
        isa::is_cond_branch(inst.op) || inst.op == isa::Opcode::kOut) {
      // The flipped value (stored data, branch outcome, output-hash
      // operand) is consumed by this very instruction.
      rec.ace = true;
      rec.live_window = 1;
    }
    // else: x0 write, HALT or NOP — masked immediately.
  }
  return strike;
}

void Injector::on_resolved(u64 id, core::FaultOutcome outcome, Addr pc,
                           Cycle now) {
  assert(id != 0 && id <= records_.size() && "fault id never handed out");
  if (id == 0 || id > records_.size() || records_[id - 1].resolved) {
    // A second report must never move the counters.
    ++duplicate_reports_;
    return;
  }
  FaultRecord& record = records_[id - 1];
  record.resolved = true;
  record.outcome = outcome;
  record.resolved_at = now;
  ++resolved_;
  if (site_mode()) record.pc = pc;
  if (outcome == core::FaultOutcome::kDetected) {
    ++detected_;
    latency_.add(now - record.injected_at);
  } else if (!site_mode() || outcome == core::FaultOutcome::kSdc) {
    ++undetected_;
  }
}

double Injector::coverage() const {
  const u64 resolved = detected_ + undetected_;
  return safe_ratio(detected_, resolved);
}

}  // namespace reese::faults
