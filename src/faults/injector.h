// Transient-fault injector.
//
// Implements core::FaultHook. Every fault it hands out is a FaultRecord,
// and the record's index + 1 is the fault's id, so the pipeline's single
// report through on_resolved is one index lookup. Faults come from a seeded
// RNG or an explicit schedule, in one of two models:
//  * result flips (site kResult): as instructions leave the out-of-order
//    window, flip a bit of the stored P-stream result or of the R-stream
//    recomputation — the paper's §2/§4.2 error model, "soft errors that
//    affect instruction results" (arithmetic, logical, effective address
//    and branch resolution outcomes);
//  * component strikes (any other site, DESIGN.md §16): once per cycle,
//    strike a storage structure, REESE's own R-stream Queue included.
// Faults are measurement-only (architectural state is never corrupted);
// see DESIGN.md.
//
// Accounting:
//  * A record resolves exactly once. A second report for the same id never
//    moves a counter; it counts in duplicate_reports().
//  * A result flip is detected or undetected: an escape counts as
//    undetected whatever outcome the pipeline reports, and the ACE window
//    below splits it into masked or SDC. A strike keeps the pipeline's
//    outcome, and counts as undetected only when it is SDC.
//  * Strikes still unresolved at the end of a run are finalized as masked
//    by finalize_windows().
//
// ACE-window measurement (srv-vuln cross-validation): because the hook is
// called for EVERY instruction in the committed stream — not only faulted
// ones — the injector can watch each faulted value's destination register
// until it is read or overwritten. A fault is ACE (architecturally
// correct execution would change) when the value is read at least once
// before redefinition; its live window is the instruction distance to the
// last such read. Faults into stores/branches/OUT are consumed
// immediately (window 1); faults into x0 writes or HALT/NOP are masked.
// Windows still open at end of run are finalized by finalize_windows().
// With the Franklin scheme the hook fires in completion order, so window
// lengths there are an approximation; baseline commit order is exact.
#pragma once

#include <array>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/fault_hook.h"
#include "isa/opcode.h"

namespace reese::faults {

/// Which copy of the value the flip lands in.
enum class FaultTarget : u8 {
  kPResult,  ///< the stored P-stream result (comparator's reference copy)
  kRResult,  ///< the R-stream recomputation output
  kEither,   ///< 50/50 per fault
};

const char* fault_target_name(FaultTarget target);

struct InjectorConfig {
  /// Probability of injecting into any given instruction. Typical campaign
  /// values are 1e-4..1e-3 so faults are far rarer than pipeline events.
  double rate = 0.0;

  /// Explicit instruction sequence numbers to fault (in addition to the
  /// rate-driven ones). Useful for deterministic unit tests.
  std::vector<InstSeq> schedule;

  FaultTarget target = FaultTarget::kEither;
  u64 seed = 0xFA17;

  /// Cap on total injections (0 = unlimited).
  u64 max_faults = 0;

  /// Which microarchitectural structure to strike (DESIGN.md §16). The
  /// default, kResult, keeps the classic result-flipping model above; any
  /// other value switches the injector into site mode: `rate` becomes a
  /// per-CYCLE strike probability and on_instruction stops injecting.
  core::FaultSite site = core::FaultSite::kResult;
};

/// One injected fault; its index in Injector::records() + 1 is its id.
struct FaultRecord {
  InstSeq seq = 0;           ///< result flips: the faulted instruction
  Cycle injected_at = 0;
  /// Result flips: the static instruction the flip landed on. Strikes: the
  /// static instruction the outcome was attributed to (0 = none).
  Addr pc = 0;
  bool hit_p = false;        ///< result flips: the flip hit the P copy
  isa::ExecClass exec_class = isa::ExecClass::kNone;
  bool resolved = false;     ///< the pipeline reported how the fault ended
  /// As the pipeline reported it (a strike finalized unresolved: masked).
  /// For a result flip only kDetected counts: the ACE window below splits
  /// an escape into masked or SDC.
  core::FaultOutcome outcome = core::FaultOutcome::kMasked;
  Cycle resolved_at = 0;

  bool detected() const {
    return resolved && outcome == core::FaultOutcome::kDetected;
  }

  // Dynamic ACE-window measurement (see the header comment).
  bool window_closed = false;  ///< the value was read or overwritten (or
                               ///< finalize_windows() ran); until then the
                               ///< window fields below are provisional
  bool ace = false;            ///< read at least once before redefinition
  u64 live_window = 0;         ///< instructions to the last consuming read
};

class Injector final : public core::FaultHook {
 public:
  explicit Injector(const InjectorConfig& config);

  core::Strike on_instruction(InstSeq seq, Cycle now, Addr pc,
                              const isa::Instruction& inst) override;
  core::FaultSite site() const override { return config_.site; }
  core::Strike on_site_cycle(Cycle now) override;
  void on_resolved(u64 id, core::FaultOutcome outcome, Addr pc,
                   Cycle now) override;
  void on_checker_loss() override { ++checker_loss_; }

  /// Close every still-open ACE window at end of run: a value read at
  /// least once counts as ACE with its window so far; an unread value is
  /// masked (the program produced it and ended without consuming it).
  /// Site mode: finalize every unresolved strike as masked. Idempotent;
  /// call once the committed stream is complete.
  void finalize_windows();

  u64 injected() const { return records_.size(); }
  u64 detected() const { return detected_; }
  /// Result-flip escapes and SDC strikes.
  u64 undetected() const { return undetected_; }
  /// Faults injected but never resolved (still in flight at end of run).
  u64 pending() const { return records_.size() - resolved_; }
  /// Reports for a fault that had already resolved (duplicates).
  u64 duplicate_reports() const { return duplicate_reports_; }
  /// Detected / (detected + undetected); pending faults and masked
  /// strikes are excluded.
  double coverage() const;
  const std::vector<FaultRecord>& records() const { return records_; }
  const Histogram& latency() const { return latency_; }

  bool site_mode() const { return config_.site != core::FaultSite::kResult; }
  /// R-queue needs_reexec kills: instructions that committed unchecked
  /// because a strike silently disabled their re-execution.
  u64 checker_loss() const { return checker_loss_; }

 private:
  /// Append a record and return the id the pipeline carries for it.
  u64 add_record(const FaultRecord& record);

  /// One faulted value being tracked to its last read: the destination
  /// register holds record `record_index` since stream position `def_pos`.
  struct OpenWindow {
    static constexpr usize kNone = ~usize{0};
    usize record_index = kNone;
    u64 def_pos = 0;
    u64 last_use_pos = 0;  ///< == def_pos until the first read
  };
  /// Close the window over `open` (value read/overwritten/run ended).
  void close_window(OpenWindow* open);

  InjectorConfig config_;
  SplitMix64 rng_;
  std::set<InstSeq> fired_;  ///< scheduled seqs already injected
  u64 stream_pos_ = 0;       ///< committed-stream instruction counter
  std::array<OpenWindow, isa::kFlatRegCount> open_windows_{};
  std::vector<FaultRecord> records_;
  u64 resolved_ = 0;
  u64 detected_ = 0;
  u64 undetected_ = 0;
  u64 duplicate_reports_ = 0;
  u64 checker_loss_ = 0;
  Histogram latency_{4, 64};
};

}  // namespace reese::faults
