// Interface between the pipeline and the fault-injection framework.
//
// Every fault is an id. The hook hands one out in a Strike, either when an
// instruction leaves the out-of-order window (on_instruction: a flip of the
// stored P result or of the R recomputation) or from the per-cycle poll of
// a component site (on_site_cycle: a strike into a storage structure). The
// pipeline carries the id in the struck entry and reports it back exactly
// once, through on_resolved, when the corrupted state dies: at a comparison,
// at commit, at a squash or when a poisoned line is read or evicted. Keeping
// this as an interface lets src/core stay independent of src/faults.
//
// Injection is *measurement-only*: the architectural (functional) state is
// never corrupted, so a campaign can measure coverage and detection latency
// on a live workload without needing architectural rollback. See DESIGN.md.
#pragma once

#include "common/types.h"
#include "isa/instruction.h"

namespace reese::core {

/// Which microarchitectural structure a fault campaign targets. kResult is
/// the classic result-flipping model (an upset in a functional unit's output
/// latch, handed out by on_instruction); every other site names a storage
/// structure struck through the per-cycle on_site_cycle poll.
/// DESIGN.md §16 documents the per-site injection and outcome semantics.
enum class FaultSite : u8 {
  kResult = 0,  ///< instruction-result flips (the legacy injector model)
  kRuu,         ///< an RUU entry's stored result field
  kRQueue,      ///< an R-stream Queue slot — REESE's own checker state
  kLsq,         ///< an LSQ entry's effective-address field
  kPredictor,   ///< a gshare pattern-table counter bit
  kBtb,         ///< a BTB entry's target field
  kDCache,      ///< a D-L1 line (poisoned until consumed or evicted)
  kDTlb,        ///< a data-TLB translation entry (same poison model)
};

inline constexpr usize kFaultSiteCount = 8;

inline const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kResult:    return "result";
    case FaultSite::kRuu:       return "ruu";
    case FaultSite::kRQueue:    return "rqueue";
    case FaultSite::kLsq:       return "lsq";
    case FaultSite::kPredictor: return "predictor";
    case FaultSite::kBtb:       return "btb";
    case FaultSite::kDCache:    return "dcache";
    case FaultSite::kDTlb:      return "dtlb";
  }
  return "?";
}

/// How one fault ended. Every fault resolves to exactly one outcome:
///   kMasked   — the corrupted state was never architecturally consumed
///               (empty slot, squashed entry, overwritten/evicted line, dead
///               value, or timing-only state like predictor bits);
///   kDetected — a comparator mismatch fired and charged the recovery
///               penalty (including false-positive detections of checker
///               self-faults);
///   kSdc      — the corruption reached architecturally-visible state with
///               no detection: silent data corruption.
enum class FaultOutcome : u8 { kMasked, kDetected, kSdc };

inline const char* fault_outcome_name(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kMasked:   return "masked";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kSdc:      return "sdc";
  }
  return "?";
}

/// One fault handed to the pipeline. A nonzero `id` names it; id 0 means no
/// fault. All randomness stays in the hook (which slot, field and bit), so
/// the pipeline is deterministic and the hook testable.
struct Strike {
  u64 id = 0;
  unsigned bit = 0;     ///< which bit of the 64-bit value to flip
  bool flip_r = false;  ///< result flips: hit the R recomputation, not the
                        ///< stored P copy
  u64 cell = 0;         ///< component sites: the struck slot/line (reduced
                        ///< modulo the structure size by the pipeline)
  u64 field = 0;        ///< component sites: which stored field of a
                        ///< multi-field entry is hit
};

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Called when instruction `seq` leaves the out-of-order window on its
  /// way to commit (REESE: R-queue entry creation; baseline: commit). `pc`
  /// is the instruction's program counter. Baseline commit and REESE
  /// R-queue creation call this in program order for EVERY instruction,
  /// which lets a hook observe the committed value stream — the Franklin
  /// scheme calls in completion order instead (documented approximation
  /// for stream-order consumers). A nonzero id flips a bit of the result.
  virtual Strike on_instruction(InstSeq seq, Cycle now, Addr pc,
                                const isa::Instruction& inst) = 0;

  /// Which structure this hook targets. kResult (the default) keeps the
  /// on_instruction result flips; anything else arms the per-cycle poll.
  virtual FaultSite site() const { return FaultSite::kResult; }

  /// Polled once per cycle (top of Pipeline::cycle) when site() != kResult.
  /// A nonzero id strikes the site's structure (site_faults.cpp).
  virtual Strike on_site_cycle(Cycle now) {
    (void)now;
    return {};
  }

  /// Fault `id` ended with `outcome` at cycle `now`. `pc` attributes it to
  /// the static instruction that owned (or consumed) the corrupted state;
  /// it is 0 when no instruction is attributable (empty slot, evicted
  /// line, ...). The pipeline reports each id exactly once.
  virtual void on_resolved(u64 id, FaultOutcome outcome, Addr pc,
                           Cycle now) = 0;

  /// An R-queue self-fault killed a pending re-execution: the instruction
  /// will commit unchecked. The strike itself still resolves (as masked —
  /// architectural state is untouched); this counter quantifies the silent
  /// coverage loss.
  virtual void on_checker_loss() {}
};

}  // namespace reese::core
