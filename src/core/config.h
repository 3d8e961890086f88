// Core (pipeline) configuration.
//
// Defaults reproduce Table 1 of the paper — the "starting configuration":
// fetch queue 16, 8-wide pipeline stages, RUU 16, LSQ 8, 4 integer ALUs +
// 1 integer mult/div, mirrored FP units, 2 memory ports, gshare.
#pragma once

#include <string>

#include "branch/predictor.h"
#include "common/types.h"
#include "mem/hierarchy.h"

namespace reese::core {

/// Which time-redundancy scheme the core runs.
enum class RedundancyScheme : u8 {
  /// The baseline processor: every instruction executes once.
  kNone,
  /// The paper's contribution: completed P instructions enter the
  /// R-stream Queue, freeing their RUU slot; re-execution is scheduled
  /// from the queue into idle capacity.
  kReese,
  /// Franklin's scheme ([24], the paper's §3 point of comparison):
  /// instructions are duplicated *at the dynamic scheduler* — each RUU
  /// entry must execute twice before it can commit, holding its window
  /// slot the whole time. No R-queue, no early release.
  kFranklin,
};

/// Redundancy knobs. `scheme` selects the scheme; the others tune REESE
/// (Franklin reads only the R-stream resource rules and the recovery
/// penalty).
struct ReeseConfig {
  RedundancyScheme scheme = RedundancyScheme::kNone;

  /// R-stream Queue capacity (paper: initial maximum of 32 entries).
  u32 rqueue_size = 32;

  /// Release completed P-stream instructions from the RUU head into the
  /// R-stream Queue before their comparison completes (§4.3's "remove
  /// instructions from the pipeline before the instructions are ready to
  /// commit"). Off = the P instruction holds its RUU slot until its R copy
  /// has executed and compared.
  bool early_release = true;

  /// When R-queue occupancy reaches this percentage, R-stream instructions
  /// get issue priority over P-stream ones (the paper's counter-based
  /// "must schedule R" rule; avoids livelock from a full queue).
  u32 priority_watermark_pct = 75;

  /// R-stream instructions re-enter the pipeline through the scheduler
  /// (§5.1) and occupy scheduler-window (RUU) capacity while in flight.
  /// Ablatable to isolate the structural cost from FU contention.
  bool window_sharing = false;

  /// Cycles an R instruction holds its window slot past execution
  /// (writeback + compare stages).
  u32 compare_stage_cycles = 1;

  /// Cycles an R-stream operation occupies its (pipelined) functional unit:
  /// the re-execution result is staged through the unit's output latch into
  /// the comparator, so the unit accepts a new operation every
  /// `r_fu_occupancy` cycles. 1 = same as P stream.
  u32 r_fu_occupancy = 2;

  /// R-stream stores re-verify their address/value through a memory port
  /// (AGU + store-buffer check) instead of a plain ALU. Raises REESE's
  /// port pressure, which is what the paper's Figure 5 relieves.
  bool r_store_uses_port = true;

  /// Re-execute one out of every `reexec_interval` instructions (§7 future
  /// work). 1 = full duplication (the paper's REESE). k>1 trades coverage
  /// for speed; non-selected instructions flow through the queue untested.
  u32 reexec_interval = 1;

  /// Minimum cycles between a P-stream execution and its R-stream
  /// re-execution (§2's Δt: detection is only guaranteed when the two
  /// executions are separated by more than the fault duration). 0 = no
  /// enforcement, the paper's configuration — the queue traversal delay
  /// provides natural separation, measured by stats.separation.
  u32 min_separation = 0;

  /// Cycles fetch freezes when a P/R comparison mismatch is detected
  /// (models the pipeline + R-queue flush and refetch of §4.3).
  u32 error_recovery_penalty = 24;
};

struct CoreConfig {
  // Pipeline widths ("Max IPC for Other Pipeline Stages" = 8 in Table 1).
  u32 fetch_width = 8;
  u32 decode_width = 8;
  u32 issue_width = 8;
  u32 commit_width = 8;

  u32 ifq_size = 16;  ///< fetch queue entries
  u32 ruu_size = 16;  ///< register update unit entries
  u32 lsq_size = 8;   ///< load/store queue entries

  // Functional units (Table 1: 4 IntAdd, 1 IntM/D, same for FP, 2 mem ports).
  u32 int_alu_count = 4;
  u32 int_mult_count = 1;
  u32 fp_alu_count = 4;
  u32 fp_mult_count = 1;
  u32 mem_port_count = 2;

  // Operation latencies (cycles until result; SimpleScalar defaults).
  u32 int_mul_latency = 3;    // pipelined
  u32 int_div_latency = 20;   // unpipelined
  u32 fp_add_latency = 2;     // pipelined
  u32 fp_mul_latency = 4;     // pipelined
  u32 fp_div_latency = 12;    // unpipelined
  u32 fp_sqrt_latency = 24;   // unpipelined

  /// Extra fetch-redirect bubble after a mispredicted branch resolves.
  u32 mispredict_penalty = 2;

  branch::PredictorKind predictor = branch::PredictorKind::kGshare;
  u32 gshare_history_bits = 12;
  u32 btb_entries = 512;
  u32 btb_associativity = 4;
  u32 ras_depth = 16;

  mem::HierarchyConfig memory;
  ReeseConfig reese;

  /// One-line description for reports.
  std::string summary() const;
};

// --- canned configurations used by the experiment harness -------------------

/// Table 1 starting configuration, baseline (no REESE).
CoreConfig starting_config();

/// Enable REESE with `spare_alus` extra integer ALUs and `spare_mults`
/// extra integer multiplier/dividers on top of `base`.
CoreConfig with_reese(CoreConfig base, u32 spare_alus = 0, u32 spare_mults = 0);

}  // namespace reese::core
