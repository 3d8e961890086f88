// Counters and distributions collected by the pipeline.
#pragma once

#include <array>
#include <string>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/types.h"

namespace reese::core {

/// Per-cycle stall attribution: every simulated cycle is charged to exactly
/// one bucket, so the buckets partition the run (sum == CoreStats::cycles).
/// Classification happens at the end of Pipeline::cycle(), in priority
/// order: a cycle that committed at least one instruction is kBusy; an
/// uncommitting cycle goes to the most downstream blocked structure
/// (rqueue-full > ruu-full > lsq-full > ifq-full > icache); a cycle with no
/// commit and no recorded stall is kIdle (drain, dependency waits,
/// mispredict redirect bubbles).
enum class CycleClass : u8 {
  kBusy,        ///< >= 1 instruction committed this cycle
  kRqueueFull,  ///< release blocked on a full R-stream queue
  kRuuFull,     ///< dispatch blocked on a full RUU window
  kLsqFull,     ///< dispatch blocked on a full LSQ
  kIfqFull,     ///< fetch blocked on a full fetch queue
  kIcache,      ///< fetch waiting on an I-cache miss
  kIdle,        ///< none of the above (dependency/drain bubbles)
};

inline constexpr usize kCycleClassCount = 7;

const char* cycle_class_name(CycleClass cls);

struct CoreStats {
  Cycle cycles = 0;

  // Instruction flow.
  u64 fetched = 0;
  u64 dispatched = 0;
  u64 wrongpath_dispatched = 0;
  u64 issued_p = 0;
  u64 issued_r = 0;
  u64 committed = 0;    ///< P-stream instructions architecturally committed
  u64 committed_r = 0;  ///< R-stream executions completed + compared
  u64 rskipped = 0;     ///< instructions not re-executed (partial mode)

  // Front-end stalls.
  u64 ifq_full_stall_cycles = 0;
  u64 ruu_full_stalls = 0;
  u64 lsq_full_stalls = 0;
  u64 icache_stall_cycles = 0;

  // Branches (non-speculative, resolved).
  u64 branches_resolved = 0;
  u64 branch_mispredicts = 0;
  u64 cond_branches_resolved = 0;
  u64 cond_branch_mispredicts = 0;

  // REESE.
  u64 rqueue_enqueued = 0;
  u64 rqueue_full_stall_cycles = 0;  ///< cycles the release stage was blocked
  u64 rpriority_cycles = 0;          ///< cycles the watermark flipped priority
  u64 comparisons = 0;
  u64 errors_detected = 0;

  // Per-cycle stall attribution (see CycleClass); sums to `cycles`.
  std::array<u64, kCycleClassCount> cycle_classes{};

  // Distributions.
  Histogram separation{4, 64};        ///< R-issue minus P-issue, cycles
  Histogram issue_per_cycle{1, 17};
  RunningStat ruu_occupancy;
  RunningStat lsq_occupancy;
  RunningStat ifq_occupancy;
  RunningStat rqueue_occupancy;

  double ipc() const { return safe_ratio(committed, cycles); }
  double mispredict_rate() const {
    return safe_ratio(cond_branch_mispredicts, cond_branches_resolved);
  }
  /// Sum of the stall-attribution buckets; equals `cycles` by construction.
  u64 cycle_class_total() const;
  /// One-line "busy 62.1%, rqueue-full 11.0%, ..." rendering.
  std::string cycle_class_summary() const;

  /// Checkpoint serialization: every counter and distribution, so a
  /// restored run reports stats identical to an uninterrupted one.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);
};

/// Export every CoreStats counter/gauge into `registry` under the
/// reese_core_* namespace with `labels` attached (DESIGN.md §12 lists the
/// full metric inventory). Counters are set to the current totals, so
/// calling this again after more simulation refreshes them in place.
void export_core_stats(metrics::Registry* registry, const CoreStats& stats,
                       const metrics::Labels& labels = {});

}  // namespace reese::core
