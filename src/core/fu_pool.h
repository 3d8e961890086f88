// Functional-unit pool: arbitrates per-cycle access to integer ALUs,
// integer multiplier/dividers, FP adders, FP multipliers and memory ports.
//
// Pipelined units accept a new operation every cycle (issue latency 1) even
// while earlier operations are still in flight; unpipelined units (divide,
// sqrt) are busy for their whole latency. A unit is modelled by the next
// cycle at which it can accept an operation.
#pragma once

#include <array>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "isa/opcode.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::core {

enum class FuKind : u8 { kIntAlu, kIntMult, kFpAlu, kFpMult, kMemPort, kCount };
constexpr usize kFuKindCount = static_cast<usize>(FuKind::kCount);

const char* fu_kind_name(FuKind kind);

/// Resolved latency/resource requirements of one operation.
struct OpTiming {
  FuKind fu = FuKind::kIntAlu;
  u32 result_latency = 1;  ///< cycles until the result is available
  u32 issue_latency = 1;   ///< cycles the unit is blocked (== result for
                           ///< unpipelined ops)
};

/// Map an exec class to its unit + latencies (config.h's constants). kLoad
/// returns the port requirements only — cache latency is added by the
/// caller. kStore/kNone map to a 1-cycle IntALU-free completion (see
/// pipeline.cpp). Inline: evaluated per issue attempt, several times per
/// simulated instruction.
inline OpTiming op_timing(isa::ExecClass exec_class) {
  using isa::ExecClass;
  switch (exec_class) {
    case ExecClass::kIntAlu:
      return {FuKind::kIntAlu, 1, 1};
    case ExecClass::kIntMul:
      return {FuKind::kIntMult, kIntMulLatency, 1};
    case ExecClass::kIntDiv:
      return {FuKind::kIntMult, kIntDivLatency, kIntDivLatency};
    case ExecClass::kFpAdd:
      return {FuKind::kFpAlu, kFpAddLatency, 1};
    case ExecClass::kFpMul:
      return {FuKind::kFpMult, kFpMulLatency, 1};
    case ExecClass::kFpDiv:
      return {FuKind::kFpMult, kFpDivLatency, kFpDivLatency};
    case ExecClass::kFpSqrt:
      return {FuKind::kFpMult, kFpSqrtLatency, kFpSqrtLatency};
    case ExecClass::kLoad:
      return {FuKind::kMemPort, 1, 1};  // + cache latency, added by caller
    case ExecClass::kStore:
    case ExecClass::kNone:
      return {FuKind::kIntAlu, 1, 1};  // see pipeline.cpp for store handling
  }
  return {FuKind::kIntAlu, 1, 1};
}

class FuPool {
 public:
  explicit FuPool(const CoreConfig& config);

  /// Try to claim a unit of `kind` at cycle `now` for `issue_latency`
  /// cycles. Returns false if every unit of that kind is busy.
  bool try_acquire(FuKind kind, Cycle now, u32 issue_latency) {
    std::vector<Cycle>& units = next_free_[static_cast<usize>(kind)];
    for (Cycle& next_free : units) {
      if (next_free <= now) {
        next_free = now + issue_latency;
        ++ops_issued_[static_cast<usize>(kind)];
        return true;
      }
    }
    return false;
  }

  u32 unit_count(FuKind kind) const {
    return static_cast<u32>(next_free_[static_cast<usize>(kind)].size());
  }

  /// Operations accepted per kind since construction (utilization stats).
  u64 ops_issued(FuKind kind) const {
    return ops_issued_[static_cast<usize>(kind)];
  }

  /// Mean utilization of `kind` over `cycles`: ops issued per unit-cycle.
  /// (For pipelined units this equals occupancy of the issue port, the
  /// quantity the paper's "idle capacity" argument is about.)
  double utilization(FuKind kind, Cycle cycles) const;

  /// Checkpoint serialization: per-unit next-free cycles + issue counters.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  std::array<std::vector<Cycle>, kFuKindCount> next_free_;
  std::array<u64, kFuKindCount> ops_issued_{};
};

}  // namespace reese::core
