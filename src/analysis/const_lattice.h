// The integer-constant lattice under srv-vuln's masking analysis.
//
// ConstVal is the classic three-level constant-propagation lattice
// (undef < const < nac) over integer registers; ConstProblem is its
// forward dataflow problem for the worklist engine. The srv-vuln masking
// analysis (vuln.h) layers on top of it to sharpen demanded-bits through
// AND masks and constant shift amounts.
#pragma once

#include <vector>

#include "analysis/dataflow.h"
#include "isa/executor.h"

namespace reese::analysis {

struct ConstVal {
  enum Kind : u8 { kUndef, kConst, kNac } kind = kUndef;
  u64 value = 0;

  bool operator==(const ConstVal&) const = default;
  static ConstVal undef() { return {}; }
  static ConstVal of(u64 v) { return {kConst, v}; }
  static ConstVal nac() { return {kNac, 0}; }
};

inline ConstVal merge_const(ConstVal a, ConstVal b) {
  if (a.kind == ConstVal::kUndef) return b;
  if (b.kind == ConstVal::kUndef) return a;
  if (a.kind == ConstVal::kConst && b.kind == ConstVal::kConst &&
      a.value == b.value) {
    return a;
  }
  return ConstVal::nac();
}

/// Integer-register constant state. FP values are not tracked; any
/// FP-sourced integer def is non-constant.
struct ConstState {
  std::vector<ConstVal> regs;  // kIntRegCount entries

  bool operator==(const ConstState&) const = default;
};

/// Flow one instruction over the constant state.
inline void eval_const(const isa::Instruction& inst, Addr pc, ConstState* s) {
  const isa::OpInfo& info = inst.info();
  auto get = [&](u8 index) -> ConstVal {
    return index == isa::kZeroReg ? ConstVal::of(0) : s->regs[index];
  };
  const bool rs1_const =
      !info.reads_rs1 || info.is_fp_rs1 || get(inst.rs1).kind == ConstVal::kConst;
  const bool rs2_const =
      !info.reads_rs2 || info.is_fp_rs2 || get(inst.rs2).kind == ConstVal::kConst;
  const bool int_inputs_known = rs1_const && rs2_const &&
                                !(info.reads_rs1 && info.is_fp_rs1) &&
                                !(info.reads_rs2 && info.is_fp_rs2);
  if (info.writes_rd && !info.is_fp_rd) {
    ConstVal rd = ConstVal::nac();
    if (int_inputs_known && info.mem_bytes == 0) {
      // Pure computation (ALU / LUI / jump link value): reuse the single
      // definition of SRV semantics.
      const u64 a = info.reads_rs1 ? get(inst.rs1).value : 0;
      const u64 b = info.reads_rs2 ? get(inst.rs2).value : 0;
      rd = ConstVal::of(isa::compute(inst, a, b, pc).value);
    }
    if (inst.rd != isa::kZeroReg) s->regs[inst.rd] = rd;
  }
}

struct ConstProblem {
  using State = ConstState;
  const Cfg* cfg;

  State top() const {
    return State{std::vector<ConstVal>(isa::kIntRegCount, ConstVal::undef())};
  }
  State boundary(const BasicBlock&) const {
    State s{std::vector<ConstVal>(isa::kIntRegCount, ConstVal::nac())};
    s.regs[isa::kZeroReg] = ConstVal::of(0);
    return s;
  }
  State merge(const State& a, const State& b) const {
    State s = a;
    for (usize r = 0; r < isa::kIntRegCount; ++r) {
      s.regs[r] = merge_const(a.regs[r], b.regs[r]);
    }
    return s;
  }
  State transfer(const BasicBlock& block, State s) const {
    for (usize i = block.first; i <= block.last; ++i) {
      eval_const(cfg->inst(i), cfg->pc_of(i), &s);
    }
    return s;
  }
};

}  // namespace reese::analysis
