// Basic-block control-flow graph over a decoded SRV program image.
//
// Blocks are maximal straight-line instruction runs: a leader is the entry
// instruction, any target of an in-range branch/JAL, and any instruction
// following a control transfer. Edges:
//   * fall-through (not after an unconditional transfer or HALT),
//   * the static target of a conditional branch or JAL (when in-range),
//   * calls — JAL/JALR with rd != x0 — additionally get a call-returns
//     fall-through edge to the return site, so code after a call is
//     reachable even though the matching `ret` (an indirect JALR) has no
//     statically-known target. This makes the graph interprocedurally
//     conservative: liveness/definedness flow through both the callee entry
//     and the return site.
//   * plain JALR (rd == x0: `ret`/`jr`) gets NO successor edges — its
//     target is dynamic. Analyses that need soundness around indirect
//     jumps check BasicBlock::has_indirect.
// Out-of-range targets produce no edge; the CFG records `has_wild_edge` on
// the block, and the simulators stop on such a jump with a bad PC.
//
// srv-vuln's analyses (vuln.h) run on this graph through the dataflow
// engine (dataflow.h). A control-flow-signature check in the CFCSS style
// (arXiv 2309.16876 in PAPERS.md) would build on it too.
#pragma once

#include <vector>

#include "isa/program.h"

namespace reese::analysis {

struct BasicBlock {
  u32 index = 0;
  /// Instruction index range [first, last] into program.code (inclusive).
  usize first = 0;
  usize last = 0;
  std::vector<u32> succs;
  std::vector<u32> preds;
  bool has_halt = false;      ///< block's terminator is HALT
  bool has_indirect = false;  ///< block's terminator is JALR (dynamic target)
  bool is_call = false;       ///< terminator is JAL/JALR with rd != x0
  bool has_wild_edge = false; ///< a static target fell outside the text segment
  /// True when execution can run off program.end_pc() from this block (the
  /// last instruction of the program falls through).
  bool falls_off_end = false;

  usize size() const { return last - first + 1; }
};

/// True for calls whose callee the CFG cannot model: JALR with rd != x0
/// (indirect call). Direct JAL calls get a callee-entry edge so dataflow
/// sees the callee's code; an indirect callee is invisible, and analyses
/// must assume it may read any register before control returns to the
/// call's fall-through successor.
inline bool is_opaque_call(const isa::Instruction& inst) {
  return inst.op == isa::Opcode::kJalr && inst.rd != isa::kZeroReg;
}

class Cfg {
 public:
  /// Builds the CFG; `program` must outlive the Cfg. A program whose entry
  /// is outside the text segment keeps entry_block() at 0.
  explicit Cfg(const isa::Program& program);

  const isa::Program& program() const { return *program_; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const BasicBlock& block(u32 index) const { return blocks_[index]; }
  usize block_count() const { return blocks_.size(); }

  /// Block containing instruction index `inst`.
  u32 block_of(usize inst) const { return block_of_[inst]; }
  /// Block whose first instruction is the program entry point.
  u32 entry_block() const { return entry_block_; }

  Addr pc_of(usize inst) const {
    return program_->code_base + 4 * static_cast<Addr>(inst);
  }
  const isa::Instruction& inst(usize index) const {
    return program_->code[index];
  }

  /// Blocks reachable from the entry block (bitmap indexed by block index).
  std::vector<bool> reachable() const;

 private:
  const isa::Program* program_;
  std::vector<BasicBlock> blocks_;
  std::vector<u32> block_of_;
  u32 entry_block_ = 0;
};

}  // namespace reese::analysis
