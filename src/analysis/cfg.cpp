#include "analysis/cfg.h"

#include <algorithm>
#include <cassert>

namespace reese::analysis {

namespace {

/// Instruction index of `pc` if it addresses an instruction, else nullopt.
std::optional<usize> inst_index(const isa::Program& program, Addr pc) {
  if (!program.contains_pc(pc)) return std::nullopt;
  return static_cast<usize>((pc - program.code_base) / 4);
}

}  // namespace

Cfg::Cfg(const isa::Program& program) : program_(&program) {
  const usize n = program.code.size();
  block_of_.assign(n, 0);
  if (n == 0) return;

  // Pass 1: mark leaders.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  if (auto entry = inst_index(program, program.entry)) leader[*entry] = true;
  for (usize i = 0; i < n; ++i) {
    const isa::Instruction& inst = program.code[i];
    const bool is_terminator =
        isa::is_control(inst.op) || inst.op == isa::Opcode::kHalt;
    if (!is_terminator) continue;
    if (i + 1 < n) leader[i + 1] = true;
    if (auto target = isa::static_target(inst, pc_of(i))) {
      if (auto t = inst_index(program, *target)) leader[*t] = true;
    }
  }

  // Pass 2: carve blocks.
  for (usize i = 0; i < n; ++i) {
    if (leader[i]) {
      BasicBlock block;
      block.index = static_cast<u32>(blocks_.size());
      block.first = i;
      blocks_.push_back(block);
    }
    BasicBlock& current = blocks_.back();
    current.last = i;
    block_of_[i] = current.index;
  }

  // Pass 3: edges, from each block's terminator.
  for (BasicBlock& block : blocks_) {
    const usize t = block.last;
    const isa::Instruction& term = program.code[t];
    block.has_halt = term.op == isa::Opcode::kHalt;
    block.has_indirect = term.op == isa::Opcode::kJalr;
    block.is_call = isa::is_jump(term.op) && term.rd != isa::kZeroReg;
    if (auto target = isa::static_target(term, pc_of(t))) {
      if (auto ti = inst_index(program, *target)) {
        block.succs.push_back(block_of_[*ti]);
      } else {
        block.has_wild_edge = true;
      }
    }
    // Fall-through: ordinary sequential flow, plus the call-returns edge
    // after JAL/JALR calls (rd != x0) — see the class comment.
    if (isa::falls_through(term.op) || block.is_call) {
      if (t + 1 < n) {
        block.succs.push_back(block_of_[t + 1]);
      } else {
        block.falls_off_end = true;
      }
    }
    // A conditional branch to the next instruction produces a duplicate
    // successor; keep edges unique.
    std::sort(block.succs.begin(), block.succs.end());
    block.succs.erase(std::unique(block.succs.begin(), block.succs.end()),
                      block.succs.end());
  }
  for (const BasicBlock& block : blocks_) {
    for (u32 succ : block.succs) blocks_[succ].preds.push_back(block.index);
  }

  if (auto entry = inst_index(program, program.entry)) {
    entry_block_ = block_of_[*entry];
  }
}

std::vector<bool> Cfg::reachable() const {
  std::vector<bool> seen(blocks_.size(), false);
  if (blocks_.empty()) return seen;
  std::vector<u32> stack = {entry_block_};
  seen[entry_block_] = true;
  while (!stack.empty()) {
    const u32 b = stack.back();
    stack.pop_back();
    for (u32 succ : blocks_[b].succs) {
      if (!seen[succ]) {
        seen[succ] = true;
        stack.push_back(succ);
      }
    }
  }
  return seen;
}

}  // namespace reese::analysis
