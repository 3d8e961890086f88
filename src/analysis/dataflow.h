// Generic worklist dataflow engine over the basic-block CFG.
//
// A problem supplies a per-block state type plus four operations:
//   boundary(block)       state at the entry (forward) / at an exit block
//                         (backward) — the block is passed so backward
//                         problems can distinguish HALT exits from indirect
//                         jumps whose continuation is unknown
//   top()                 the "no information yet" initial interior state
//   merge(a, b)           lattice meet at control-flow joins
//   transfer(block, in)   flow one block's instructions over the state
// The engine iterates blocks with a FIFO worklist until the per-block
// IN states stop changing and returns them; an analysis then re-walks
// each block from its fixed-point IN state to get per-instruction facts.
//
// States must be comparable (==) and cheap to copy. srv-vuln's three
// problems (vuln.cpp, const_lattice.h) are per-register arrays: liveness-
// window intervals and demanded-bit masks, both backward, and the integer
// constant lattice, forward. Termination is the problem author's
// responsibility: merge/transfer must be monotone over a finite lattice.
// The engine also stops after 512 * blocks + 64 block processings, as a
// backstop against a non-monotone problem.
#pragma once

#include <deque>
#include <vector>

#include "analysis/cfg.h"

namespace reese::analysis {

enum class Direction : u8 { kForward, kBackward };

/// Fixed-point IN states (forward: state before block.first; backward:
/// state after block.last), indexed by block.
template <typename Problem>
std::vector<typename Problem::State> solve_dataflow(const Cfg& cfg,
                                                    Direction direction,
                                                    const Problem& problem) {
  using State = typename Problem::State;
  const usize n = cfg.block_count();
  std::vector<State> in(n, problem.top());
  if (n == 0) return in;

  // Seed boundary states. Backward problems treat every exit block (halt,
  // fall-off-end, wild edge, or simply no successors) as a boundary.
  const bool forward = direction == Direction::kForward;
  auto edges_in = [&](const BasicBlock& b) -> const std::vector<u32>& {
    return forward ? b.preds : b.succs;
  };

  std::deque<u32> worklist;
  std::vector<bool> queued(n, false);
  auto enqueue = [&](u32 b) {
    if (!queued[b]) {
      queued[b] = true;
      worklist.push_back(b);
    }
  };
  for (u32 b = 0; b < n; ++b) enqueue(b);

  const usize max_iterations = 512 * n + 64;
  usize iterations = 0;
  while (!worklist.empty() && iterations++ < max_iterations) {
    const u32 b = worklist.front();
    worklist.pop_front();
    queued[b] = false;
    const BasicBlock& block = cfg.block(b);

    State merged = problem.top();
    const bool is_boundary =
        forward ? b == cfg.entry_block()
                : block.succs.empty() || block.has_halt ||
                      block.falls_off_end || block.has_wild_edge;
    if (is_boundary) merged = problem.boundary(block);
    for (u32 other : edges_in(block)) {
      merged = problem.merge(merged, problem.transfer(cfg.block(other),
                                                      in[other]));
    }
    if (merged == in[b]) continue;
    in[b] = merged;
    for (u32 other : forward ? block.succs : block.preds) enqueue(other);
  }
  return in;
}

}  // namespace reese::analysis
