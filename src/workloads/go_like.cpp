// go stand-in: board pattern scanning.
//
// go (the game-playing SPEC95 benchmark) is notorious for branch-predictor
// abuse: short data-dependent branches over 2-D board state with almost no
// loops long enough to learn. This kernel scans a 19x19 board (stride-32
// rows), counting "atari-like" patterns around empty points and measuring
// same-colour run lengths from occupied points — every branch outcome is a
// function of baked-in random board data, and one stone mutates per
// iteration so the history keeps shifting.
#include <vector>

#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

Workload make_go_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x60);

  // 19 rows x 32-byte stride inside a 1024-byte arena (mutations may write
  // pad bytes; the scan never reads them).
  std::vector<u8> board(1024, 0);
  for (unsigned row = 0; row < 19; ++row) {
    for (unsigned col = 0; col < 19; ++col) {
      const u64 r = rng.next_below(10);
      board[row * 32 + col] = r < 4 ? 0 : (r < 7 ? 1 : 2);  // 40% empty
    }
  }

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): mutate one cell, then score the whole board.
kernel:
  la   t0, board
  li   t1, 131              # mutate cell (a0*131+89) & 1023
  mul  t1, a0, t1
  addi t1, t1, 89
  andi t1, t1, 1023
  add  t1, t0, t1
  lbu  t2, 0(t1)
  addi t2, t2, 1
  li   t3, 3
  blt  t2, t3, mut_ok
  li   t2, 0
mut_ok:
  sb   t2, 0(t1)

  li   t6, 0                # score accumulator
  li   t4, 1                # row 1..17
row_loop:
  li   t5, 1                # col 1..17
col_loop:
  slli t2, t4, 5
  add  t2, t2, t5
  add  t2, t2, t0           # &board[row][col]
  lbu  t3, 0(t2)
  bnez t3, occupied

  # Empty point: count colour-1 stones in the 4-neighbourhood.
  li   a1, 0
  li   a3, 1
  lbu  a2, -32(t2)
  bne  a2, a3, n_south
  addi a1, a1, 1
n_south:
  lbu  a2, 32(t2)
  bne  a2, a3, n_west
  addi a1, a1, 1
n_west:
  lbu  a2, -1(t2)
  bne  a2, a3, n_east
  addi a1, a1, 1
n_east:
  lbu  a2, 1(t2)
  bne  a2, a3, n_done
  addi a1, a1, 1
n_done:
  li   a3, 2
  blt  a1, a3, cell_done    # not surrounded enough: no score
  add  t6, t6, a1
  j    cell_done

occupied:
  # Same-colour run length to the east, capped at 6.
  li   a1, 0
  mv   a2, t2
run_loop:
  addi a2, a2, 1
  addi a1, a1, 1
  lbu  a4, 0(a2)
  bne  a4, t3, run_done
  li   a5, 6
  blt  a1, a5, run_loop
run_done:
  mul  a4, a1, a1
  add  t6, t6, a4

cell_done:
  addi t5, t5, 1
  li   a2, 18
  blt  t5, a2, col_loop
  addi t4, t4, 1
  blt  t4, a2, row_loop
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += tables.byte_table("board", board);

  Workload workload;
  workload.name = "go";
  workload.mimics = "SPECint95 099.go (train)";
  workload.description =
      "19x19 board pattern scan; branch outcomes follow random board data";
  workload.program = assemble_or_die(source, "go_like", tables);
  return workload;
}

}  // namespace reese::workloads
