// li stand-in: cons-cell list manipulation.
//
// xlisp (li) is dependent-load city: car/cdr chains, an allocator that
// recycles cells, and recursive list walks. Each iteration builds a 64-cell
// list from a wrap-around cell pool (so cell addresses scatter over time,
// like a heap after GC churn), reverses it in place, sums it iteratively
// and measures its length recursively. Serial pointer chasing keeps ILP
// low; the recursion exercises the return-address stack.
#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

Workload make_li_like(const WorkloadOptions& options) {
  const u64 pool_cells = 2048;

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += format(R"(
# kernel(a0 = iteration): build, reverse, sum and measure one list.
kernel:
  addi sp, sp, -16
  sd   ra, 0(sp)
  sd   s0, 8(sp)
  la   t0, cellpool
  la   t1, alloc_ctr
  ld   t2, 0(t1)            # rolling allocation cursor
  li   a1, 0                # head = nil
  li   a2, 64               # list length
  mv   a3, a0               # value seed
build:
  li   a5, %llu
  and  a4, t2, a5           # cell index (pool wraps)
  slli a4, a4, 4
  add  a4, a4, t0
  addi t2, t2, 1
  sd   a3, 0(a4)            # car = value
  sd   a1, 8(a4)            # cdr = old head
  mv   a1, a4
  addi a3, a3, 7
  addi a2, a2, -1
  bnez a2, build
  sd   t2, 0(t1)

  li   a2, 0                # reverse: prev = nil
reverse:
  beqz a1, reverse_done
  ld   a3, 8(a1)
  sd   a2, 8(a1)
  mv   a2, a1
  mv   a1, a3
  j    reverse
reverse_done:
  mv   a1, a2

  li   s0, 0                # sum traversal (serial ld chain)
  mv   a3, a1
sum:
  beqz a3, sum_done
  ld   a4, 0(a3)
  add  s0, s0, a4
  ld   a3, 8(a3)
  j    sum
sum_done:
  call length               # recursive length(a1)
  add  s0, s0, a0
  out  s0
  ld   ra, 0(sp)
  ld   s0, 8(sp)
  addi sp, sp, 16
  ret

# length(a1 = list) -> a0, recursively.
length:
  bnez a1, length_rec
  li   a0, 0
  ret
length_rec:
  addi sp, sp, -8
  sd   ra, 0(sp)
  ld   a1, 8(a1)
  call length
  addi a0, a0, 1
  ld   ra, 0(sp)
  addi sp, sp, 8
  ret

  .data
  .align 8
alloc_ctr: .dword 0
cellpool:  .space %llu
)",
                   static_cast<unsigned long long>(pool_cells - 1),
                   static_cast<unsigned long long>(pool_cells * 16));

  Workload workload;
  workload.name = "li";
  workload.mimics = "SPECint95 130.li (train)";
  workload.description = format(
      "cons-cell build/reverse/sum/length over a %llu-cell recycling pool",
      static_cast<unsigned long long>(pool_cells));
  workload.program = assemble_or_die(source, "li_like");
  return workload;
}

}  // namespace reese::workloads
