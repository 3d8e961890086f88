// vortex stand-in: an object store with a hashed index.
//
// vortex is a single-user OO database: lookups through an index, record
// copies, field updates, inserts. Each kernel iteration performs 32
// operations driven by an in-assembly LCG: probe the index for a key,
// on a hit copy the 64-byte record into a workspace and update a field
// (store-heavy, like vortex's object moves), on a miss insert a fresh
// record. Predictable control, high store fraction, dependent loads
// through the index.
#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

Workload make_vortex_like(const WorkloadOptions& options) {
  const u64 record_count = 256;

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += format(R"(
# kernel(a0 = iteration): 32 keyed operations against the record store.
kernel:
  la   t0, index
  la   t1, recpool
  la   t2, wspace
  li   t6, 0                # checksum
  li   t3, 32               # operations per iteration
  addi t4, a0, 1            # LCG state seeded by iteration
  li   a6, 0x27BB2EE687B0B5  # multiplier (53-bit)
op_loop:
  mul  t4, t4, a6
  addi t4, t4, 13
  srli a1, t4, 33
  li   a2, %llu
  and  a1, a1, a2           # key in [0, record_count)
  andi a2, a1, 511          # index slot
  slli a2, a2, 4
  add  a2, a2, t0
  ld   a3, 0(a2)            # stored key+1 (0 = empty slot)
  addi a4, a1, 1
  beq  a3, a4, hit

  # Miss: insert. Record address = recpool + key*64.
  slli a5, a1, 6
  add  a5, a5, t1
  sd   a4, 0(a2)
  sd   a5, 8(a2)
  li   a3, 8                # initialize 8 fields
  mv   t5, a5
init_fields:
  sd   a1, 0(t5)
  addi t5, t5, 8
  addi a3, a3, -1
  bnez a3, init_fields
  addi t6, t6, 1
  j    next_op

hit:
  ld   a5, 8(a2)            # record pointer
  ld   t5, 0(a5)            # copy record into the workspace (unrolled)
  sd   t5, 0(t2)
  ld   t5, 8(a5)
  sd   t5, 8(t2)
  ld   t5, 16(a5)
  sd   t5, 16(t2)
  ld   t5, 24(a5)
  sd   t5, 24(t2)
  ld   t5, 32(a5)
  sd   t5, 32(t2)
  ld   t5, 40(a5)
  sd   t5, 40(t2)
  ld   t5, 48(a5)
  sd   t5, 48(t2)
  ld   t5, 56(a5)
  sd   t5, 56(t2)
  ld   t5, 0(a5)            # update field 0
  add  t5, t5, a1
  sd   t5, 0(a5)
  add  t6, t6, t5
  xor  t4, t4, t5           # object traversal: the next key visited depends
                            # on this record's contents (reference chasing)

next_op:
  addi t3, t3, -1
  bnez t3, op_loop
  out  t6
  ret

  .data
  .align 8
index:   .space 8192
recpool: .space %llu
wspace:  .space 64
)",
                   static_cast<unsigned long long>(record_count - 1),
                   static_cast<unsigned long long>(record_count * 64));

  Workload workload;
  workload.name = "vortex";
  workload.mimics = "SPECint95 147.vortex (train)";
  workload.description = format(
      "hashed-index object store: lookups, 64B record copies and inserts "
      "over %llu records",
      static_cast<unsigned long long>(record_count));
  workload.program = assemble_or_die(source, "vortex_like");
  return workload;
}

}  // namespace reese::workloads
