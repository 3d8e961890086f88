// gcc stand-in: random expression trees + a recursive constant-folding
// evaluator.
//
// gcc's dynamic behaviour is dominated by walking pointer-linked IR with
// data-dependent multiway dispatch and deep call chains. This kernel bakes a
// forest of random binary expression trees into the data segment (node =
// {op, left, right, value}, 32 bytes) and evaluates every root each
// iteration with a recursive evaluator whose operator dispatch is a
// branch chain — unpredictable branches, dependent loads, heavy call/return
// traffic.
#include <vector>

#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {
namespace {

constexpr u64 kNodeBytes = 32;

struct TreeForest {
  std::vector<u64> node_words;  // 4 words per node
  std::vector<u64> root_addrs;
};

class ForestBuilder {
 public:
  ForestBuilder(SplitMix64* rng, Addr nodes_base, usize max_nodes)
      : rng_(rng), nodes_base_(nodes_base), max_nodes_(max_nodes) {
    forest_.node_words.reserve(max_nodes * 4);
  }

  /// Build one tree; returns the node address, or 0 if the pool is full.
  u64 build(unsigned depth) {
    if (node_count_ >= max_nodes_) return 0;
    const usize index = node_count_++;
    const u64 address = nodes_base_ + index * kNodeBytes;
    forest_.node_words.resize((index + 1) * 4, 0);

    const bool leaf =
        depth == 0 || node_count_ + 2 > max_nodes_ || rng_->next_bool(0.30);
    if (leaf) {
      forest_.node_words[index * 4 + 0] = 0;  // op: leaf
      forest_.node_words[index * 4 + 3] = rng_->next_below(1 << 20);
      return address;
    }
    const u64 op = 1 + rng_->next_below(4);  // add/sub/mul/xor
    const u64 left = build(depth - 1);
    const u64 right = build(depth - 1);
    if (left == 0 || right == 0) {
      // Pool exhausted mid-build: degrade to a leaf.
      forest_.node_words[index * 4 + 0] = 0;
      forest_.node_words[index * 4 + 3] = rng_->next_below(1 << 20);
      return address;
    }
    forest_.node_words[index * 4 + 0] = op;
    forest_.node_words[index * 4 + 1] = left;
    forest_.node_words[index * 4 + 2] = right;
    return address;
  }

  TreeForest take() { return std::move(forest_); }
  void add_root(u64 address) { forest_.root_addrs.push_back(address); }

 private:
  SplitMix64* rng_;
  Addr nodes_base_;
  usize max_nodes_;
  usize node_count_ = 0;
  TreeForest forest_;
};

}  // namespace

Workload make_gcc_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x6CC);
  const usize max_nodes = 768;
  const usize num_roots = 48;

  // Nodes table sits at the start of .data.
  const Addr nodes_base = isa::kDefaultDataBase;
  ForestBuilder builder(&rng, nodes_base, max_nodes);
  for (usize i = 0; i < num_roots; ++i) {
    const u64 root = builder.build(/*depth=*/7);
    if (root != 0) builder.add_root(root);
  }
  TreeForest forest = builder.take();
  forest.node_words.resize(max_nodes * 4, 0);  // fixed-size pool

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): fold every tree, OUT the checksum.
kernel:
  addi sp, sp, -16
  sd   ra, 0(sp)
  sd   s0, 8(sp)
  li   s0, 0                # checksum
  la   t0, roots
)";
  source += format("  li   t1, %llu\n",
                   static_cast<unsigned long long>(forest.root_addrs.size()));
  source += R"(
root_loop:
  ld   a1, 0(t0)
  addi sp, sp, -16
  sd   t0, 0(sp)
  sd   t1, 8(sp)
  call eval
  ld   t0, 0(sp)
  ld   t1, 8(sp)
  addi sp, sp, 16
  add  s0, s0, a0
  addi t0, t0, 8
  addi t1, t1, -1
  bnez t1, root_loop
  out  s0
  ld   ra, 0(sp)
  ld   s0, 8(sp)
  addi sp, sp, 16
  ret

# eval(a1 = node) -> a0. Node: {op, left, right, value}.
eval:
  ld   t2, 0(a1)            # op
  bnez t2, eval_inner
  ld   a0, 24(a1)           # leaf value
  ret
eval_inner:
  addi sp, sp, -32
  sd   ra, 0(sp)
  sd   a1, 8(sp)
  ld   a1, 8(a1)            # left child
  call eval
  sd   a0, 16(sp)
  ld   a1, 8(sp)
  ld   a1, 16(a1)           # right child
  call eval
  ld   t3, 16(sp)           # left result
  ld   a1, 8(sp)
  ld   t2, 0(a1)            # op (reload: clobbered by recursion)
  li   t4, 1
  beq  t2, t4, op_add
  li   t4, 2
  beq  t2, t4, op_sub
  li   t4, 3
  beq  t2, t4, op_mul
  xor  a0, t3, a0           # op 4
  j    eval_done
op_add:
  add  a0, t3, a0
  j    eval_done
op_sub:
  sub  a0, t3, a0
  j    eval_done
op_mul:
  mul  a0, t3, a0
eval_done:
  ld   ra, 0(sp)
  addi sp, sp, 32
  ret

  .data
)";
  DataTables tables;
  source += tables.dword_table("nodes", forest.node_words);
  source += tables.dword_table("roots", forest.root_addrs);

  Workload workload;
  workload.name = "gcc";
  workload.mimics = "SPECint95 126.gcc (stmt-protoize.i)";
  workload.description = format(
      "fold %zu random expression trees over a %zu-node pool each iteration",
      forest.root_addrs.size(), max_nodes);
  workload.program = assemble_or_die(source, "gcc_like", tables);
  return workload;
}

}  // namespace reese::workloads
