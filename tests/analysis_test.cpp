// Tests for the static instruction metadata (def/use sets, static
// targets) and the basic-block CFG that srv-vuln's analyses run on. The
// dataflow engine and the constant lattice are exercised through srv-vuln
// in vuln_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cfg.h"
#include "isa/assembler.h"

namespace reese::analysis {
namespace {

isa::Program assemble_or_die(std::string_view source) {
  auto assembled = isa::assemble(source);
  EXPECT_TRUE(assembled.ok())
      << (assembled.ok() ? "" : assembled.error().to_string());
  return std::move(assembled).value();
}

// --- instruction metadata ---------------------------------------------------

TEST(InstructionMeta, DefUseSets) {
  // add t1, t0, t2: reads x5/x7, writes x6 (ABI: t0=x5 t1=x6 t2=x7).
  isa::Instruction add{isa::Opcode::kAdd, 6, 5, 7, 0};
  const isa::DefUse du = isa::def_use(add);
  ASSERT_EQ(du.use_count, 2);
  ASSERT_EQ(du.def_count, 1);
  EXPECT_EQ(du.uses[0], (isa::RegRef{5, false}));
  EXPECT_EQ(du.uses[1], (isa::RegRef{7, false}));
  EXPECT_EQ(du.defs[0], (isa::RegRef{6, false}));

  // sd rs2, imm(rs1): two uses, no defs.
  isa::Instruction sd{isa::Opcode::kSd, 0, 2, 8, 16};
  const isa::DefUse sd_du = isa::def_use(sd);
  EXPECT_EQ(sd_du.use_count, 2);
  EXPECT_EQ(sd_du.def_count, 0);

  // fadd fa0, fa1, fa2: FP operands land in the FP half of the flat space.
  isa::Instruction fadd{isa::Opcode::kFadd, 10, 11, 12, 0};
  const isa::DefUse fp_du = isa::def_use(fadd);
  ASSERT_EQ(fp_du.def_count, 1);
  EXPECT_TRUE(fp_du.defs[0].fp);
  EXPECT_EQ(fp_du.defs[0], (isa::RegRef{10, true}));
  EXPECT_EQ(fp_du.defs[0].flat(), isa::kIntRegCount + 10);
}

TEST(InstructionMeta, StaticTargetAndFallThrough) {
  isa::Instruction beq{isa::Opcode::kBeq, 0, 5, 6, -2};
  EXPECT_EQ(isa::static_target(beq, 0x1010), Addr{0x1008});
  isa::Instruction jal{isa::Opcode::kJal, 1, 0, 0, 4};
  EXPECT_EQ(isa::static_target(jal, 0x1000), Addr{0x1010});
  isa::Instruction jalr{isa::Opcode::kJalr, 0, 1, 0, 0};
  EXPECT_FALSE(isa::static_target(jalr, 0x1000).has_value());
  EXPECT_FALSE(isa::static_target(isa::Instruction{}, 0x1000).has_value());

  EXPECT_TRUE(isa::falls_through(isa::Opcode::kBeq));
  EXPECT_TRUE(isa::falls_through(isa::Opcode::kAdd));
  EXPECT_FALSE(isa::falls_through(isa::Opcode::kJal));
  EXPECT_FALSE(isa::falls_through(isa::Opcode::kJalr));
  EXPECT_FALSE(isa::falls_through(isa::Opcode::kHalt));
}

// --- CFG construction -------------------------------------------------------

TEST(Cfg, DiamondShape) {
  // if (t0) t1 = 1 else t1 = 2; out t1.
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 1
  beqz t0, else_arm
  li   t1, 1
  j    join
else_arm:
  li   t1, 2
join:
  out  t1
  halt
)");
  const Cfg cfg(program);
  ASSERT_EQ(cfg.block_count(), 4u);
  const BasicBlock& entry = cfg.block(cfg.entry_block());
  EXPECT_EQ(entry.succs.size(), 2u);  // then-arm + else-arm
  // Every block reachable; join has two predecessors.
  const std::vector<bool> reach = cfg.reachable();
  EXPECT_TRUE(std::all_of(reach.begin(), reach.end(),
                          [](bool r) { return r; }));
  const u32 join = cfg.block_of(5);  // "out t1"
  EXPECT_EQ(cfg.block(join).preds.size(), 2u);
}

TEST(Cfg, CallCreatesReturnEdgeAndRetIsIndirect) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  call helper
  out  a0
  halt
helper:
  li   a0, 7
  ret
)");
  const Cfg cfg(program);
  const BasicBlock& entry = cfg.block(cfg.entry_block());
  EXPECT_TRUE(entry.is_call);
  // Call block flows both into the callee and to the return site, so all
  // blocks (incl. "out a0") are reachable.
  EXPECT_EQ(entry.succs.size(), 2u);
  const std::vector<bool> reach = cfg.reachable();
  EXPECT_TRUE(std::all_of(reach.begin(), reach.end(),
                          [](bool r) { return r; }));
  // The ret block is an indirect-jump exit with no successors.
  const u32 ret_block = cfg.block_of(program.code.size() - 1);
  EXPECT_TRUE(cfg.block(ret_block).has_indirect);
  EXPECT_TRUE(cfg.block(ret_block).succs.empty());
}

TEST(Cfg, PlainJumpHasNoFallThroughEdge) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  j    target
skipped:
  li   t0, 1
target:
  halt
)");
  const Cfg cfg(program);
  const BasicBlock& entry = cfg.block(cfg.entry_block());
  EXPECT_FALSE(entry.is_call);
  ASSERT_EQ(entry.succs.size(), 1u);
  EXPECT_EQ(cfg.block(entry.succs[0]).first, 2u);  // "halt", not "li"
  EXPECT_FALSE(cfg.reachable()[cfg.block_of(1)]);
}

}  // namespace
}  // namespace reese::analysis
