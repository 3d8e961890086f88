// Tests for the srv-vuln static AVF analysis (analysis/vuln.h): loop-depth
// estimation, the liveness-window interval fixed point on loops and
// diamonds, demanded-bits masking classification, the vulnerability
// ranking, and the reese-avf-v1 JSON report.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/vuln.h"
#include "common/json.h"
#include "isa/assembler.h"

namespace reese::analysis {
namespace {

isa::Program assemble_or_die(std::string_view source) {
  auto assembled = isa::assemble(source);
  EXPECT_TRUE(assembled.ok())
      << (assembled.ok() ? "" : assembled.error().to_string());
  return std::move(assembled).value();
}

const InstVuln& record_at(const VulnReport& report, Addr pc) {
  for (const InstVuln& inst : report.instructions) {
    if (inst.pc == pc) return inst;
  }
  ADD_FAILURE() << "no record at pc " << pc;
  static InstVuln dummy;
  return dummy;
}

// --- loop depths -------------------------------------------------------------

TEST(LoopDepths, StraightLineIsDepthZero) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 1
  out  t0
  halt
)");
  const Cfg cfg(program);
  for (u32 depth : loop_depths(cfg)) EXPECT_EQ(depth, 0u);
}

TEST(LoopDepths, NestedLoopsStackAndDiamondStaysFlat) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 3
outer:
  li   t1, 3
inner:
  addi t1, t1, -1
  bnez t1, inner
  addi t0, t0, -1
  bnez t0, outer
  beqz t0, then
  addi t2, zero, 1
then:
  halt
)");
  const Cfg cfg(program);
  const std::vector<u32> depths = loop_depths(cfg);

  auto depth_at = [&](Addr pc) {
    return depths[cfg.block_of((pc - 0x1000) / 4)];
  };
  EXPECT_EQ(depth_at(0x1000), 0u);  // li t0 (before the loops)
  EXPECT_EQ(depth_at(0x1004), 1u);  // li t1 (outer body)
  EXPECT_EQ(depth_at(0x1008), 2u);  // addi t1 (inner body)
  EXPECT_EQ(depth_at(0x1010), 1u);  // addi t0 (outer body, after inner)
  EXPECT_EQ(depth_at(0x101c), 0u);  // diamond arm: no cycle, no depth
  EXPECT_EQ(depth_at(0x1020), 0u);  // halt

  EXPECT_DOUBLE_EQ(loop_frequency(0), 1.0);
  EXPECT_DOUBLE_EQ(loop_frequency(2), 100.0);
  // Capped: depth beyond kLoopDepthCap stops growing.
  EXPECT_DOUBLE_EQ(loop_frequency(kLoopDepthCap + 5),
                   loop_frequency(kLoopDepthCap));
}

// --- liveness-window fixed point ---------------------------------------------

TEST(Window, HullAndEmptyBehaveAsLattice) {
  const WindowInterval empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.expected(), 0.0);
  const WindowInterval a = WindowInterval::of(2, 4);
  EXPECT_EQ(WindowInterval::hull(empty, a), a);
  EXPECT_EQ(WindowInterval::hull(a, empty), a);
  EXPECT_EQ(WindowInterval::hull(a, WindowInterval::of(1, 7)),
            WindowInterval::of(1, 7));
  EXPECT_DOUBLE_EQ(a.expected(), 3.0);
}

TEST(Window, StraightLineDistancesAreExact) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 5
  addi t1, zero, 0
  add  t1, t1, t0
  out  t1
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  // li t0: last (only) read is `add`, two instructions later.
  EXPECT_EQ(record_at(report, 0x1000).window, WindowInterval::of(2, 2));
  // addi t1: read by `add` one instruction later (then redefined there).
  EXPECT_EQ(record_at(report, 0x1004).window, WindowInterval::of(1, 1));
  // add t1: read by `out` one instruction later.
  EXPECT_EQ(record_at(report, 0x1008).window, WindowInterval::of(1, 1));
}

TEST(Window, LoopFixedPointConvergesToBoundedInterval) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 4
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  // addi t0 in the loop body: its last read is two instructions later on
  // both paths — the addi itself on the back edge (read-then-redefine),
  // `out t0` on the exit path — so the fixed point is the exact [2, 2].
  const InstVuln& addi = record_at(report, 0x1004);
  EXPECT_EQ(addi.window, WindowInterval::of(2, 2));
  EXPECT_EQ(addi.depth, 1u);
}

TEST(Window, DiamondTakesTheHullOfBothArms) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 9
  beqz t0, other
  out  t0
  halt
other:
  addi t1, zero, 1
  add  t1, t1, t0
  out  t1
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  // li t0 is read at distance 1 (beqz) on both paths; its last read is
  // `out t0` at distance 2 on the fall-through arm and `add` at distance 3
  // on the taken arm — the interval must hull both.
  EXPECT_EQ(record_at(report, 0x1000).window, WindowInterval::of(2, 3));
}

TEST(Window, OverwrittenWithoutReadIsDead) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 1
  li   t0, 2
  out  t0
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  const InstVuln& first = record_at(report, 0x1000);
  EXPECT_DOUBLE_EQ(first.window.expected(), 0.0);
  EXPECT_EQ(first.mask_class, MaskClass::kDead);
  EXPECT_DOUBLE_EQ(first.score, 0.0);
}

// --- masking classification --------------------------------------------------

TEST(Masking, AndMaskDeratesHighBits) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 255
  andi t1, t0, 15
  out  t1
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  const InstVuln& li = record_at(report, 0x1000);
  EXPECT_EQ(li.demanded, u64{0xF});
  EXPECT_EQ(li.mask_class, MaskClass::kPartial);
  EXPECT_DOUBLE_EQ(li.demanded_fraction(), 4.0 / 64.0);
  // The andi result flows to `out`, which can observe every bit.
  const InstVuln& andi = record_at(report, 0x1004);
  EXPECT_EQ(andi.demanded, ~u64{0});
  EXPECT_EQ(andi.mask_class, MaskClass::kLive);
}

TEST(Masking, ByteStoreDemandsOnlyStoredBits) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 4096
  li   t1, 300
  sb   t1, 0(t0)
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  // t1 is consumed only as a byte-store value: 8 demanded bits.
  const InstVuln& li = record_at(report, 0x1004);
  EXPECT_EQ(li.demanded, u64{0xFF});
  EXPECT_EQ(li.mask_class, MaskClass::kPartial);
  // The store itself consumes its data immediately (window 1), but a flip
  // in the written value only matters within the stored byte.
  const InstVuln& sb = record_at(report, 0x1008);
  EXPECT_EQ(sb.window, WindowInterval::of(1, 1));
  EXPECT_EQ(sb.demanded, u64{0xFF});
  EXPECT_EQ(sb.mask_class, MaskClass::kPartial);
}

TEST(Masking, ShiftConstantMovesTheDemandedCone) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 7
  slli t1, t0, 60
  out  t1
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  // Only t0's low 4 bits survive the left shift by 60.
  EXPECT_EQ(record_at(report, 0x1000).demanded, u64{0xF});
}

// --- ranking and report ------------------------------------------------------

TEST(Ranking, LoopBodyOutranksStraightLine) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 4
loop:
  addi t0, t0, -1
  bnez t0, loop
  li   t2, 17
  out  t2
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  ASSERT_FALSE(report.ranking.empty());
  // Ranking indices are a permutation sorted by score desc.
  std::vector<usize> sorted = report.ranking;
  std::sort(sorted.begin(), sorted.end());
  for (usize i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  for (usize i = 1; i < report.ranking.size(); ++i) {
    EXPECT_GE(report.instructions[report.ranking[i - 1]].score,
              report.instructions[report.ranking[i]].score);
  }
  // The loop-carried addi (depth 1, freq 10) must outrank the li t2
  // producer in straight-line code.
  const InstVuln& addi = record_at(report, 0x1004);
  const InstVuln& li_t2 = record_at(report, 0x100c);
  EXPECT_EQ(addi.depth, 1u);
  EXPECT_EQ(li_t2.depth, 0u);
  EXPECT_GT(addi.score, li_t2.score);
  EXPECT_EQ(report.instructions[report.ranking[0]].pc, addi.pc);
}

TEST(Report, JsonIsValidAndCarriesTheSchema) {
  const isa::Program program = assemble_or_die(R"(
  .text
main:
  li   t0, 4
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  const VulnReport report = analyze_vulnerability(program);
  const std::string json = report.json("unit.srv");
  EXPECT_TRUE(json::parse_json(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\": \"reese-avf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"static\""), std::string::npos);
  EXPECT_NE(json.find("\"ranking\""), std::string::npos);
  EXPECT_NE(json.find("\"demanded_mask\""), std::string::npos);

  const std::string table = report.table("unit.srv", 3);
  EXPECT_NE(table.find("unit.srv"), std::string::npos);
}

}  // namespace
}  // namespace reese::analysis
