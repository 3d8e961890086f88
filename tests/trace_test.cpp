// Pipeline tracer tests: lifecycle events must arrive in a sane order and
// the timeline must reflect the REESE dual-execution structure.
#include <gtest/gtest.h>

#include "common/strutil.h"
#include "core/pipeline.h"
#include "core/trace.h"
#include "isa/assembler.h"

namespace reese {
namespace {

isa::Program tiny_program() {
  auto assembled = isa::assemble(R"(
main:
  li   t0, 4
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  EXPECT_TRUE(assembled.ok());
  return std::move(assembled).value();
}

TEST(Trace, BaselineLifecycleOrdering) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(256);
  core::Pipeline pipeline(program, core::starting_config());
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  ASSERT_GT(tracer.rows().size(), 5u);
  for (const auto& row : tracer.rows()) {
    if (row.squashed || row.spec) continue;
    EXPECT_GT(row.dispatch, 0u);
    EXPECT_GE(row.issue, row.dispatch);
    EXPECT_GT(row.complete, row.issue);
    EXPECT_GT(row.commit, row.complete);
    // Baseline: no R-stream events.
    EXPECT_EQ(row.r_issue, 0u);
    EXPECT_EQ(row.r_complete, 0u);
  }
}

TEST(Trace, ReeseLifecycleIncludesRStream) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(256);
  core::Pipeline pipeline(program,
                          core::with_reese(core::starting_config()));
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  usize full_lifecycles = 0;
  for (const auto& row : tracer.rows()) {
    if (row.squashed || row.spec) continue;
    if (row.commit == 0) continue;
    ++full_lifecycles;
    EXPECT_GT(row.release, row.issue);
    EXPECT_GE(row.r_issue, row.release);
    EXPECT_GT(row.r_complete, row.r_issue);
    EXPECT_GE(row.commit, row.r_complete);
  }
  EXPECT_GT(full_lifecycles, 5u);
}

TEST(Trace, WrongPathRowsAreMarkedSquashed) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(512);
  core::CoreConfig config = core::starting_config();
  config.predictor = branch::PredictorKind::kTaken;  // guaranteed mispredicts
  core::Pipeline pipeline(program, config);
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  usize squashed = 0;
  for (const auto& row : tracer.rows()) {
    if (row.squashed) {
      ++squashed;
      EXPECT_TRUE(row.spec);
      EXPECT_EQ(row.commit, 0u);
    }
  }
  EXPECT_GT(squashed, 0u);
}

TEST(Trace, EveryWrongPathInstructionHasItsOwnLifecycle) {
  // Wrong-path entries share the next true-path seq; each must still get
  // its own row, squashed, rather than folding into the youngest one.
  const isa::Program program = tiny_program();
  core::Tracer tracer(4096);
  core::CoreConfig config = core::starting_config();
  config.predictor = branch::PredictorKind::kTaken;  // guaranteed mispredicts
  core::Pipeline pipeline(program, config);
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  usize wrong_path = 0;
  for (const auto& row : tracer.rows()) {
    if (!row.spec) continue;
    ++wrong_path;
    EXPECT_TRUE(row.squashed) << "wrong-path row " << wrong_path;
    EXPECT_EQ(row.commit, 0u);
  }
  EXPECT_GT(wrong_path, 1u);
  EXPECT_EQ(wrong_path, pipeline.stats().wrongpath_dispatched);
}

TEST(Trace, RenderedTableHasHeaderAndRows) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(32);
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  pipeline.set_tracer(&tracer);
  pipeline.run(1'000, 100'000);
  const std::string table = tracer.to_string();
  EXPECT_NE(table.find("instruction"), std::string::npos);
  EXPECT_NE(table.find("addi t0, t0, -1"), std::string::npos);
  EXPECT_NE(table.find("halt"), std::string::npos);
}

TEST(Trace, RenderedTableIncludesReleaseColumn) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(256);
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  const std::string table = tracer.to_string();
  // All ten columns, RL (release) between WB and RI.
  const usize wb = table.find(" WB");
  const usize rl = table.find(" RL");
  const usize ri = table.find(" RI");
  ASSERT_NE(wb, std::string::npos);
  ASSERT_NE(rl, std::string::npos);
  ASSERT_NE(ri, std::string::npos);
  EXPECT_LT(wb, rl);
  EXPECT_LT(rl, ri);

  // A committed REESE row's release cycle must appear in its line, in
  // column position between complete and r_issue.
  for (const auto& row : tracer.rows()) {
    if (row.spec || row.squashed || row.commit == 0 || row.release == 0) {
      continue;
    }
    const std::string line = format(
        "%7llu%7llu%7llu", static_cast<unsigned long long>(row.complete),
        static_cast<unsigned long long>(row.release),
        static_cast<unsigned long long>(row.r_issue));
    EXPECT_NE(table.find(line), std::string::npos)
        << "WB/RL/RI cell sequence missing for seq " << row.seq;
    return;  // one definitive row is enough
  }
  FAIL() << "no committed row with a release cycle";
}

// Direct-event tests for the lifecycle index: seq on the true path, RUU
// slot on the wrong path.

core::TraceEvent make_event(core::TraceKind kind, Cycle cycle, InstSeq seq,
                            bool spec = false, u32 slot = 0) {
  core::TraceEvent event;
  event.kind = kind;
  event.cycle = cycle;
  event.seq = seq;
  event.slot = slot;
  event.pc = 0x1000 + 4 * seq;
  event.inst = isa::Instruction{};
  event.spec = spec;
  return event;
}

TEST(Trace, IndexDropsEvictedRowsAndKeepsLiveOnes) {
  core::Tracer tracer(2);
  tracer.record(make_event(core::TraceKind::kDispatch, 10, 1));
  tracer.record(make_event(core::TraceKind::kDispatch, 11, 2));
  tracer.record(make_event(core::TraceKind::kDispatch, 12, 3));  // evicts 1
  ASSERT_EQ(tracer.rows().size(), 2u);
  EXPECT_EQ(tracer.rows().front().seq, 2u);

  // A late event for the evicted seq is ignored, not misattributed.
  tracer.record(make_event(core::TraceKind::kCommit, 13, 1));
  for (const auto& row : tracer.rows()) EXPECT_EQ(row.commit, 0u);

  // Live rows still resolve after the eviction shifted the deque.
  tracer.record(make_event(core::TraceKind::kIssue, 14, 2));
  tracer.record(make_event(core::TraceKind::kIssue, 15, 3));
  EXPECT_EQ(tracer.rows()[0].issue, 14u);
  EXPECT_EQ(tracer.rows()[1].issue, 15u);
}

TEST(Trace, IndexKeepsWrongPathAndTruePathSeparate) {
  core::Tracer tracer(8);
  // A wrong-path entry and a true-path instruction can share a seq, and a
  // wrong-path slot number can equal a true-path seq.
  tracer.record(make_event(core::TraceKind::kDispatch, 10, 5, true, 5));
  tracer.record(make_event(core::TraceKind::kDispatch, 11, 5, false, 3));
  tracer.record(make_event(core::TraceKind::kSquash, 12, 5, true, 5));
  tracer.record(make_event(core::TraceKind::kCommit, 13, 5, false));
  ASSERT_EQ(tracer.rows().size(), 2u);
  EXPECT_TRUE(tracer.rows()[0].spec);
  EXPECT_TRUE(tracer.rows()[0].squashed);
  EXPECT_EQ(tracer.rows()[0].commit, 0u);
  EXPECT_FALSE(tracer.rows()[1].spec);
  EXPECT_FALSE(tracer.rows()[1].squashed);
  EXPECT_EQ(tracer.rows()[1].commit, 13u);
}

TEST(Trace, IndexPointsAtMostRecentRowOnSeqReuse) {
  core::Tracer tracer(8);
  // Wrong-path slots recur after a squash: the same slot key is
  // dispatched twice. Later events must land in the newest row.
  tracer.record(make_event(core::TraceKind::kDispatch, 10, 7, true));
  tracer.record(make_event(core::TraceKind::kSquash, 11, 7, true));
  tracer.record(make_event(core::TraceKind::kDispatch, 20, 9, true));
  tracer.record(make_event(core::TraceKind::kIssue, 21, 9, true));
  ASSERT_EQ(tracer.rows().size(), 2u);
  EXPECT_TRUE(tracer.rows()[0].squashed);
  EXPECT_EQ(tracer.rows()[0].issue, 0u);
  EXPECT_FALSE(tracer.rows()[1].squashed);
  EXPECT_EQ(tracer.rows()[1].issue, 21u);

  // Seven more dispatches evict exactly the OLDER slot-0 row. The
  // eviction must not orphan the newer row's index entry (the guard that
  // only erases when the entry still points at the evicted row).
  for (InstSeq seq = 100; seq < 107; ++seq) {
    tracer.record(make_event(core::TraceKind::kDispatch, 30 + seq, seq));
  }
  ASSERT_EQ(tracer.rows().size(), 8u);
  ASSERT_EQ(tracer.rows().front().dispatch, 20u);  // the newer slot-0 row
  tracer.record(make_event(core::TraceKind::kComplete, 50, 9, true));
  EXPECT_EQ(tracer.rows().front().complete, 50u);

  // One more dispatch scrolls the newer slot-0 row out too; its events are
  // then dropped rather than misattributed.
  tracer.record(make_event(core::TraceKind::kDispatch, 40, 107));
  tracer.record(make_event(core::TraceKind::kRIssue, 55, 9, true));
  for (const auto& row : tracer.rows()) EXPECT_EQ(row.r_issue, 0u);
  tracer.record(make_event(core::TraceKind::kIssue, 60, 106));
  EXPECT_EQ(tracer.rows()[6].issue, 60u);
}

TEST(Trace, CapacityBoundsRows) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(4);
  core::Pipeline pipeline(program, core::starting_config());
  pipeline.set_tracer(&tracer);
  pipeline.run(1'000, 100'000);
  ASSERT_EQ(tracer.rows().size(), 4u);
  // The kept rows are the last four dispatched; the run ends on HALT.
  EXPECT_EQ(tracer.rows().back().inst.op, isa::Opcode::kHalt);
}

}  // namespace
}  // namespace reese
