// REESE invariants and mechanism tests: full duplication accounting,
// queue capacity respect, separation guarantees, partial re-execution,
// early release, priority watermark, spare-element behaviour, and
// deadlock-freedom across pathological configurations.
#include <gtest/gtest.h>

#include <ostream>

#include "core/pipeline.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "workloads/workload.h"

namespace reese {
namespace {

workloads::Workload load(const std::string& name, u64 iterations = 0) {
  workloads::WorkloadOptions options;
  options.iterations = iterations;
  auto made = workloads::make_workload(name, options);
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

TEST(ReeseInvariants, EveryCommitIsCompared) {
  const workloads::Workload workload = load("go");
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.run(50'000, 5'000'000);
  const core::CoreStats& stats = pipeline.stats();
  // Mid-run, the R-queue tail holds compared-but-not-yet-committed entries;
  // comparisons can lead commits by at most the queue capacity.
  EXPECT_GE(stats.comparisons, stats.committed);
  EXPECT_LE(stats.comparisons, stats.committed + 32);
  EXPECT_EQ(stats.committed_r, stats.comparisons);
  // Everything that committed passed through the R-queue.
  EXPECT_GE(stats.rqueue_enqueued, stats.committed);
  // In-flight tail may hold a few extra enqueued entries.
  EXPECT_LE(stats.rqueue_enqueued, stats.committed + 64);
  EXPECT_EQ(stats.errors_detected, 0u);
  EXPECT_EQ(stats.rskipped, 0u);
}

TEST(ReeseInvariants, RIssueCountsMatch) {
  const workloads::Workload workload = load("perl");
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.run(30'000, 3'000'000);
  const core::CoreStats& stats = pipeline.stats();
  EXPECT_GE(stats.issued_r, stats.committed_r);
  EXPECT_LE(stats.issued_r, stats.committed_r + 64);
}

TEST(ReeseInvariants, QueueOccupancyNeverExceedsCapacity) {
  for (u32 capacity : {4u, 8u, 32u}) {
    const workloads::Workload workload = load("li");
    core::CoreConfig config = core::with_reese(core::starting_config());
    config.reese.rqueue_size = capacity;
    core::Pipeline pipeline(workload.program, config);
    pipeline.run(20'000, 4'000'000);
    EXPECT_LE(pipeline.stats().rqueue_occupancy.max(),
              static_cast<double>(capacity));
  }
}

TEST(ReeseInvariants, SeparationIsAlwaysPositive) {
  const workloads::Workload workload = load("vortex");
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.run(30'000, 3'000'000);
  // An R execution can never start before its P execution issued; the
  // pipeline depth guarantees at least 2 cycles.
  EXPECT_GE(pipeline.stats().separation.min(), 2u);
}

TEST(ReeseInvariants, MinSeparationEnforced) {
  for (u32 min_sep : {8u, 32u}) {
    const workloads::Workload workload = load("go");
    core::CoreConfig config = core::with_reese(core::starting_config());
    config.reese.min_separation = min_sep;
    core::Pipeline pipeline(workload.program, config);
    pipeline.run(20'000, 8'000'000);
    // Separation is measured issue-to-issue; enforcement is against P
    // completion, which is >= issue, so min separation holds a fortiori.
    EXPECT_GE(pipeline.stats().separation.min(), min_sep);
  }
}

TEST(ReeseInvariants, MinSeparationCostsThroughput) {
  const workloads::Workload fast_workload = load("li");
  core::CoreConfig config = core::with_reese(core::starting_config());
  core::Pipeline fast(fast_workload.program, config);
  fast.run(30'000, 8'000'000);

  const workloads::Workload slow_workload = load("li");
  config.reese.min_separation = 64;
  core::Pipeline slow(slow_workload.program, config);
  slow.run(30'000, 8'000'000);

  EXPECT_LT(slow.stats().ipc(), fast.stats().ipc());
}

TEST(ReeseInvariants, PartialReexecutionAccounting) {
  for (u32 k : {2u, 4u}) {
    const workloads::Workload workload = load("gcc");
    core::CoreConfig config = core::with_reese(core::starting_config());
    config.reese.reexec_interval = k;
    core::Pipeline pipeline(workload.program, config);
    pipeline.run(40'000, 4'000'000);
    const core::CoreStats& stats = pipeline.stats();
    const double skipped_fraction =
        static_cast<double>(stats.rskipped) /
        static_cast<double>(stats.committed);
    EXPECT_NEAR(skipped_fraction, 1.0 - 1.0 / k, 0.02) << "k=" << k;
    EXPECT_EQ(stats.comparisons + stats.rskipped, stats.committed);
  }
}

TEST(ReeseInvariants, PartialReexecutionIsFaster) {
  const workloads::Workload full_workload = load("li");
  core::Pipeline full(full_workload.program,
                      core::with_reese(core::starting_config()));
  full.run(40'000, 4'000'000);

  const workloads::Workload half_workload = load("li");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.reese.reexec_interval = 2;
  core::Pipeline half(half_workload.program, config);
  half.run(40'000, 4'000'000);

  EXPECT_GT(half.stats().ipc(), full.stats().ipc());
}

TEST(ReeseInvariants, EarlyReleaseOffStillCorrect) {
  const workloads::Workload workload = load("perl", /*iterations=*/6);
  isa::Iss iss(workload.program);
  const isa::IssResult golden = iss.run(2'000'000);
  ASSERT_TRUE(golden.halted);

  core::CoreConfig config = core::with_reese(core::starting_config());
  config.reese.early_release = false;
  core::Pipeline pipeline(workload.program, config);
  ASSERT_EQ(pipeline.run(2'000'000, 64'000'000), core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.stats().comparisons, pipeline.stats().committed);
}

TEST(ReeseInvariants, EarlyReleaseHelpsIpc) {
  const workloads::Workload on_workload = load("vortex");
  core::Pipeline on(on_workload.program,
                    core::with_reese(core::starting_config()));
  on.run(30'000, 4'000'000);

  const workloads::Workload off_workload = load("vortex");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.reese.early_release = false;
  core::Pipeline off(off_workload.program, config);
  off.run(30'000, 4'000'000);

  EXPECT_GE(on.stats().ipc(), off.stats().ipc());
}

TEST(ReeseInvariants, SpareAlusRecoverIpc) {
  const workloads::Workload w0 = load("li");
  core::Pipeline none(w0.program, core::with_reese(core::starting_config()));
  none.run(40'000, 4'000'000);

  const workloads::Workload w2 = load("li");
  core::Pipeline two(w2.program,
                     core::with_reese(core::starting_config(), 2));
  two.run(40'000, 4'000'000);

  EXPECT_GT(two.stats().ipc(), none.stats().ipc());
}

TEST(ReeseInvariants, ReeseNeverBeatsBaselineByMuch) {
  // REESE executes strictly more work; it may commit slightly earlier than
  // baseline on some interleavings (the paper saw vortex do this) but
  // never by a large factor.
  for (const char* name : {"gcc", "ijpeg", "li"}) {
    const workloads::Workload wb = load(name);
    core::Pipeline baseline(wb.program, core::starting_config());
    baseline.run(30'000, 4'000'000);

    const workloads::Workload wr = load(name);
    core::Pipeline reese(wr.program,
                         core::with_reese(core::starting_config()));
    reese.run(30'000, 4'000'000);

    EXPECT_LT(reese.stats().ipc(), 1.10 * baseline.stats().ipc()) << name;
  }
}

TEST(ReeseInvariants, WatermarkPriorityEngages) {
  const workloads::Workload workload = load("li");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.reese.rqueue_size = 8;  // small queue -> frequent pressure
  core::Pipeline pipeline(workload.program, config);
  pipeline.run(20'000, 4'000'000);
  EXPECT_GT(pipeline.stats().rpriority_cycles, 0u);
}

TEST(ReeseInvariants, TinyQueueStallsShowUp) {
  const workloads::Workload workload = load("ijpeg");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.reese.rqueue_size = 2;
  core::Pipeline pipeline(workload.program, config);
  pipeline.run(20'000, 8'000'000);
  EXPECT_GT(pipeline.stats().rqueue_full_stall_cycles, 0u);
}

TEST(ReeseInvariants, HaltDrainsThroughQueue) {
  auto assembled = isa::assemble(R"(
main:
  li t0, 10
loop:
  addi t0, t0, -1
  bnez t0, loop
  out t0
  halt
)");
  ASSERT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  EXPECT_EQ(pipeline.run(1'000'000, 100'000), core::StopReason::kHalted);
  EXPECT_EQ(pipeline.stats().comparisons, pipeline.stats().committed);
}

// Deadlock-freedom property: every pathological shape of tiny resources
// must still make forward progress to the commit target.
struct TinyConfig {
  u32 ruu, lsq, rqueue, ports, alus, width;
  bool early;
};

// Names each shape by its fields, so the test ids read the same in every
// build instead of dumping the struct's bytes (padding included).
void PrintTo(const TinyConfig& tiny, std::ostream* os) {
  *os << "ruu" << tiny.ruu << "_lsq" << tiny.lsq << "_rq" << tiny.rqueue
      << "_ports" << tiny.ports << "_alus" << tiny.alus << "_width"
      << tiny.width << (tiny.early ? "_early" : "_late");
}

class DeadlockFreedomTest : public ::testing::TestWithParam<TinyConfig> {};

TEST_P(DeadlockFreedomTest, MakesProgress) {
  const TinyConfig& tiny = GetParam();
  const workloads::Workload workload = load("li");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.ruu_size = tiny.ruu;
  config.lsq_size = tiny.lsq;
  config.mem_port_count = tiny.ports;
  config.int_alu_count = tiny.alus;
  config.fetch_width = config.decode_width = tiny.width;
  config.issue_width = config.commit_width = tiny.width;
  config.reese.rqueue_size = tiny.rqueue;
  config.reese.early_release = tiny.early;
  core::Pipeline pipeline(workload.program, config);
  EXPECT_EQ(pipeline.run(3'000, 3'000'000), core::StopReason::kCommitTarget)
      << "ruu=" << tiny.ruu << " lsq=" << tiny.lsq
      << " rq=" << tiny.rqueue << " ports=" << tiny.ports;
}

INSTANTIATE_TEST_SUITE_P(
    TinyShapes, DeadlockFreedomTest,
    ::testing::Values(TinyConfig{2, 1, 1, 1, 1, 1, true},
                      TinyConfig{2, 1, 1, 1, 1, 1, false},
                      TinyConfig{4, 2, 2, 1, 1, 2, false},
                      TinyConfig{4, 2, 2, 1, 1, 2, true},
                      TinyConfig{3, 1, 4, 1, 2, 4, true},
                      TinyConfig{16, 8, 1, 1, 4, 8, true},
                      TinyConfig{16, 8, 1, 2, 4, 8, false},
                      TinyConfig{2, 2, 32, 2, 4, 8, true}));

}  // namespace
}  // namespace reese
