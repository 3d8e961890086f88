// Microarchitectural behaviour tests for the baseline pipeline: the timing
// model must respond to ILP, dependences, branch predictability, window
// size, memory ports and cache locality the way a real out-of-order core
// does. These are shape assertions, not golden numbers.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "workloads/workload.h"

namespace reese {
namespace {

double workload_ipc(const std::string& name, const core::CoreConfig& config,
                    u64 instructions = 60'000) {
  workloads::WorkloadOptions options;
  auto made = workloads::make_workload(name, options);
  EXPECT_TRUE(made.ok());
  const workloads::Workload workload = std::move(made).value();
  core::Pipeline pipeline(workload.program, config);
  EXPECT_EQ(pipeline.run(instructions, 64 * instructions),
            core::StopReason::kCommitTarget);
  return pipeline.stats().ipc();
}

TEST(PipelineBehavior, IlpBeatsDependenceChain) {
  const core::CoreConfig config = core::starting_config();
  const double ilp = workload_ipc("ilp_chain", config);
  const double dep = workload_ipc("dep_chain", config);
  EXPECT_GT(ilp, 1.5 * dep) << "independent chains must overlap";
  EXPECT_LT(dep, 2.0) << "a serial chain cannot sustain high IPC";
}

TEST(PipelineBehavior, BranchTortureHurts) {
  const core::CoreConfig config = core::starting_config();
  const double predictable = workload_ipc("ilp_chain", config);
  const double torture = workload_ipc("branch_torture", config);
  EXPECT_LT(torture, 0.6 * predictable);
  EXPECT_LT(torture, 1.3) << "random branches should gate IPC hard";
}

TEST(PipelineBehavior, BiggerWindowNeverHurtsMuch) {
  core::CoreConfig small = core::starting_config();
  core::CoreConfig big = core::starting_config();
  big.ruu_size = 64;
  big.lsq_size = 32;
  for (const char* name : {"ijpeg", "li", "perl"}) {
    const double ipc_small = workload_ipc(name, small);
    const double ipc_big = workload_ipc(name, big);
    EXPECT_GE(ipc_big, 0.98 * ipc_small) << name;
  }
}

TEST(PipelineBehavior, PointerChaseIsLatencyBound) {
  const core::CoreConfig config = core::starting_config();
  const double chase = workload_ipc("pointer_chase", config, 30'000);
  EXPECT_LT(chase, 1.0) << "serial dependent loads bound by cache latency";
}

TEST(PipelineBehavior, MorePortsHelpMemStream) {
  core::CoreConfig two = core::starting_config();
  core::CoreConfig four = core::starting_config();
  four.mem_port_count = 4;
  const double ipc2 = workload_ipc("mem_stream", two);
  const double ipc4 = workload_ipc("mem_stream", four);
  EXPECT_GE(ipc4, ipc2);
}

TEST(PipelineBehavior, DivHeavySerializesOnUnpipelinedUnit) {
  const core::CoreConfig config = core::starting_config();
  const double ipc = workload_ipc("div_heavy", config, 20'000);
  EXPECT_LT(ipc, 0.6);
}

TEST(PipelineBehavior, BetterPredictorGivesBetterOrEqualIpc) {
  core::CoreConfig nottaken = core::starting_config();
  nottaken.predictor = branch::PredictorKind::kNotTaken;
  core::CoreConfig gshare = core::starting_config();
  for (const char* name : {"gcc", "perl", "li"}) {
    const double ipc_static = workload_ipc(name, nottaken);
    const double ipc_gshare = workload_ipc(name, gshare);
    EXPECT_GT(ipc_gshare, ipc_static) << name;
  }
}

TEST(PipelineBehavior, MispredictStatsAreRecorded) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("branch_torture", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  pipeline.run(40'000, 4'000'000);
  const core::CoreStats& stats = pipeline.stats();
  EXPECT_GT(stats.cond_branches_resolved, 1000u);
  // Half the dynamic branches are random-outcome (the loop branch is
  // predictable), so the overall rate sits near 25%.
  EXPECT_GT(stats.mispredict_rate(), 0.18);
  EXPECT_LT(stats.mispredict_rate(), 0.65);
  EXPECT_GT(stats.wrongpath_dispatched, 0u);
}

TEST(PipelineBehavior, PredictableLoopHasLowMispredicts) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("ijpeg", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  pipeline.run(60'000, 4'000'000);
  EXPECT_LT(pipeline.stats().mispredict_rate(), 0.05);
}

TEST(PipelineBehavior, WrongPathStoresDoNotCorruptArchState) {
  // A mispredictable branch guards a store; wrong-path execution must not
  // leak into memory. The ISS is the oracle.
  constexpr char kSource[] = R"(
main:
  la   s0, flags
  la   s1, data
  li   s2, 100
  li   s3, 0          # checksum
loop:
  lbu  t0, 0(s0)
  beqz t0, skip
  sd   s2, 0(s1)      # only when flag set
  ld   t1, 0(s1)
  add  s3, s3, t1
skip:
  addi s0, s0, 1
  addi s2, s2, -1
  bnez s2, loop
  out  s3
  halt
  .data
flags: .byte 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1
  .space 84
  .align 8
data:  .space 8
)";
    auto assembled = isa::assemble(kSource);
  ASSERT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();

  isa::Iss iss(program);
  const isa::IssResult golden = iss.run(100'000);
  ASSERT_TRUE(golden.halted);

  core::Pipeline pipeline(program, core::starting_config());
  ASSERT_EQ(pipeline.run(100'000, 1'000'000), core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.memory().content_hash(), iss.memory().content_hash());
}

TEST(PipelineBehavior, RunIsRestartable) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("li", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  ASSERT_EQ(pipeline.run(10'000, 1'000'000), core::StopReason::kCommitTarget);
  const Cycle cycles_at_10k = pipeline.stats().cycles;
  ASSERT_EQ(pipeline.run(20'000, 1'000'000), core::StopReason::kCommitTarget);
  EXPECT_GT(pipeline.stats().cycles, cycles_at_10k);
  EXPECT_GE(pipeline.stats().committed, 20'000u);
}

TEST(PipelineBehavior, CycleLimitStops) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("li", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  EXPECT_EQ(pipeline.run(~u64{0} >> 1, 1000), core::StopReason::kCycleLimit);
  EXPECT_LE(pipeline.stats().cycles, 1001u);
}

TEST(PipelineBehavior, BadPcReported) {
  auto assembled = isa::assemble("main:\n  jr t0\n  halt\n");  // t0 = 0
  ASSERT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();
  core::Pipeline pipeline(program, core::starting_config());
  EXPECT_EQ(pipeline.run(1000, 100'000), core::StopReason::kBadPc);
}

TEST(PipelineBehavior, IcacheMissesShowUpForBigCode) {
  // A program whose text exceeds L1I: generate many blocks of straight-line
  // code joined by jumps, looping forever.
  std::string source = "main:\n";
  for (int block = 0; block < 3200; ++block) {
    source += "  addi t0, t0, 1\n  addi t1, t1, 2\n  addi t2, t2, 3\n";
  }
  source += "  j main\n";
  auto assembled = isa::assemble(source);
  ASSERT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();
  ASSERT_GT(program.code.size() * 4, 32u * 1024u);  // bigger than L1I

  core::Pipeline pipeline(program, core::starting_config());
  pipeline.run(50'000, 5'000'000);
  EXPECT_GT(pipeline.hierarchy().il1().stats().misses, 100u);
  EXPECT_GT(pipeline.stats().icache_stall_cycles, 100u);
}

TEST(PipelineBehavior, StoreLoadForwardingBeatsCacheRoundTrip) {
  // Tight store-then-load-same-address loop: forwarding keeps the dependent
  // load at 1 cycle. Compare against a version with unrelated addresses.
  constexpr char kForwarding[] = R"(
main:
  la   s0, buf
  li   t0, 5000
loop:
  sd   t0, 0(s0)
  ld   t1, 0(s0)
  add  t2, t2, t1
  addi t0, t0, -1
  bnez t0, loop
  out  t2
  halt
  .data
  .align 8
buf: .space 64
)";
  auto assembled = isa::assemble(kForwarding);
  ASSERT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();
  core::Pipeline pipeline(program, core::starting_config());
  ASSERT_EQ(pipeline.run(1'000'000, 10'000'000), core::StopReason::kHalted);
  // Forwarded loads never touch the D-cache; only the store commits do.
  const auto& dl1 = pipeline.hierarchy().dl1().stats();
  EXPECT_LT(dl1.read_accesses, 100u);
  EXPECT_GT(dl1.write_accesses, 4000u);
}

TEST(PipelineBehavior, OccupancyStatsPopulated) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("li", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  pipeline.run(20'000, 2'000'000);
  const core::CoreStats& stats = pipeline.stats();
  EXPECT_GT(stats.ruu_occupancy.mean(), 0.0);
  EXPECT_LE(stats.ruu_occupancy.max(), 16.0);
  EXPECT_LE(stats.lsq_occupancy.max(), 8.0);
  EXPECT_LE(stats.ifq_occupancy.max(), 16.0);
  EXPECT_GT(stats.issue_per_cycle.mean(), 0.0);
}

TEST(PipelineBehavior, ReportMentionsKeySections) {
  workloads::WorkloadOptions options;
  const workloads::Workload workload =
      std::move(workloads::make_workload("go", options)).value();
  core::Pipeline pipeline(workload.program, core::starting_config());
  pipeline.run(5'000, 1'000'000);
  const std::string report = pipeline.report();
  EXPECT_NE(report.find("IPC"), std::string::npos);
  EXPECT_NE(report.find("branches"), std::string::npos);
  EXPECT_NE(report.find("dl1"), std::string::npos);
}

// Architectural equivalence must hold under every predictor kind: gshare's
// speculative history repair, and the fixed directions that mispredict
// every taken (nottaken) or every not-taken (taken) conditional branch.
class PredictorEquivalenceTest
    : public ::testing::TestWithParam<branch::PredictorKind> {};

TEST_P(PredictorEquivalenceTest, ArchStateMatchesIss) {
  workloads::WorkloadOptions options;
  options.iterations = 4;
  const workloads::Workload workload =
      std::move(workloads::make_workload("gcc", options)).value();

  isa::Iss iss(workload.program);
  const isa::IssResult golden = iss.run(2'000'000);
  ASSERT_TRUE(golden.halted);

  core::CoreConfig config = core::starting_config();
  config.predictor = GetParam();
  core::Pipeline pipeline(workload.program, config);
  ASSERT_EQ(pipeline.run(2'000'000, 64'000'000), core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.stats().committed, golden.executed_instructions);
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, PredictorEquivalenceTest,
    ::testing::Values(branch::PredictorKind::kNotTaken,
                      branch::PredictorKind::kTaken,
                      branch::PredictorKind::kGshare),
    [](const ::testing::TestParamInfo<branch::PredictorKind>& info) {
      return branch::predictor_kind_name(info.param);
    });

}  // namespace
}  // namespace reese
