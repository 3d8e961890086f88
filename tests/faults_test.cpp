// Fault-injection framework tests: scheduling, coverage accounting and
// end-to-end detection through the REESE pipeline.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "faults/injector.h"
#include "workloads/workload.h"

namespace reese {
namespace {

workloads::Workload load(const std::string& name) {
  workloads::WorkloadOptions options;
  auto made = workloads::make_workload(name, options);
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

TEST(Injector, ScheduleFiresExactSeqs) {
  faults::InjectorConfig config;
  config.schedule = {5, 10, 10'000};
  faults::Injector injector(config);
  isa::Instruction nop;
  u64 fired = 0;
  for (InstSeq seq = 1; seq <= 20'000; ++seq) {
    if (injector.on_instruction(seq, seq, 0x1000, nop).id != 0) {
      ++fired;
      EXPECT_TRUE(seq == 5 || seq == 10 || seq == 10'000) << seq;
    }
  }
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(injector.injected(), 3u);
}

TEST(Injector, SkippedScheduledSeqIsPassedOver) {
  faults::InjectorConfig config;
  config.schedule = {5, 10};
  faults::Injector injector(config);
  isa::Instruction nop;
  // Seq 5 never shows up (e.g. squashed); 10 must still fire.
  EXPECT_EQ(injector.on_instruction(7, 0, 0x1000, nop).id, 0u);
  EXPECT_EQ(injector.on_instruction(10, 0, 0x1000, nop).id, 1u);
}

TEST(Injector, RateProducesApproximateCount) {
  faults::InjectorConfig config;
  config.rate = 0.01;
  faults::Injector injector(config);
  isa::Instruction nop;
  for (InstSeq seq = 1; seq <= 100'000; ++seq) {
    injector.on_instruction(seq, seq, 0x1000, nop);
  }
  EXPECT_NEAR(static_cast<double>(injector.injected()), 1000.0, 150.0);
}

TEST(Injector, MaxFaultsCap) {
  faults::InjectorConfig config;
  config.rate = 1.0;
  config.max_faults = 7;
  faults::Injector injector(config);
  isa::Instruction nop;
  for (InstSeq seq = 1; seq <= 100; ++seq) {
    injector.on_instruction(seq, seq, 0x1000, nop);
  }
  EXPECT_EQ(injector.injected(), 7u);
}

TEST(Injector, TargetSelection) {
  isa::Instruction nop;
  faults::InjectorConfig p_config;
  p_config.rate = 1.0;
  p_config.target = faults::FaultTarget::kPResult;
  faults::Injector p_injector(p_config);
  const core::Strike p_strike = p_injector.on_instruction(1, 0, 0x1000, nop);
  EXPECT_NE(p_strike.id, 0u);
  EXPECT_FALSE(p_strike.flip_r);

  faults::InjectorConfig r_config;
  r_config.rate = 1.0;
  r_config.target = faults::FaultTarget::kRResult;
  faults::Injector r_injector(r_config);
  const core::Strike r_strike = r_injector.on_instruction(1, 0, 0x1000, nop);
  EXPECT_NE(r_strike.id, 0u);
  EXPECT_TRUE(r_strike.flip_r);
}

TEST(Injector, CoverageAccounting) {
  faults::InjectorConfig config;
  config.schedule = {1, 2, 3, 4};
  faults::Injector injector(config);
  isa::Instruction nop;
  for (InstSeq seq = 1; seq <= 4; ++seq) injector.on_instruction(seq, 10, 0x1000, nop);
  // Fault ids are 1..4 in injection order; fault 4 stays in flight.
  injector.on_resolved(1, core::FaultOutcome::kDetected, 0x1000, 30);
  injector.on_resolved(2, core::FaultOutcome::kDetected, 0x1000, 50);
  injector.on_resolved(3, core::FaultOutcome::kSdc, 0x1000, 60);
  EXPECT_EQ(injector.detected(), 2u);
  EXPECT_EQ(injector.undetected(), 1u);
  EXPECT_EQ(injector.pending(), 1u);
  EXPECT_NEAR(injector.coverage(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(injector.latency().count(), 2u);
  EXPECT_DOUBLE_EQ(injector.latency().mean(), 30.0);
}

TEST(Injector, Deterministic) {
  for (int run = 0; run < 2; ++run) {
    faults::InjectorConfig config;
    config.rate = 0.1;
    config.seed = 99;
    faults::Injector a(config);
    faults::Injector b(config);
    isa::Instruction nop;
    for (InstSeq seq = 1; seq <= 1000; ++seq) {
      const core::Strike sa = a.on_instruction(seq, 0, 0x1000, nop);
      const core::Strike sb = b.on_instruction(seq, 0, 0x1000, nop);
      ASSERT_EQ(sa.id, sb.id);
      ASSERT_EQ(sa.flip_r, sb.flip_r);
      ASSERT_EQ(sa.bit, sb.bit);
    }
  }
}

// --- end-to-end through the pipeline ------------------------------------------

namespace {
/// Records the sequence numbers of instructions that reach the commit path
/// (sequence numbering includes squashed wrong-path instructions, so a
/// valid fault schedule must be derived from a recording run).
class SeqRecorder final : public core::FaultHook {
 public:
  core::Strike on_instruction(InstSeq seq, Cycle, Addr,
                              const isa::Instruction&) override {
    seqs.push_back(seq);
    return {};
  }
  void on_resolved(u64, core::FaultOutcome, Addr, Cycle) override {}
  std::vector<InstSeq> seqs;
};
}  // namespace

TEST(FaultPipeline, ReeseDetectsScheduledFaults) {
  // Phase 1: find sequence numbers that actually commit.
  SeqRecorder recorder;
  {
    const workloads::Workload workload = load("go");
    core::Pipeline pipeline(workload.program,
                            core::with_reese(core::starting_config()));
    pipeline.set_fault_hook(&recorder);
    pipeline.run(20'000, 2'000'000);
  }
  ASSERT_GT(recorder.seqs.size(), 10'000u);

  // Phase 2: schedule faults on five committed instructions; the run is
  // deterministic, so all five must be injected and detected.
  faults::InjectorConfig config;
  config.schedule = {recorder.seqs[100], recorder.seqs[500],
                     recorder.seqs[1000], recorder.seqs[5000],
                     recorder.seqs[9000]};
  faults::Injector injector(config);
  const workloads::Workload workload = load("go");
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.set_fault_hook(&injector);
  pipeline.run(20'000, 2'000'000);
  EXPECT_EQ(injector.injected(), 5u);
  EXPECT_EQ(injector.detected(), 5u);
  EXPECT_EQ(injector.undetected(), 0u);
  EXPECT_EQ(pipeline.stats().errors_detected, 5u);
}

TEST(FaultPipeline, BaselineDetectsNothing) {
  const workloads::Workload workload = load("go");
  faults::InjectorConfig config;
  config.rate = 1e-3;
  faults::Injector injector(config);
  core::Pipeline pipeline(workload.program, core::starting_config());
  pipeline.set_fault_hook(&injector);
  pipeline.run(20'000, 2'000'000);
  EXPECT_GT(injector.injected(), 5u);
  EXPECT_EQ(injector.detected(), 0u);
  EXPECT_EQ(injector.undetected(), injector.injected());
}

TEST(FaultPipeline, DetectionLatencyIsPlausible) {
  const workloads::Workload workload = load("li");
  faults::InjectorConfig config;
  config.rate = 1e-3;
  faults::Injector injector(config);
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.set_fault_hook(&injector);
  pipeline.run(50'000, 5'000'000);
  ASSERT_GT(injector.detected(), 10u);
  // Detection must take at least one cycle and at most a few hundred
  // (bounded by queue traversal + drain).
  EXPECT_GE(injector.latency().min(), 1u);
  EXPECT_LT(injector.latency().mean(), 300.0);
}

TEST(FaultPipeline, ErrorRecoveryPenaltyCharged) {
  const workloads::Workload clean_workload = load("ijpeg");
  core::Pipeline clean(clean_workload.program,
                       core::with_reese(core::starting_config()));
  clean.run(20'000, 2'000'000);

  const workloads::Workload faulty_workload = load("ijpeg");
  faults::InjectorConfig config;
  config.rate = 5e-3;  // heavy fault pressure
  faults::Injector injector(config);
  core::CoreConfig reese_config = core::with_reese(core::starting_config());
  reese_config.reese.error_recovery_penalty = 50;
  core::Pipeline faulty(faulty_workload.program, reese_config);
  faulty.set_fault_hook(&injector);
  faulty.run(20'000, 4'000'000);

  EXPECT_GT(injector.detected(), 50u);
  EXPECT_LT(faulty.stats().ipc(), clean.stats().ipc());
}

TEST(FaultPipeline, EveryOpcodeClassDetectable) {
  // A program exercising ALU, mul, div, load, store, branch and jump paths;
  // inject densely and require 100% coverage.
  const workloads::Workload workload = load("gcc");
  faults::InjectorConfig config;
  config.rate = 5e-3;
  faults::Injector injector(config);
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.set_fault_hook(&injector);
  pipeline.run(50'000, 5'000'000);
  ASSERT_GT(injector.detected() + injector.undetected(), 100u);
  EXPECT_EQ(injector.undetected(), 0u);
}

}  // namespace
}  // namespace reese
