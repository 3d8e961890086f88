// Exact-ish timing tests: the pipeline's cycle counts must scale with
// operation latencies the way core/config.h's constants say. Each test
// measures the marginal cost (slope) of growing a kernel, which cancels
// fixed startup costs (cold caches, pipeline fill).
#include <gtest/gtest.h>

#include "common/strutil.h"
#include "core/pipeline.h"
#include "isa/assembler.h"

namespace reese {
namespace {

/// Cycles to run a countdown loop whose body is `body` repeated once,
/// iterated `trips` times.
Cycle loop_cycles(const std::string& body, u64 trips,
                  const core::CoreConfig& config) {
  std::string source = format("main:\n  li   s1, %llu\nloop:\n",
                              static_cast<unsigned long long>(trips));
  source += body;
  source += "  addi s1, s1, -1\n  bnez s1, loop\n  halt\n";
  auto assembled = isa::assemble(source);
  EXPECT_TRUE(assembled.ok());
  const isa::Program program = std::move(assembled).value();
  core::Pipeline pipeline(program, config);
  EXPECT_EQ(pipeline.run(100'000'000, 100'000'000),
            core::StopReason::kHalted);
  return pipeline.stats().cycles;
}

/// Marginal cycles per loop iteration, startup cancelled.
double slope(const std::string& body, const core::CoreConfig& config) {
  const Cycle small = loop_cycles(body, 200, config);
  const Cycle large = loop_cycles(body, 1200, config);
  return static_cast<double>(large - small) / 1000.0;
}

TEST(Timing, DependentAddChainIsOneCyclePerOp) {
  // 8 dependent addis: critical path 8 cycles per iteration (the loop
  // control overlaps).
  std::string body;
  for (int i = 0; i < 8; ++i) body += "  addi t0, t0, 1\n";
  const double cycles = slope(body, core::starting_config());
  EXPECT_NEAR(cycles, 8.0, 1.0);
}

TEST(Timing, DependentMulChainMatchesMulLatency) {
  // 4 dependent muls at latency 3: ~12 cycles per iteration.
  std::string body;
  for (int i = 0; i < 4; ++i) body += "  mul t0, t0, t1\n";
  const double cycles = slope(body, core::starting_config());
  EXPECT_NEAR(cycles, 4.0 * core::kIntMulLatency, 2.0);
}

TEST(Timing, DivChainMatchesDivLatency) {
  core::CoreConfig config = core::starting_config();
  const double cycles = slope("  div t0, t0, t1\n  addi t0, t0, 3\n", config);
  // div latency 20 + 1 dependent add.
  EXPECT_NEAR(cycles, 21.0, 3.0);
}

TEST(Timing, IndependentAddsUseAllAlus) {
  // 8 independent add chains on a 4-ALU machine: >= 2 cycles per
  // iteration of 8 adds; loop overhead adds a little.
  std::string body;
  for (int i = 0; i < 8; ++i) {
    body += format("  addi t%d, t%d, 1\n", i % 4, i % 4);
  }
  // Use four independent registers, two adds each: chain depth 2.
  const double cycles = slope(body, core::starting_config());
  EXPECT_LT(cycles, 4.0);
  EXPECT_GE(cycles, 1.9);
}

TEST(Timing, ForwardedLoadIsFast) {
  // store + dependent load of the same address: forwarding, not the
  // 2-cycle cache. Chain: sd (waits t0) -> ld (1 cy) -> addi.
  const std::string body =
      "  sd   t0, 0(gp)\n  ld   t1, 0(gp)\n  add  t0, t0, t1\n";
  const double forwarded = slope(body, core::starting_config());
  // The same chain through *different* addresses (no forwarding: cache).
  const std::string through_cache =
      "  sd   t0, 0(gp)\n  ld   t1, 64(gp)\n  add  t0, t0, t1\n";
  const double cached = slope(through_cache, core::starting_config());
  EXPECT_LE(forwarded, cached + 0.5);
}

TEST(Timing, CacheHitLatencyVisible) {
  // A genuinely loop-carried load: the next load's address depends on the
  // loaded value, so the L1 hit latency is on the critical path. A second
  // link of the chain per iteration adds one hit and its two ALU ops.
  const std::string link =
      "  ld   t1, 0(t3)\n"
      "  andi t0, t1, 0\n"   // always 0, but depends on the load
      "  add  t3, gp, t0\n"; // next address depends on t0
  const double one_link = slope(link, core::starting_config());
  const double two_links = slope(link + link, core::starting_config());
  const double hit_latency = core::CoreConfig::memory.dl1.hit_latency;
  EXPECT_NEAR(two_links - one_link, hit_latency + 2.0, 0.5);
}

TEST(Timing, MispredictPenaltyScales) {
  // Static predictors pin the loop back-edge: not-taken mispredicts it
  // every iteration, taken never does. Each misprediction costs the
  // redirect bubble of one cycle plus core::kMispredictPenalty, and three
  // more while the right path refills fetch, dispatch and issue.
  core::CoreConfig predicted = core::starting_config();
  predicted.predictor = branch::PredictorKind::kTaken;
  core::CoreConfig mispredicted = predicted;
  mispredicted.predictor = branch::PredictorKind::kNotTaken;
  const std::string body = "  addi t0, t0, 1\n";
  const double cost = slope(body, mispredicted) - slope(body, predicted);
  EXPECT_NEAR(cost, 1.0 + core::kMispredictPenalty + 3.0, 0.5);
}

TEST(Timing, UnpipelinedDivBlocksSecondDiv) {
  // Two independent divs, one divider: serialized by issue latency.
  const std::string body =
      "  div t2, t0, t1\n  div t3, t0, t1\n  addi t0, t0, 1\n";
  const double cycles = slope(body, core::starting_config());
  EXPECT_GT(cycles, 2.0 * core::kIntDivLatency - 6.0);
}

TEST(Timing, ReeseAddsNoLatencyOnIdleMachine) {
  // A long dependent chain leaves tons of idle capacity: REESE's cycles
  // should be within a few percent of baseline.
  std::string body;
  for (int i = 0; i < 8; ++i) body += "  addi t0, t0, 1\n";
  const double baseline = slope(body, core::starting_config());
  const double reese = slope(body, core::with_reese(core::starting_config()));
  EXPECT_LT(reese, baseline * 1.10);
}

}  // namespace
}  // namespace reese
