// Functional-unit pool tests: arbitration, pipelined vs unpipelined issue,
// utilization accounting, and the op-timing table.
#include <gtest/gtest.h>

#include "core/fu_pool.h"

namespace reese::core {
namespace {

TEST(FuPool, CountsMatchConfig) {
  const CoreConfig config = starting_config();
  FuPool pool(config);
  EXPECT_EQ(pool.unit_count(FuKind::kIntAlu), 4u);
  EXPECT_EQ(pool.unit_count(FuKind::kIntMult), 1u);
  EXPECT_EQ(pool.unit_count(FuKind::kFpAlu), 4u);
  EXPECT_EQ(pool.unit_count(FuKind::kFpMult), 1u);
  EXPECT_EQ(pool.unit_count(FuKind::kMemPort), 2u);
}

TEST(FuPool, ExhaustsUnitsWithinCycle) {
  FuPool pool(starting_config());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.try_acquire(FuKind::kIntAlu, 10, 1));
  }
  EXPECT_FALSE(pool.try_acquire(FuKind::kIntAlu, 10, 1));
  // Next cycle they are free again (pipelined, issue latency 1).
  EXPECT_TRUE(pool.try_acquire(FuKind::kIntAlu, 11, 1));
}

TEST(FuPool, UnpipelinedBlocksForIssueLatency) {
  FuPool pool(starting_config());
  EXPECT_TRUE(pool.try_acquire(FuKind::kIntMult, 0, 20));
  for (Cycle c = 1; c < 20; ++c) {
    EXPECT_FALSE(pool.try_acquire(FuKind::kIntMult, c, 1)) << c;
  }
  EXPECT_TRUE(pool.try_acquire(FuKind::kIntMult, 20, 1));
}

TEST(FuPool, UtilizationMath) {
  FuPool pool(starting_config());
  // 8 ALU ops over 4 cycles on 4 units: 8 / (4*4) = 50%.
  for (Cycle c = 0; c < 4; ++c) {
    pool.try_acquire(FuKind::kIntAlu, c, 1);
    pool.try_acquire(FuKind::kIntAlu, c, 1);
  }
  EXPECT_DOUBLE_EQ(pool.utilization(FuKind::kIntAlu, 4), 0.5);
  EXPECT_DOUBLE_EQ(pool.utilization(FuKind::kIntAlu, 0), 0.0);
}

TEST(OpTiming, TableValues) {
  EXPECT_EQ(op_timing(isa::ExecClass::kIntAlu).result_latency, 1u);
  EXPECT_EQ(op_timing(isa::ExecClass::kIntMul).result_latency, 3u);
  EXPECT_EQ(op_timing(isa::ExecClass::kIntMul).issue_latency, 1u);
  EXPECT_EQ(op_timing(isa::ExecClass::kIntDiv).result_latency, 20u);
  EXPECT_EQ(op_timing(isa::ExecClass::kIntDiv).issue_latency, 20u);
  EXPECT_EQ(op_timing(isa::ExecClass::kFpAdd).fu, FuKind::kFpAlu);
  EXPECT_EQ(op_timing(isa::ExecClass::kFpSqrt).result_latency, 24u);
  EXPECT_EQ(op_timing(isa::ExecClass::kLoad).fu, FuKind::kMemPort);
}

TEST(FuPool, KindNames) {
  EXPECT_STREQ(fu_kind_name(FuKind::kIntAlu), "int-alu");
  EXPECT_STREQ(fu_kind_name(FuKind::kMemPort), "mem-port");
}

}  // namespace
}  // namespace reese::core
