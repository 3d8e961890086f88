// Branch-prediction tests: gshare must learn the patterns it is designed
// for; BTB and RAS must behave as tagged structures with repair.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "branch/predictor.h"
#include "common/rng.h"

namespace reese::branch {
namespace {

/// Run `pattern(i)` outcomes through `predictor` at a fixed PC; return the
/// accuracy over the last half (after warmup).
double accuracy(GsharePredictor& predictor, Addr pc, usize trials,
                const std::function<bool(usize)>& pattern) {
  usize correct = 0;
  usize measured = 0;
  for (usize i = 0; i < trials; ++i) {
    const bool actual = pattern(i);
    const BranchPrediction prediction = predictor.predict(pc);
    if (i >= trials / 2) {
      ++measured;
      if (prediction.taken == actual) ++correct;
    }
    predictor.update(pc, actual, prediction.meta);
    // Mirror the pipeline contract: a misprediction rewinds speculative
    // global history and shifts in the actual outcome.
    if (prediction.taken != actual) predictor.repair(prediction.meta, actual);
  }
  return static_cast<double>(correct) / static_cast<double>(measured);
}

TEST(Gshare, LearnsAlternation) {
  GsharePredictor predictor(12);
  const double acc =
      accuracy(predictor, 0x1000, 800, [](usize i) { return i % 2 == 0; });
  EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsShortPeriodicPatterns) {
  for (usize period : {3u, 4u, 5u, 7u}) {
    GsharePredictor predictor(12);
    const double acc = accuracy(predictor, 0x2000, 2000, [period](usize i) {
      return (i % period) == 0;
    });
    EXPECT_GT(acc, 0.90) << "period " << period;
  }
}

TEST(Gshare, RandomIsHard) {
  GsharePredictor predictor(12);
  SplitMix64 rng(3);
  std::vector<bool> outcomes;
  for (int i = 0; i < 2000; ++i) outcomes.push_back((rng.next() & 1) != 0);
  const double acc = accuracy(predictor, 0x3000, outcomes.size(),
                              [&](usize i) { return outcomes[i]; });
  EXPECT_LT(acc, 0.65);
}

TEST(Gshare, RepairRewindsHistory) {
  GsharePredictor predictor(8);
  // Drive some history in.
  for (int i = 0; i < 10; ++i) {
    const BranchPrediction p = predictor.predict(0x1000);
    predictor.update(0x1000, true, p.meta);
  }
  const u64 before = predictor.history();
  const BranchPrediction p = predictor.predict(0x1000);  // speculative shift
  EXPECT_NE(predictor.history(), before);
  // Mispredicted: repair with the actual outcome.
  predictor.repair(p.meta, !p.taken);
  const u64 expected = ((before << 1) | (p.taken ? 0 : 1)) & 0xFF;
  EXPECT_EQ(predictor.history(), expected);
}

// --- BTB -----------------------------------------------------------------------

TEST(BtbTest, MissThenHit) {
  Btb btb(64, 4);
  Addr target = 0;
  EXPECT_FALSE(btb.lookup(0x1000, &target));
  btb.update(0x1000, 0x2000);
  ASSERT_TRUE(btb.lookup(0x1000, &target));
  EXPECT_EQ(target, 0x2000u);
}

TEST(BtbTest, UpdateOverwritesTarget) {
  Btb btb(64, 4);
  btb.update(0x1000, 0x2000);
  btb.update(0x1000, 0x3000);
  Addr target = 0;
  ASSERT_TRUE(btb.lookup(0x1000, &target));
  EXPECT_EQ(target, 0x3000u);
}

TEST(BtbTest, TagsDistinguishAliases) {
  Btb btb(16, 1);  // 16 sets, direct-mapped
  btb.update(0x1000, 0xAAAA);
  // Same set (stride 16*4), different tag.
  btb.update(0x1000 + 16 * 4, 0xBBBB);
  Addr target = 0;
  EXPECT_FALSE(btb.lookup(0x1000, &target));  // evicted
  ASSERT_TRUE(btb.lookup(0x1000 + 16 * 4, &target));
  EXPECT_EQ(target, 0xBBBBu);
}

TEST(BtbTest, LruWithinSet) {
  Btb btb(4, 2);  // 2 sets, 2 ways
  btb.update(0x1000, 1);             // set 0
  btb.update(0x1000 + 8, 2);         // set 0 (stride 2 sets * 4 = 8)
  Addr target = 0;
  btb.lookup(0x1000, &target);       // touch first
  btb.update(0x1000 + 16, 3);        // set 0, evicts LRU = second
  EXPECT_TRUE(btb.lookup(0x1000, &target));
  EXPECT_FALSE(btb.lookup(0x1000 + 8, &target));
}

// --- RAS -----------------------------------------------------------------------

TEST(Ras, PushPopLifo) {
  ReturnAddressStack ras(8);
  ras.push(0x100);
  ras.push(0x200);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, WrapsAtDepth) {
  ReturnAddressStack ras(2);
  ras.push(1);
  ras.push(2);
  ras.push(3);  // overwrites 1
  EXPECT_EQ(ras.pop(), 3u);
  EXPECT_EQ(ras.pop(), 2u);
  EXPECT_EQ(ras.pop(), 3u);  // wrapped back around
}

TEST(Ras, CheckpointRepairsSingleAction) {
  ReturnAddressStack ras(8);
  ras.push(0x100);
  const auto checkpoint = ras.checkpoint();
  ras.push(0x999);  // wrong-path push
  ras.restore(checkpoint);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, CheckpointRepairsWrongPathPop) {
  ReturnAddressStack ras(8);
  ras.push(0x100);
  ras.push(0x200);
  const auto checkpoint = ras.checkpoint();
  (void)ras.pop();  // wrong-path pop
  ras.restore(checkpoint);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

}  // namespace
}  // namespace reese::branch
