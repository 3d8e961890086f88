// Unit tests for the core's supporting structures: the Ring behind the
// fetch queue, RUU, LSQ and R-stream Queue, and the speculative
// data-memory overlay.
#include <gtest/gtest.h>

#include "core/ring.h"
#include "core/spec_overlay.h"

namespace reese::core {
namespace {

// --- Ring --------------------------------------------------------------------

TEST(Ring, FifoOrder) {
  Ring<u64> ring(4);
  for (u64 i = 0; i < 3; ++i) ring.push_back() = 100 + i;
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.front(), 100u);
  ring.pop_front();
  EXPECT_EQ(ring.front(), 101u);
}

TEST(Ring, FullAndEmpty) {
  Ring<u64> ring(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  ring.push_back();
  ring.push_back();
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.capacity(), 2u);
  ring.pop_front();
  EXPECT_FALSE(ring.full());
}

TEST(Ring, SlotsSurvivePopsAndWrap) {
  // A physical slot names the same element from its push to its pop, even
  // as the head wraps past the end of the array (capacity 3, not a power
  // of two).
  Ring<u64> ring(3);
  for (u64 round = 0; round < 5; ++round) {
    const u32 slot = ring.slot_at(ring.size());
    ring.push_back() = 40 + round;
    ring.push_back() = 50 + round;
    EXPECT_EQ(ring[slot], 40 + round);
    ring.pop_front();
    EXPECT_EQ(ring[ring.head()], 50 + round);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, IndexAccessIsProgramOrder) {
  Ring<u64> ring(5);
  for (u64 i = 0; i < 5; ++i) ring.push_back() = i;
  ring.pop_front();
  ring.pop_front();
  ring.push_back() = 5;  // wraps into slot 0
  ring.pop_back();       // a squash takes the youngest back
  ring.push_back() = 5;
  for (u32 i = 0; i < ring.size(); ++i) EXPECT_EQ(ring.at(i), i + 2u);
}

// --- SpecOverlay -------------------------------------------------------------

TEST(SpecOverlay, ReadsThroughToBacking) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 0xABCD);
  SpecOverlay overlay(&memory);
  EXPECT_EQ(overlay.load(0x1000, 8), 0xABCDu);
}

TEST(SpecOverlay, WritesStayInOverlay) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 1);
  SpecOverlay overlay(&memory);
  overlay.store(0x1000, 8, 999);
  EXPECT_EQ(overlay.load(0x1000, 8), 999u);
  EXPECT_EQ(memory.load(0x1000, 8), 1u) << "backing must stay clean";
}

TEST(SpecOverlay, PartialOverlapMerges) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 0x1111111111111111ULL);
  SpecOverlay overlay(&memory);
  overlay.store(0x1002, 2, 0xABCD);  // overwrite bytes 2..3 only
  EXPECT_EQ(overlay.load(0x1000, 8), 0x11111111ABCD1111ULL);
}

TEST(SpecOverlay, ClearDiscardsEverything) {
  mem::MainMemory memory;
  SpecOverlay overlay(&memory);
  overlay.store(0x2000, 8, 7);
  EXPECT_EQ(overlay.dirty_bytes(), 8u);
  overlay.clear();
  EXPECT_EQ(overlay.dirty_bytes(), 0u);
  EXPECT_EQ(overlay.load(0x2000, 8), 0u);
}

TEST(SpecOverlay, ByteGranularity) {
  mem::MainMemory memory;
  SpecOverlay overlay(&memory);
  overlay.store(0x3000, 1, 0xAA);
  overlay.store(0x3007, 1, 0xBB);
  EXPECT_EQ(overlay.load(0x3000, 8), 0xBB000000000000AAULL);
}

}  // namespace
}  // namespace reese::core
