#include "ssd/flash.hpp"

#include <gtest/gtest.h>

namespace edc::ssd {
namespace {

SsdGeometry SmallGeometry() {
  SsdGeometry g;
  g.pages_per_block = 4;
  g.num_blocks = 8;
  return g;
}

Bytes Payload(u8 fill) { return Bytes(128, fill); }

TEST(FlashArray, ProgramReadRoundTrip) {
  FlashArray flash(SmallGeometry(), true);
  ASSERT_TRUE(flash.Program(0, Payload(0xAB)).ok());
  auto data = flash.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Payload(0xAB));
  EXPECT_EQ(flash.page_state(0), PageState::kValid);
}

TEST(FlashArray, ProgramRequiresFreePage) {
  FlashArray flash(SmallGeometry(), true);
  ASSERT_TRUE(flash.Program(0, Payload(1)).ok());
  EXPECT_FALSE(flash.Program(0, Payload(2)).ok());  // no in-place update
}

TEST(FlashArray, InBlockProgramOrderEnforced) {
  FlashArray flash(SmallGeometry(), true);
  // Page 1 before page 0 in block 0 must fail.
  EXPECT_FALSE(flash.Program(1, Payload(1)).ok());
  ASSERT_TRUE(flash.Program(0, Payload(1)).ok());
  EXPECT_TRUE(flash.Program(1, Payload(2)).ok());
}

TEST(FlashArray, ReadOfFreePageFails) {
  FlashArray flash(SmallGeometry(), true);
  EXPECT_FALSE(flash.Read(0).ok());
}

TEST(FlashArray, InvalidateAndEraseLifecycle) {
  FlashArray flash(SmallGeometry(), true);
  for (u32 p = 0; p < 4; ++p) {
    ASSERT_TRUE(flash.Program(p, Payload(static_cast<u8>(p))).ok());
  }
  ASSERT_TRUE(flash.Program(4, Payload(7)).ok());  // block 1, page 0
  EXPECT_EQ(flash.valid_pages(0), 4u);
  // Cannot erase while valid pages remain.
  EXPECT_FALSE(flash.EraseBlock(0).ok());
  for (u32 p = 0; p < 4; ++p) {
    ASSERT_TRUE(flash.Invalidate(p).ok());
  }
  EXPECT_EQ(flash.valid_pages(0), 0u);
  // Invalid pages keep their bytes until the block is erased.
  EXPECT_EQ(*flash.Read(2), Payload(2));
  ASSERT_TRUE(flash.EraseBlock(0).ok());
  EXPECT_EQ(flash.erase_count(0), 1u);
  EXPECT_EQ(flash.page_state(0), PageState::kFree);
  EXPECT_EQ(flash.write_pointer(0), 0u);
  EXPECT_FALSE(flash.Read(2).ok());
  // Reprogrammable after erase; other blocks keep their bytes.
  EXPECT_TRUE(flash.Program(0, Payload(9)).ok());
  EXPECT_EQ(*flash.Read(0), Payload(9));
  EXPECT_EQ(*flash.Read(4), Payload(7));
}

TEST(FlashArray, DoubleInvalidateFails) {
  FlashArray flash(SmallGeometry(), true);
  ASSERT_TRUE(flash.Program(0, Payload(1)).ok());
  ASSERT_TRUE(flash.Invalidate(0).ok());
  EXPECT_FALSE(flash.Invalidate(0).ok());
}

TEST(FlashArray, OutOfRangeOperationsFail) {
  FlashArray flash(SmallGeometry(), true);
  Ppa beyond = SmallGeometry().raw_pages();
  EXPECT_FALSE(flash.Program(beyond, Payload(1)).ok());
  EXPECT_FALSE(flash.Read(beyond).ok());
  EXPECT_FALSE(flash.Invalidate(beyond).ok());
  EXPECT_FALSE(flash.EraseBlock(SmallGeometry().num_blocks).ok());
}

TEST(FlashArray, OversizedPayloadRejected) {
  FlashArray flash(SmallGeometry(), true);
  Bytes big(SmallGeometry().page_size + 1, 0);
  EXPECT_FALSE(flash.Program(0, big).ok());
}

TEST(FlashArray, WearCountersAccumulate) {
  FlashArray flash(SmallGeometry(), false);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (u32 p = 0; p < 4; ++p) {
      ASSERT_TRUE(flash.Program(p, {}).ok());
    }
    for (u32 p = 0; p < 4; ++p) {
      ASSERT_TRUE(flash.Invalidate(p).ok());
    }
    ASSERT_TRUE(flash.EraseBlock(0).ok());
  }
  EXPECT_EQ(flash.erase_count(0), 3u);
  EXPECT_EQ(flash.max_erase_count(), 3u);
  EXPECT_NEAR(flash.mean_erase_count(), 3.0 / 8.0, 1e-9);
  EXPECT_EQ(flash.total_programs(), 12u);
  EXPECT_EQ(flash.total_erases(), 3u);
}

TEST(FlashArray, AddressHelpers) {
  FlashArray flash(SmallGeometry(), false);
  EXPECT_EQ(flash.block_of(0), 0u);
  EXPECT_EQ(flash.block_of(5), 1u);
  EXPECT_EQ(flash.page_in_block(5), 1u);
  EXPECT_EQ(flash.ppa_of(1, 1), 5u);
}

TEST(FlashArray, GeometryMath) {
  SsdGeometry g = SmallGeometry();
  EXPECT_EQ(g.raw_pages(), 32u);
  EXPECT_EQ(g.raw_bytes(), 32u * 4096);
  EXPECT_EQ(g.logical_pages(), 28u);  // 12.5% OP
}

}  // namespace
}  // namespace edc::ssd
