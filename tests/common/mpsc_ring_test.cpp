// MpscRing: bounded lock-free submission fabric of the sharded engine.
// Unit coverage for the ring discipline (FIFO, full/empty, wraparound,
// move-only payloads) plus a multi-producer stress test that the TSan CI
// leg runs to validate the memory ordering.
#include "common/mpsc_ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace edc {
namespace {

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(1000).capacity(), 1024u);
}

TEST(MpscRing, SingleProducerFifo) {
  MpscRing<int> ring(128);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ring.TryPush(int(i)));
  for (int i = 0; i < 100; ++i) {
    int v = -1;
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpscRing, FullRingRejectsPush) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(int(i)));
  EXPECT_FALSE(ring.TryPush(99));
  int v;
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.TryPush(4));  // slot freed, push succeeds again
  EXPECT_EQ(ring.SizeApprox(), 4u);
}

TEST(MpscRing, WrapsAroundManyLaps) {
  MpscRing<int> ring(8);
  int next_out = 0;
  for (int lap = 0; lap < 100; ++lap) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.TryPush(lap * 5 + i));
    }
    for (int i = 0; i < 5; ++i) {
      int v = -1;
      ASSERT_TRUE(ring.TryPop(&v));
      EXPECT_EQ(v, next_out++);
    }
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(MpscRing, MoveOnlyPayload) {
  MpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

// Multi-producer correctness under real contention: N producers tag each
// value with (producer, sequence); the consumer asserts no loss, no
// duplication, and per-producer FIFO — the exact property the sharded
// dispatcher relies on. Run under TSan in CI (tsan job gtest filter).
TEST(MpscRingStress, MultiProducerFifoPerProducer) {
  struct Tagged {
    int producer = -1;
    int seq = -1;
  };
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscRing<Tagged> ring(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Tagged t{p, i};
        while (!ring.TryPush(std::move(t))) {
          t = Tagged{p, i};  // moved-from on failed claim races only
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<int> next_seq(kProducers, 0);
  int popped = 0;
  while (popped < kProducers * kPerProducer) {
    Tagged t;
    if (!ring.TryPop(&t)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_GE(t.producer, 0);
    ASSERT_LT(t.producer, kProducers);
    const auto producer = static_cast<std::size_t>(t.producer);
    // Per-producer FIFO: each producer's values appear in push order.
    ASSERT_EQ(t.seq, next_seq[producer]);
    ++next_seq[producer];
    ++popped;
  }
  for (auto& th : producers) th.join();
  for (int seq : next_seq) EXPECT_EQ(seq, kPerProducer);
  Tagged t;
  EXPECT_FALSE(ring.TryPop(&t));
}

}  // namespace
}  // namespace edc
