/// Jittered exponential backoff (common/backoff.h): deterministic growth,
/// one RNG draw per jittered delay, and the ceiling applied after jitter.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/backoff.h"

namespace pipes {
namespace {

TEST(BackoffTest, GrowthStartsAtInitialAndCapsAtMax) {
  EXPECT_EQ(GrowBackoff(0, 10, 2.0, 100), 10);
  EXPECT_EQ(GrowBackoff(0, 0, 2.0, 100), 1);  // floor 1
  EXPECT_EQ(GrowBackoff(10, 10, 2.0, 100), 20);
  EXPECT_EQ(GrowBackoff(80, 10, 2.0, 100), 100);
  EXPECT_EQ(GrowBackoff(100, 10, 2.0, 100), 100);
  EXPECT_EQ(GrowBackoff(10, 10, 0.5, 100), 10);  // never shrinks
}

TEST(BackoffTest, JitterDrawsOnceAndNeverExceedsTheCeiling) {
  Rng rng(42);
  Rng mirror(42);
  bool below = false;
  for (int i = 0; i < 1000; ++i) {
    Duration d = JitterBackoff(1000, 0.2, 1000, rng);
    double factor = mirror.UniformDouble(0.8, 1.2);
    Duration expected = std::min<Duration>(
        1000, static_cast<Duration>(1000.0 * factor));
    ASSERT_EQ(d, expected);
    ASSERT_LE(d, 1000);
    ASSERT_GE(d, 800);
    below = below || d < 1000;
  }
  EXPECT_TRUE(below);
}

TEST(BackoffTest, NoJitterDrawsNothing) {
  Rng rng(7);
  Rng mirror(7);
  EXPECT_EQ(JitterBackoff(1500, 0.0, 1000, rng), 1500);  // no cap either
  EXPECT_EQ(JitterBackoff(0, 0.5, 1000, rng), 1);
  EXPECT_EQ(rng.Next(), mirror.Next());
}

}  // namespace
}  // namespace pipes
