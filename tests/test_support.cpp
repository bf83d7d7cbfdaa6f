// Unit tests for the support substrate: contract checks, deterministic RNG,
// and the stopwatch helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace mg::support;

// ---- contract macros -------------------------------------------------------

TEST(Check, RequirePassesOnTrue) { EXPECT_NO_THROW(MG_REQUIRE(1 + 1 == 2)); }

TEST(Check, RequireThrowsOnFalse) { EXPECT_THROW(MG_REQUIRE(1 == 2), ContractViolation); }

TEST(Check, RequireMessageIsIncluded) {
  try {
    MG_REQUIRE_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

TEST(Check, ViolationMentionsFileAndExpression) {
  try {
    MG_ASSERT(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

// ---- SplitMix64 / Xoshiro256 ------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Xoshiro256 rng(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Xoshiro256 rng(5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
  for (auto v : seen) EXPECT_LT(v, 7u);
}

TEST(Rng, BelowZeroIsRejected) {
  Xoshiro256 rng(17);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Xoshiro256 rng(31);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Xoshiro256 parent(11);
  Xoshiro256 child1 = parent.split();
  Xoshiro256 child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.next() == child2.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, DeriveSeedsAreDistinct) {
  const auto seeds = derive_seeds(1234, 64);
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_EQ(std::set<std::uint64_t>(seeds.begin(), seeds.end()).size(), 64u);
}

// ---- Stopwatch ----------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double t = sw.elapsed_seconds();
  EXPECT_GE(t, 0.025);
  EXPECT_LT(t, 5.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 0.015);
}

TEST(Stopwatch, MeanElapsedAveragesRuns) {
  int calls = 0;
  const double mean = mean_elapsed_seconds(5, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_GE(mean, 0.0);
}

// ---- Logging ------------------------------------------------------------------

TEST(Log, LevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(before);
}

TEST(Log, EmitBelowThresholdIsSilentlyDropped) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_NO_THROW(log_info("this should be dropped"));
  set_log_level(before);
}

}  // namespace
