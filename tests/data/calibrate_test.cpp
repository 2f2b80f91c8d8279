#include "data/calibrate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "data/generators.hpp"

namespace fasted::data {
namespace {

TEST(Calibrate, HitsTargetSelectivityOnUniform) {
  const auto m = uniform(2000, 8, 11);
  for (double target : {16.0, 64.0}) {
    const auto cal = calibrate_epsilon(m, target);
    const double achieved = exact_selectivity(m, cal.eps);
    EXPECT_NEAR(achieved, target, target * 0.30)
        << "target " << target << " eps " << cal.eps;
  }
}

TEST(Calibrate, HitsTargetOnClusteredData) {
  const auto m = tiny_like(1500, 7);
  const auto cal = calibrate_epsilon(m, 64.0);
  const double achieved = exact_selectivity(m, cal.eps);
  EXPECT_NEAR(achieved, 64.0, 64.0 * 0.35);
}

TEST(Calibrate, EpsilonGrowsWithSelectivity) {
  const auto m = uniform(1000, 16, 13);
  const float e64 = calibrate_epsilon(m, 64).eps;
  const float e128 = calibrate_epsilon(m, 128).eps;
  const float e256 = calibrate_epsilon(m, 256).eps;
  EXPECT_LT(e64, e128);
  EXPECT_LT(e128, e256);
}

TEST(Calibrate, AchievedSelectivityReported) {
  const auto m = uniform(800, 8, 17);
  const auto cal = calibrate_epsilon(m, 32.0);
  EXPECT_NEAR(cal.achieved_selectivity, 32.0, 16.0);
}

TEST(Calibrate, RejectsDegenerateInputs) {
  MatrixF32 one(1, 4);
  EXPECT_THROW(calibrate_epsilon(one, 64), CheckError);
  const auto m = uniform(10, 4, 1);
  EXPECT_THROW(calibrate_epsilon(m, 0.0), CheckError);
}

TEST(ExactSelectivity, CountsNeighborsExcludingSelf) {
  // Three collinear points at distance 1 apart.
  MatrixF32 m(3, 2);
  m.at(1, 0) = 1.0f;
  m.at(2, 0) = 2.0f;
  // eps = 1.1: ends have 1 neighbor, middle has 2 -> S = 4/3.
  EXPECT_NEAR(exact_selectivity(m, 1.1f), 4.0 / 3.0, 1e-12);
  // eps = 2.5: everyone sees everyone -> S = 2.
  EXPECT_NEAR(exact_selectivity(m, 2.5f), 2.0, 1e-12);
  // eps tiny: S = 0.
  EXPECT_NEAR(exact_selectivity(m, 0.01f), 0.0, 1e-12);
}

TEST(Calibrate, DeterministicForSeed) {
  const auto m = uniform(500, 8, 19);
  EXPECT_EQ(calibrate_epsilon(m, 32, 7).eps, calibrate_epsilon(m, 32, 7).eps);
}

// The calibrated radius is pinned bit for bit: the sampling, the FP64
// distances and the selected quantile must not drift when the distance
// buffer's allocation or fill changes.  The constants are the radii the
// value-initialized-buffer implementation returned.
TEST(Calibrate, RadiusIsBitIdenticalToPinnedValues) {
  struct Case {
    const char* name;
    MatrixF32 data;
    double target;
    std::uint32_t eps_bits;
    double achieved;  // exactly representable sample selectivities
  };
  const Case cases[] = {
      {"uniform S=8", uniform(3000, 24, 1234), 8.0, 0x3fa7b2f4u, 8.0},
      {"uniform S=64", uniform(3000, 24, 1234), 64.0, 0x3fbf74dfu, 64.0},
      {"sift_like S=8", sift_like(2048, 9), 8.0, 0x4481d3b9u, 8.0078125},
      {"sift_like S=64", sift_like(2048, 9), 64.0, 0x44921b21u, 64.0078125},
  };
  for (const Case& c : cases) {
    const auto cal = calibrate_epsilon(c.data, c.target, 77, 128);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(cal.eps), c.eps_bits) << c.name;
    EXPECT_EQ(cal.achieved_selectivity, c.achieved) << c.name;
  }
}

}  // namespace
}  // namespace fasted::data
