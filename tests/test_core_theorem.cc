// Property tests for Theorem 1: for strictly concave per-flow power, the
// fair allocation maximizes total power (is the least energy-efficient).

#include "core/theorem.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "energy/power_model.h"
#include "sim/rng.h"

namespace greencc::core {
namespace {

TEST(Theorem1, TotalPowerSums) {
  const auto p = [](double x) { return 2.0 * x + 1.0; };
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Theorem1::total_power(xs, p), 2.0 * 6.0 + 3.0);
}

TEST(Theorem1, FairPower) {
  const auto p = [](double x) { return std::sqrt(x); };
  EXPECT_DOUBLE_EQ(Theorem1::fair_power(8.0, 2, p), 4.0);
  EXPECT_THROW(Theorem1::fair_power(8.0, 0, p), std::invalid_argument);
}

TEST(Theorem1, ConcavityChecker) {
  EXPECT_TRUE(Theorem1::is_strictly_concave(
      10.0, [](double x) { return std::sqrt(x); }));
  EXPECT_FALSE(
      Theorem1::is_strictly_concave(10.0, [](double x) { return x * x; }));
  EXPECT_FALSE(
      Theorem1::is_strictly_concave(10.0, [](double x) { return 3.0 * x; }));
}

// A family of strictly concave power functions; the theorem must hold on
// every one with zero violations across random allocations.
double sqrt_p(double x) { return 5.0 + std::sqrt(x); }
double log_p(double x) { return 2.0 + std::log1p(x); }
double saturating_p(double x) { return 21.49 + 13.0 * (1.0 - std::exp(-x / 2.0)); }
double power_law_p(double x) { return 1.0 + std::pow(x, 0.7); }
double mixed_p(double x) { return 4.0 + 2.0 * std::sqrt(x) + 0.5 * std::log1p(x); }

// The parameter holds only the family's name, inline. gtest prints the
// parameter's raw bytes into every test name, so a pointer member (to the
// name or to the function) would put ASLR-randomised load addresses into
// the names and make them differ from one build to the next.
struct ConcaveCase {
  char name[16];
};

using PowerFn = double (*)(double);

PowerFn power_fn(const ConcaveCase& c) {
  static const std::map<std::string, PowerFn> kFamilies = {
      {"sqrt", sqrt_p},
      {"log", log_p},
      {"saturating", saturating_p},
      {"power_law", power_law_p},
      {"mixed", mixed_p}};
  return kFamilies.at(c.name);
}

class TheoremHolds : public ::testing::TestWithParam<ConcaveCase> {};

TEST_P(TheoremHolds, FairAllocationIsWorstOnRandomAllocations) {
  sim::Rng rng(1234);
  for (int flows : {2, 3, 5, 10}) {
    EXPECT_EQ(
        Theorem1::count_violations(10.0, flows, power_fn(GetParam()), 500, rng),
        0)
        << GetParam().name << " flows=" << flows;
  }
}

TEST_P(TheoremHolds, IsStrictlyConcave) {
  EXPECT_TRUE(Theorem1::is_strictly_concave(10.0, power_fn(GetParam())))
      << GetParam().name;
}

TEST_P(TheoremHolds, FsiSavingsPositive) {
  for (int flows : {2, 3, 4, 8}) {
    EXPECT_GT(Theorem1::fsi_savings(10.0, flows, power_fn(GetParam())), 0.0)
        << GetParam().name << " flows=" << flows;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConcaveFamily, TheoremHolds,
    ::testing::Values(ConcaveCase{"sqrt"}, ConcaveCase{"log"},
                      ConcaveCase{"saturating"}, ConcaveCase{"power_law"},
                      ConcaveCase{"mixed"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Theorem1, ConvexPowerReversesTheConclusion) {
  // With convex p, fairness is optimal: random allocations should *exceed*
  // the fair power, i.e. every sample is a "violation".
  sim::Rng rng(99);
  const int violations = Theorem1::count_violations(
      10.0, 4, [](double x) { return x * x; }, 200, rng);
  EXPECT_EQ(violations, 200);
}

TEST(Theorem1, LinearPowerIsAllocationInvariant) {
  // P(x) = sum(a*x_i + b) depends only on sum(x) = C: every allocation ties
  // the fair one (within tolerance), so all samples count as violations of
  // the *strict* inequality.
  sim::Rng rng(7);
  const int violations = Theorem1::count_violations(
      10.0, 4, [](double x) { return 3.0 * x + 1.0; }, 100, rng, 1e-6);
  EXPECT_EQ(violations, 100);
}

TEST(Theorem1, CalibratedModelSatisfiesHypothesis) {
  // The calibrated Fig 2 curve is strictly concave, so Theorem 1 applies to
  // the paper's own testbed model.
  energy::PackagePowerModel model;
  const energy::PowerCalibration calib;
  const auto p = [&](double x) {
    return model
        .single_flow_watts(units::BitRate::gbps(x), calib.fig2_util_per_gbps,
                           calib.fig2_pps_per_gbps)
        .watts();
  };
  EXPECT_TRUE(Theorem1::is_strictly_concave(10.0, p));
  sim::Rng rng(5);
  EXPECT_EQ(Theorem1::count_violations(10.0, 2, p, 1000, rng), 0);
  // And the two-flow FSI saving is the paper's 16%.
  EXPECT_NEAR(Theorem1::fsi_savings(10.0, 2, p), 0.163, 0.01);
}

TEST(Theorem1, FsiSavingsMatchClosedForm) {
  // For n = 2: savings = 1 - (p(C) + p(0)) / (2 p(C/2)).
  const auto p = saturating_p;
  const double expected = 1.0 - (p(10.0) + p(0.0)) / (2.0 * p(5.0));
  EXPECT_NEAR(Theorem1::fsi_savings(10.0, 2, p), expected, 1e-12);
}

}  // namespace
}  // namespace greencc::core
