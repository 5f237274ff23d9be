// Parameterized property tests for the fluid model: fixed-point
// consistency across flow counts, integrator robustness (step-size
// convergence, delay handling), and conservation-style invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "fluid/fluid_model.h"
#include "fluid/sweep.h"

namespace dcqcn {
namespace {

FluidParams Deployment(int n) {
  return FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
}

// ---- fixed point properties across N ----

class FixedPointAcrossN : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointAcrossN, SolutionExistsAndIsInterior) {
  const FluidFixedPoint fp = SolveFixedPoint(Deployment(GetParam()));
  EXPECT_GT(fp.p, 0.0);
  EXPECT_LT(fp.p, 0.5);
  EXPECT_GT(fp.alpha, 0.0);
  EXPECT_LE(fp.alpha, 1.0);
  EXPECT_GT(fp.queue_bytes, 5e3);  // above Kmin
  EXPECT_LE(fp.queue_bytes, 200e3 + 1);
}

TEST_P(FixedPointAcrossN, TargetRateAboveFairShare) {
  // R_T sits above R_C at the fixed point (it is where fast recovery aims).
  const int n = GetParam();
  const FluidParams p = Deployment(n);
  const FluidFixedPoint fp = SolveFixedPoint(p);
  EXPECT_GE(fp.rt_pps, p.capacity_pps / n);
}

TEST_P(FixedPointAcrossN, SimulationConvergesToFixedPointQueue) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP() << "one flow at line rate never builds queue";
  if (n > 8) GTEST_SKIP() << "above Pmax: limit cycle, not a fixed point";
  const FluidParams p = Deployment(n);
  const FluidFixedPoint fp = SolveFixedPoint(p);
  FluidModel m(p);
  for (int i = 0; i < n; ++i) m.StartFlow(i);
  m.RunUntil(0.3);
  EXPECT_NEAR(m.queue_bytes(), fp.queue_bytes, fp.queue_bytes * 0.8);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(m.flow(i).rc, p.capacity_pps / n, p.capacity_pps / n * 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, FixedPointAcrossN,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

// ---- integrator robustness ----

TEST(FluidIntegrator, HalvingDtChangesLittle) {
  const FluidParams p = Deployment(2);
  auto solve = [&](double dt) {
    FluidModel m(p, dt);
    m.StartFlow(0);
    m.StartFlow(1, p.line_rate_pps / 8);
    m.RunUntil(0.05);
    return m.FlowRateGbps(0) + m.FlowRateGbps(1);
  };
  const double coarse = solve(1e-6);
  const double fine = solve(2.5e-7);
  EXPECT_NEAR(coarse, fine, std::max(2.0, 0.1 * fine));
}

TEST(FluidIntegrator, HistoryDelayIsRespected) {
  // Queue changes cannot affect rates sooner than tau*: start one flow at
  // 2x capacity; its rate must stay untouched for at least tau* seconds
  // (no marking feedback has arrived yet).
  FluidParams p = Deployment(1);
  FluidModel m(p);
  m.StartFlow(0, p.capacity_pps);  // exactly capacity: queue stays ~0
  m.RunUntil(p.tau_star * 0.9);
  EXPECT_NEAR(m.flow(0).rc, p.capacity_pps, p.capacity_pps * 1e-6);
}

TEST(FluidIntegrator, InactiveFlowsContributeNothing) {
  FluidParams p = Deployment(4);
  FluidModel m(p);
  m.StartFlow(0);
  m.RunUntil(0.01);
  EXPECT_DOUBLE_EQ(m.TotalRatePps(), m.flow(0).rc);
  EXPECT_FALSE(m.flow(3).active);
}

TEST(FluidIntegrator, LateStartersGetFairShareEventually) {
  FluidParams p = Deployment(4);
  FluidModel m(p);
  m.StartFlow(0);
  m.StartFlowAt(1, 0.02);
  m.StartFlowAt(2, 0.04);
  m.StartFlowAt(3, 0.06);
  m.RunUntil(0.35);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(m.FlowRateGbps(i), 10.0, 3.5) << "flow " << i;
  }
}

// ---- convergence metric sanity across parameter variants ----

struct SweepCase {
  double timer_us;
  double byte_counter_kb;
  bool expect_convergence;
};

// Without this gtest prints a SweepCase as its raw bytes, tail padding
// included, so the discovered ctest names would differ between builds.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "timer=" << c.timer_us << "us,B=" << c.byte_counter_kb << "KB,"
      << (c.expect_convergence ? "converges" : "diverges");
}

class ConvergenceCases : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConvergenceCases, MatchesFig11Regions) {
  const SweepCase c = GetParam();
  FluidParams p = FluidParams::FromDcqcn(DcqcnParams::Strawman(), Gbps(40), 2);
  p.timer_seconds = c.timer_us * 1e-6;
  p.byte_counter_packets = c.byte_counter_kb * 1000 / kMtu;
  const ConvergenceResult r = TwoFlowConvergence(p);
  if (c.expect_convergence) {
    EXPECT_LT(r.mean_abs_diff_gbps, 6.0);
  } else {
    EXPECT_GT(r.mean_abs_diff_gbps, 12.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig11, ConvergenceCases,
    ::testing::Values(SweepCase{1500, 150, false},    // strawman
                      SweepCase{55, 10000, true},     // deployed timer
                      SweepCase{55, 150, true},       // fast timer alone
                      SweepCase{1500, 10000, false},  // slow timer, big B
                      SweepCase{150, 10000, true}));

TEST(ConvergenceMetric, SeriesCoversMeasurementWindow) {
  const ConvergenceResult r = TwoFlowConvergence(Deployment(2), 0.05, 0.025);
  EXPECT_GT(r.diff_series.points.size(), 40u);
  EXPECT_GE(r.mean_abs_diff_gbps, 0.0);
  EXPECT_GE(r.mean_queue_bytes, 0.0);
}

}  // namespace
}  // namespace dcqcn
