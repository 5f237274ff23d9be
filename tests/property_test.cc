// Property-style parameterized sweeps over protocol invariants:
//  * RED curve monotonicity / bounds across configurations
//  * RP state machine invariants across a (g, F, R_AI) grid and random
//    event sequences
//  * §4 threshold monotonicity in buffer size / port count / beta
//  * ECMP hash uniformity
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <tuple>

#include "common/rng.h"
#include "core/red_ecn.h"
#include "core/rp.h"
#include "core/thresholds.h"
#include "net/packet.h"
#include "nic/flow.h"

namespace dcqcn {
namespace {

// ---------- RED curve properties ----------

class RedCurve : public ::testing::TestWithParam<std::tuple<int, int, double>> {
 protected:
  RedEcnConfig Config() const {
    RedEcnConfig c;
    c.enabled = true;
    c.kmin = std::get<0>(GetParam()) * kKB;
    c.kmax = std::get<1>(GetParam()) * kKB;
    c.pmax = std::get<2>(GetParam());
    return c;
  }
};

TEST_P(RedCurve, MonotoneNondecreasingInQueue) {
  const RedEcnConfig c = Config();
  double prev = -1;
  for (Bytes q = 0; q <= c.kmax + 50 * kKB; q += 1 * kKB) {
    const double p = RedMarkProbability(c, q);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST_P(RedCurve, ZeroAtOrBelowKminOneAboveKmax) {
  const RedEcnConfig c = Config();
  EXPECT_EQ(RedMarkProbability(c, 0), 0.0);
  EXPECT_EQ(RedMarkProbability(c, c.kmin), 0.0);
  EXPECT_EQ(RedMarkProbability(c, c.kmax + 1), 1.0);
}

TEST_P(RedCurve, AtMostPmaxWithinTheRamp) {
  const RedEcnConfig c = Config();
  for (Bytes q = c.kmin; q <= c.kmax; q += 1 * kKB) {
    EXPECT_LE(RedMarkProbability(c, q), c.pmax + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RedCurve,
    ::testing::Values(std::make_tuple(5, 200, 0.01),   // deployment
                      std::make_tuple(40, 40, 1.0),    // cut-off
                      std::make_tuple(5, 200, 1.0),
                      std::make_tuple(40, 200, 0.1),
                      std::make_tuple(1, 2000, 0.005)));

// ---------- RP invariants over a parameter grid ----------

struct RpGrid {
  double g;
  int f;
  double rai_mbps;
};

// Without this gtest prints an RpGrid as its raw bytes, tail padding
// included, so the discovered ctest names would differ between builds.
void PrintTo(const RpGrid& grid, std::ostream* os) {
  *os << "g=" << grid.g << ",F=" << grid.f << ",R_AI=" << grid.rai_mbps
      << "Mbps";
}

class RpInvariants : public ::testing::TestWithParam<RpGrid> {};

TEST_P(RpInvariants, RandomEventSequencesKeepInvariants) {
  const RpGrid grid = GetParam();
  DcqcnParams params;
  params.g = grid.g;
  params.fast_recovery_steps = grid.f;
  params.rate_ai = Mbps(grid.rai_mbps);
  params.rate_hai = Mbps(grid.rai_mbps * 10);
  const Rate line = Gbps(40);
  RpState rp(params, line);
  Rng rng(42);

  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    if (u < 0.1) {
      rp.OnCnp();
    } else if (u < 0.4) {
      rp.OnAlphaTimer();
    } else if (u < 0.7) {
      rp.OnRateTimer();
    } else {
      rp.OnBytesSent(static_cast<Bytes>(rng.UniformInt(1, 3 * kMtu)));
    }
    // Invariants: rates bounded, target >= some sane floor, alpha in [0,1],
    // counters nonnegative; when not limiting, rate == line.
    EXPECT_GE(rp.current_rate(), params.min_rate * (1 - 1e-12));
    EXPECT_LE(rp.current_rate(), line * (1 + 1e-12));
    EXPECT_LE(rp.target_rate(), line * (1 + 1e-12));
    EXPECT_GE(rp.alpha(), 0.0);
    EXPECT_LE(rp.alpha(), 1.0);
    EXPECT_GE(rp.timer_count(), 0);
    EXPECT_GE(rp.byte_counter_count(), 0);
    if (!rp.limiting()) {
      EXPECT_DOUBLE_EQ(rp.current_rate(), line);
    }
  }
}

TEST_P(RpInvariants, CutThenPureIncreaseIsMonotone) {
  const RpGrid grid = GetParam();
  DcqcnParams params;
  params.g = grid.g;
  params.fast_recovery_steps = grid.f;
  params.rate_ai = Mbps(grid.rai_mbps);
  RpState rp(params, Gbps(40));
  rp.OnCnp();
  rp.OnCnp();
  double prev = rp.current_rate();
  for (int i = 0; i < 5000 && rp.limiting(); ++i) {
    rp.OnRateTimer();
    EXPECT_GE(rp.current_rate(), prev * (1 - 1e-12))
        << "increase-only sequence must be monotone";
    prev = rp.current_rate();
  }
  EXPECT_FALSE(rp.limiting()) << "must eventually recover to line rate";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RpInvariants,
    ::testing::Values(RpGrid{1.0 / 256, 5, 40.0}, RpGrid{1.0 / 16, 5, 40.0},
                      RpGrid{1.0 / 256, 1, 40.0}, RpGrid{1.0 / 256, 10, 5.0},
                      RpGrid{0.5, 3, 400.0}, RpGrid{1.0 / 1024, 5, 40.0}));

// ---------- Threshold monotonicity ----------

class ThresholdScaling : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdScaling, MoreBufferMoreEcnRoom) {
  const int ports = GetParam();
  SwitchBufferSpec a;
  a.num_ports = ports;
  SwitchBufferSpec b = a;
  b.total_buffer = a.total_buffer * 2;
  const Bytes h = HeadroomPerPortPriority(a);
  EXPECT_GT(DynamicEcnBound(b, h, 8.0), DynamicEcnBound(a, h, 8.0));
  EXPECT_GT(StaticPfcThreshold(b, h), StaticPfcThreshold(a, h));
}

TEST_P(ThresholdScaling, MorePortsLessEcnRoom) {
  const int ports = GetParam();
  if (ports >= 64) GTEST_SKIP();
  SwitchBufferSpec a;
  a.num_ports = ports;
  SwitchBufferSpec b = a;
  b.num_ports = ports * 2;
  const Bytes h = HeadroomPerPortPriority(a);
  EXPECT_GT(DynamicEcnBound(a, h, 8.0), DynamicEcnBound(b, h, 8.0));
}

INSTANTIATE_TEST_SUITE_P(PortCounts, ThresholdScaling,
                         ::testing::Values(8, 16, 32, 64));

// ---------- ECMP hash uniformity ----------

class EcmpUniformity : public ::testing::TestWithParam<int> {};

TEST_P(EcmpUniformity, KeysSpreadEvenlyAcrossWays) {
  const int ways = GetParam();
  std::vector<int> buckets(static_cast<size_t>(ways), 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = FlowEcmpKey(i, /*salt=*/7);
    buckets[EcmpMix(key, /*switch id=*/3) % static_cast<uint64_t>(ways)]++;
  }
  const double expected = static_cast<double>(n) / ways;
  for (int b : buckets) {
    EXPECT_NEAR(b, expected, expected * 0.1);
  }
}

TEST_P(EcmpUniformity, SaltsDecorrelate) {
  // The same flow id under different salts should pick each way with
  // roughly equal frequency.
  const int ways = GetParam();
  std::vector<int> buckets(static_cast<size_t>(ways), 0);
  const int n = 20000;
  for (int s = 0; s < n; ++s) {
    const uint64_t key = FlowEcmpKey(/*flow_id=*/1, static_cast<uint64_t>(s));
    buckets[EcmpMix(key, 5) % static_cast<uint64_t>(ways)]++;
  }
  const double expected = static_cast<double>(n) / ways;
  for (int b : buckets) EXPECT_NEAR(b, expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Ways, EcmpUniformity, ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace dcqcn
