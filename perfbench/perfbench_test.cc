// The benchmark's own tests: tracing transparency, determinism, the
// single-thread contract, the output checks, and the pinned FCT references.
// Trials run on shortened copies of the workloads to keep the suite quick;
// the pinned-reference test runs one full-length packet-engine trial.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// The workload with 1/20 of its simulated time: still hundreds of flows, and
// on the hybrid workloads both fast-forwarded epochs and refused probes.
Workload Short(const std::string& name) {
  Workload w = *FindWorkload(name);
  w.duration /= 20;
  return w;
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, TracedRunReproducesUntracedOutputsExactly) {
  const Workload w = Short(GetParam());
  const TrialOutcome plain = RunTrial(w, 7, /*traced=*/false);
  const TrialOutcome traced = RunTrial(w, 7, /*traced=*/true);
  EXPECT_TRUE(traced.sim == plain.sim);
  EXPECT_EQ(traced.sim.events, plain.sim.events);
  EXPECT_EQ(traced.sim.fct_median_us, plain.sim.fct_median_us);
  EXPECT_EQ(traced.sim.slowdown_p99, plain.sim.slowdown_p99);
  EXPECT_EQ(traced.sim.ff_packets, plain.sim.ff_packets);
  // The decorators really were in the path.
  EXPECT_GT(traced.trace.cc.on_bytes_sent, 0);
  EXPECT_GT(traced.trace.layers[static_cast<size_t>(Layer::kNetStartFlow)].calls,
            0);
  if (w.hybrid) {
    EXPECT_GT(traced.trace.layers[static_cast<size_t>(Layer::kHybridRun)].calls,
              0);
  }
  if (w.load_fraction > 0) {
    EXPECT_GT(
        traced.trace.layers[static_cast<size_t>(Layer::kWorkloadLaunch)].calls,
        0);
  }
  // Untraced trials record no layer data.
  EXPECT_EQ(plain.trace.cc.total(), 0);
}

TEST_P(PerWorkload, CountsRepeatAtOneSeedAndChangeWithTheSeed) {
  const Workload w = Short(GetParam());
  const TrialOutcome a = RunTrial(w, 3, false);
  const TrialOutcome b = RunTrial(w, 3, false);
  EXPECT_TRUE(a.sim == b.sim);
  const TrialOutcome c = RunTrial(w, 4, false);
  EXPECT_NE(a.sim.events, c.sim.events);
}

TEST_P(PerWorkload, RunsOnOneThread) {
  const Workload w = Short(GetParam());
  const TrialOutcome o = RunTrial(w, 1, false);
  // Process CPU time covers every thread; a second busy thread would push
  // it well above the wall time of set-up plus run.
  EXPECT_LE(o.cpu_s, 1.05 * (o.setup_s + o.run_s) + 0.01);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      EXPECT_EQ(line, "Threads:\t1");
    }
  }
}

TEST_P(PerWorkload, PhysicsChecksPass) {
  const Workload w = Short(GetParam());
  const TrialOutcome o = RunTrial(w, 2, false);
  EXPECT_EQ(o.sim.failed, 0);
  EXPECT_TRUE(o.sim.violations.empty());
  EXPECT_GT(o.sim.started, 0);
  EXPECT_GT(o.sim.in_flight, 0);
  EXPECT_EQ(o.sim.started, o.sim.completed + o.sim.in_flight);
  EXPECT_GT(o.sim.delivered_bytes, 0);
  EXPECT_EQ(o.sim.drops, 0);
  if (w.load_fraction > 0) {
    EXPECT_GT(o.sim.completed, 0);
    EXPECT_EQ(o.sim.wl_started, o.sim.started);
  }
}

TEST_P(PerWorkload, RepeatsSplitHostTimeAtTheSamePoints) {
  const Workload w = Short(GetParam());
  const TrialOutcome a = RunTrial(w, 5, false);
  const TrialOutcome b = RunTrial(w, 5, false);
  EXPECT_GE(a.run_segment_s.size(), static_cast<size_t>(w.run_calls));
  EXPECT_EQ(a.run_segment_s.size(), b.run_segment_s.size());
  EXPECT_EQ(a.cpu_segment_s.size(), a.run_segment_s.size());
  double sum = 0;
  for (double v : a.run_segment_s) sum += v;
  EXPECT_DOUBLE_EQ(sum, a.run_s);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::Values("dense_incast", "sparse_poisson",
                                           "busy_poisson"));

// Each invariant fails when the outcome it checks is broken.
TEST(CheckInvariants, EachBrokenOutcomeCountsFailedOperations) {
  const Workload w = Short("busy_poisson");
  const SimOutputs good = RunTrial(w, 2, false).sim;
  ASSERT_EQ(good.failed, 0);
  ASSERT_GT(good.completed, 0);
  const struct {
    const char* what;
    void (*breaks)(SimOutputs*);
  } cases[] = {
      // The NICs and the workload layer agree, but flows went missing.
      {"started != completed + in_flight",
       [](SimOutputs* o) {
         o->in_flight -= 2;
         o->wl_in_flight -= 2;
       }},
      {"arrivals refused", [](SimOutputs* o) { o->skipped = 2; }},
      {"workload layer's started",
       [](SimOutputs* o) { o->wl_started += 2; }},
      {"workload layer's completed",
       [](SimOutputs* o) { o->wl_completed -= 2; }},
      {"workload layer's in_flight",
       [](SimOutputs* o) { o->wl_in_flight += 2; }},
      {"drops", [](SimOutputs* o) { o->drops = 2; }},
      {"delivered more", [](SimOutputs* o) { o->over_delivered = 2; }},
      {"delivered less", [](SimOutputs* o) { o->short_completed = 2; }},
      {"not open", [](SimOutputs* o) { o->stray_completions = 2; }},
      {"analytic completions",
       [](SimOutputs* o) { o->ff_completions = o->completed + 2; }},
  };
  for (const auto& c : cases) {
    SimOutputs broken = good;
    c.breaks(&broken);
    CheckInvariants(/*pattern=*/true, &broken);
    EXPECT_EQ(broken.failed, 2) << c.what;
    ASSERT_EQ(broken.violations.size(), 1u) << c.what;
    EXPECT_NE(broken.violations[0].find(c.what), std::string::npos)
        << broken.violations[0];
  }
  // The greedy mix does not use the workload layer: its books are not read.
  SimOutputs greedy = good;
  greedy.wl_started = 0;
  greedy.wl_completed = 0;
  greedy.wl_in_flight = 0;
  CheckInvariants(/*pattern=*/false, &greedy);
  EXPECT_EQ(greedy.failed, 0);
}

// The pinned packet-engine references still match the packet engine.
TEST(FctReference, PinnedValuesMatchThePacketEngine) {
  std::ifstream in(PERFBENCH_DIR "/fct_reference.tsv");
  ASSERT_TRUE(in.good());
  std::string line;
  bool checked_busy = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream f(line);
    std::string name;
    uint64_t seed = 0;
    double median = 0, mean = 0;
    ASSERT_TRUE(static_cast<bool>(f >> name >> seed >> median >> mean));
    ASSERT_NE(FindWorkload(name), nullptr) << name;
    // One full-length check per file keeps the suite short; busy_poisson's
    // reference is the cheaper of the two.
    if (name != "busy_poisson" || checked_busy) continue;
    const TrialOutcome ref =
        RunTrial(*FindWorkload(name), TrialSeed(seed, 0), false, true);
    EXPECT_EQ(ref.sim.fct_median_us, median);
    EXPECT_EQ(ref.sim.fct_mean_us, mean);
    checked_busy = true;
  }
  EXPECT_TRUE(checked_busy);
}

}  // namespace
}  // namespace perfbench
