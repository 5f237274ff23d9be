// Conformance suite for the hybrid packet/flow fast-forward engine
// (src/hybrid/): the allocator's max-min fixed point, the --hybrid spec
// grammar, and the engine's accuracy contract against the pure packet
// engine — exact FCT equality on an uncongested fabric with zero pacing
// jitter, bounded FCT error under load, byte-identical runner output across
// --jobs, composition with every registered rate-based CC policy, and
// packet-mode fallback around faults and window-based transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fault/fault_plan.h"
#include "hybrid/allocator.h"
#include "hybrid/engine.h"
#include "net/network.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "runner/serialize.h"

namespace dcqcn {
namespace {

using hybrid::HybridConfig;
using hybrid::HybridEngine;
using hybrid::MaxMinSolver;
using hybrid::ParseHybridSpec;

// ---------- allocator ----------

struct AllocDemand {
  Rate cap = 0;
  std::vector<int32_t> links;  // dense link indices
};

struct AllocResult {
  std::vector<Rate> rate;  // per demand
  int rounds = 0;
};

// One problem on a fresh solver.
AllocResult MaxMinAllocate(const std::vector<AllocDemand>& demands,
                           const std::vector<Rate>& link_capacity) {
  MaxMinSolver solver(link_capacity);
  for (const AllocDemand& d : demands) solver.Add(d.cap, d.links);
  AllocResult out;
  out.rate = solver.Solve();
  out.rounds = solver.rounds();
  return out;
}

TEST(MaxMinAllocator, SingleFlowTakesMinOfCapAndLink) {
  const std::vector<Rate> links = {Gbps(40)};
  AllocResult r = MaxMinAllocate({{Gbps(25), {0}}}, links);
  ASSERT_EQ(r.rate.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rate[0], Gbps(25));

  r = MaxMinAllocate({{Gbps(100), {0}}}, links);
  EXPECT_DOUBLE_EQ(r.rate[0], Gbps(40));
}

TEST(MaxMinAllocator, EqualSplitOnSharedBottleneck) {
  const std::vector<Rate> links = {Gbps(40)};
  const AllocResult r =
      MaxMinAllocate({{Gbps(40), {0}}, {Gbps(40), {0}}}, links);
  ASSERT_EQ(r.rate.size(), 2u);
  EXPECT_NEAR(r.rate[0], Gbps(20), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(20), 1.0);
}

TEST(MaxMinAllocator, CapFreezeRedistributesHeadroom) {
  // Flow 0 freezes at its 10 Gbps cap; flow 1 absorbs the rest of the link.
  const std::vector<Rate> links = {Gbps(40)};
  const AllocResult r =
      MaxMinAllocate({{Gbps(10), {0}}, {Gbps(40), {0}}}, links);
  EXPECT_NEAR(r.rate[0], Gbps(10), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(30), 1.0);
}

TEST(MaxMinAllocator, ClassicTwoBottleneckMaxMin) {
  // Links: A (10), B (40). Flow 0 crosses A only, flow 1 crosses A and B,
  // flow 2 crosses B only. Max-min: flows 0/1 split A at 5 each; flow 2
  // takes B's remainder, 35.
  const std::vector<Rate> links = {Gbps(10), Gbps(40)};
  const AllocResult r = MaxMinAllocate(
      {{Gbps(40), {0}}, {Gbps(40), {0, 1}}, {Gbps(40), {1}}}, links);
  EXPECT_NEAR(r.rate[0], Gbps(5), 1.0);
  EXPECT_NEAR(r.rate[1], Gbps(5), 1.0);
  EXPECT_NEAR(r.rate[2], Gbps(35), 1.0);
}

TEST(MaxMinAllocator, EmptyDemandsYieldEmptyResult) {
  const AllocResult r = MaxMinAllocate({}, {Gbps(40)});
  EXPECT_TRUE(r.rate.empty());
}

// Progressive filling that scans every link of the fabric each round: the
// allocator before it learned to work on compact local link indices. Kept
// here only as the bit-for-bit reference for the compact solver.
AllocResult FullScanReference(const std::vector<AllocDemand>& demands,
                              const std::vector<Rate>& link_capacity) {
  const size_t nf = demands.size();
  const size_t nl = link_capacity.size();
  AllocResult out;
  out.rate.assign(nf, 0.0);
  if (nf == 0) return out;
  std::vector<Rate> remaining = link_capacity;
  std::vector<int32_t> active(nl, 0);
  std::vector<char> frozen(nf, 0);
  size_t unfrozen = nf;
  for (const AllocDemand& d : demands) {
    for (int32_t l : d.links) ++active[static_cast<size_t>(l)];
  }
  constexpr double kRelTol = 1e-9;
  while (unfrozen > 0) {
    ++out.rounds;
    double inc = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < nl; ++l) {
      if (active[l] > 0) inc = std::min(inc, remaining[l] / active[l]);
    }
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) inc = std::min(inc, demands[f].cap - out.rate[f]);
    }
    if (inc < 0) inc = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) out.rate[f] += inc;
    }
    for (size_t l = 0; l < nl; ++l) {
      if (active[l] > 0) remaining[l] -= inc * active[l];
    }
    size_t froze = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool stop = out.rate[f] >= demands[f].cap * (1.0 - kRelTol);
      for (int32_t l : demands[f].links) {
        const auto li = static_cast<size_t>(l);
        if (remaining[li] <= kRelTol * link_capacity[li]) stop = true;
      }
      if (stop) {
        frozen[f] = 1;
        ++froze;
        --unfrozen;
        for (int32_t l : demands[f].links) --active[static_cast<size_t>(l)];
      }
    }
    if (froze == 0) break;
  }
  return out;
}

TEST(MaxMinAllocator, CompactSolveIsBitIdenticalToFullScan) {
  // 400 links, of which demands only ever touch the first 48 plus a few
  // scattered ones: most links are unused, as in a sparse fabric.
  std::mt19937_64 rng(20150817);
  const Rate kRates[] = {Gbps(10), Gbps(25), Gbps(40), Gbps(100)};
  std::vector<Rate> capacity(400);
  for (Rate& c : capacity) c = kRates[rng() % 4];
  auto pick_link = [&rng]() -> int32_t {
    return static_cast<int32_t>(rng() % 8 == 0 ? rng() % 400 : rng() % 48);
  };

  MaxMinSolver solver(capacity);  // reused across every problem
  int contended = 0;
  for (int problem = 0; problem < 2000; ++problem) {
    std::vector<AllocDemand> demands(rng() % 13);
    for (AllocDemand& d : demands) {
      // Caps equal to a link rate half the time: exact ties between the
      // cap clamp and a link's share are where rounding would diverge.
      d.cap = rng() % 2 ? kRates[rng() % 4]
                        : Gbps(1 + static_cast<double>(rng() % 120000) / 1e3);
      d.links.resize(1 + rng() % 6);
      for (int32_t& l : d.links) l = pick_link();
    }
    const AllocResult want = FullScanReference(demands, capacity);
    const AllocResult once = MaxMinAllocate(demands, capacity);
    solver.Clear();
    for (const AllocDemand& d : demands) solver.Add(d.cap, d.links);
    const std::vector<Rate>& reused = solver.Solve();

    ASSERT_EQ(once.rate.size(), demands.size());
    ASSERT_EQ(reused.size(), demands.size());
    EXPECT_EQ(once.rounds, want.rounds) << "problem " << problem;
    EXPECT_EQ(solver.rounds(), want.rounds) << "problem " << problem;
    bool below_cap = false;
    for (size_t i = 0; i < demands.size(); ++i) {
      const auto bits = std::bit_cast<uint64_t>(want.rate[i]);
      EXPECT_EQ(std::bit_cast<uint64_t>(once.rate[i]), bits)
          << "problem " << problem << " demand " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(reused[i]), bits)
          << "problem " << problem << " demand " << i;
      below_cap = below_cap || want.rate[i] < 0.99 * demands[i].cap;
    }
    contended += below_cap;
  }
  // Links were really shared in a good part of the problems.
  EXPECT_GT(contended, 500);
}

// ---------- spec grammar ----------

TEST(HybridSpec, EmptyMeansDefaults) {
  HybridConfig cfg;
  ASSERT_TRUE(ParseHybridSpec("", &cfg));
  const HybridConfig def;
  EXPECT_EQ(cfg.check_interval, def.check_interval);
  EXPECT_EQ(cfg.eps, def.eps);
  EXPECT_EQ(cfg.release_completed, def.release_completed);
}

TEST(HybridSpec, ParsesEveryKey) {
  HybridConfig cfg;
  ASSERT_TRUE(ParseHybridSpec(
      "check=50,eps=0.05,queue_frac=0.5,max_epoch=500,guard=10,release=1",
      &cfg));
  EXPECT_EQ(cfg.check_interval, Microseconds(50));
  EXPECT_DOUBLE_EQ(cfg.eps, 0.05);
  EXPECT_DOUBLE_EQ(cfg.queue_frac, 0.5);
  EXPECT_EQ(cfg.max_epoch, Microseconds(500));
  EXPECT_EQ(cfg.fault_guard, Microseconds(10));
  EXPECT_TRUE(cfg.release_completed);
}

TEST(HybridSpec, RejectsUnknownKeysAndMalformedValues) {
  HybridConfig cfg;
  EXPECT_FALSE(ParseHybridSpec("bogus=1", &cfg));
  EXPECT_FALSE(ParseHybridSpec("eps=abc", &cfg));
  EXPECT_FALSE(ParseHybridSpec("check=", &cfg));
  EXPECT_FALSE(ParseHybridSpec("check", &cfg));
}

// ---------- engine vs packet engine ----------

// Node-id layout produced by BuildClos: ToRs, leaves, spines, then hosts
// ToR-major (shard_test pins this for the partitioner).
int HostId(const ClosShape& s, int tor, int h) {
  return s.num_tors() + s.num_leaves() + s.spines + tor * s.hosts_per_tor + h;
}

struct DisjointRun {
  std::map<int, Time> finish;  // flow id -> sender-side completion time
  uint64_t events = 0;
  hybrid::HybridStats stats;
};

// One bounded flow inside each ToR of the paper testbed (host 0 -> host 1,
// two dedicated host links per flow, no shared fabric links), with pacing
// jitter disabled — the regime where the analytic model's integer
// arithmetic must reproduce the packet engine's FCTs exactly.
DisjointRun RunDisjointPairs(bool use_hybrid) {
  const ClosShape shape{};  // 4 ToRs / 20 hosts
  Network net(/*seed=*/11);
  TopologyOptions topt;
  topt.nic_config.pacing_jitter = 0.0;
  const ClosTopology topo = BuildClos(net, shape, topt);
  HybridConfig cfg;
  cfg.check_interval = Microseconds(5);
  std::optional<HybridEngine> hyb;
  if (use_hybrid) hyb.emplace(&net, cfg);

  std::vector<RdmaNic*> senders;
  for (int tor = 0; tor < shape.num_tors(); ++tor) {
    FlowSpec fs;
    fs.flow_id = net.NextFlowId();
    fs.src_host = HostId(shape, tor, 0);
    fs.dst_host = HostId(shape, tor, 1);
    fs.size_bytes = 256 * kKB;
    net.StartFlow(fs);
    senders.push_back(topo.hosts_by_tor[static_cast<size_t>(tor)][0]);
  }

  DisjointRun out;
  out.events = use_hybrid ? hyb->Run(Milliseconds(1)) : net.Run(Milliseconds(1));
  for (const RdmaNic* nic : senders) {
    for (const FlowRecord& rec : nic->completed_flows()) {
      out.finish[rec.spec.flow_id] = rec.finish_time;
    }
  }
  if (use_hybrid) out.stats = hyb->stats();
  return out;
}

TEST(HybridEngine, ExactFctEqualityOnUncongestedFabric) {
  const DisjointRun packet = RunDisjointPairs(/*use_hybrid=*/false);
  const DisjointRun hybrid = RunDisjointPairs(/*use_hybrid=*/true);

  ASSERT_EQ(packet.finish.size(), 4u);
  ASSERT_EQ(hybrid.finish.size(), 4u);
  for (const auto& [flow_id, t] : packet.finish) {
    ASSERT_TRUE(hybrid.finish.count(flow_id));
    // Picosecond-exact: the analytic pacing/serialization arithmetic must
    // match SenderQp and Link::Transmit bit for bit.
    EXPECT_EQ(hybrid.finish.at(flow_id), t) << "flow " << flow_id;
  }
  // The fast path must actually engage — otherwise this test is vacuous.
  EXPECT_GE(hybrid.stats.epochs, 1);
  EXPECT_GT(hybrid.stats.ff_packets, 0);
  EXPECT_GT(hybrid.stats.ff_completions, 0);
  EXPECT_LT(hybrid.events, packet.events);
}

// Runs the ScaleTrial harness (one mid-size Clos case, open-loop Poisson)
// with the given hybrid spec; returns the serialized results.
std::vector<runner::TrialResult> RunPoissonCase(const std::string& hybrid,
                                                const std::string& cc,
                                                double load_gbps,
                                                const FaultPlan* faults,
                                                int jobs) {
  bench::ScaleCase c;
  c.name = "hybrid_conformance";
  c.shape = ClosShape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                      .spines = 4, .hosts_per_tor = 8};  // 64 hosts
  c.duration = Milliseconds(2);
  bench::ScaleTrialOptions topt;
  topt.cc = runner::ResolveCc(cc, TransportMode::kRdmaDcqcn);
  char wl[64];
  std::snprintf(wl, sizeof(wl), "poisson:load_gbps=%.6g", load_gbps);
  topt.workload = wl;
  topt.workload_size_scale = 0.3;
  std::vector<runner::TrialSpec> matrix = {bench::ScaleTrial(c, topt)};
  if (faults != nullptr) matrix[0].faults = *faults;
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  opt.base_seed = 23;
  opt.hybrid = hybrid;
  return runner::RunTrials(matrix, opt);
}

TEST(HybridEngine, MedianFctWithinFivePercentUnderLoad) {
  // ~5% offered load: enough concurrency that flows really collide (the
  // hybrid run must mix packet-mode congestion with fast-forwarded epochs).
  const auto packet = RunPoissonCase("", "", 128.0, nullptr, 1);
  const auto hybrid = RunPoissonCase("on", "", 128.0, nullptr, 1);
  ASSERT_EQ(packet.size(), 1u);
  ASSERT_EQ(hybrid.size(), 1u);

  // Same arrival process on both engines.
  EXPECT_EQ(packet[0].counters.at("wl_started"),
            hybrid[0].counters.at("wl_started"));
  // The fast path engaged at least once.
  EXPECT_GE(hybrid[0].counters.at("hybrid_epochs"), 1);

  const Summary& pf = packet[0].summaries.at("wl_fct_us");
  const Summary& hf = hybrid[0].summaries.at("wl_fct_us");
  ASSERT_GT(pf.count, 50u);
  ASSERT_GT(hf.count, 50u);
  EXPECT_NEAR(hf.median, pf.median, 0.05 * pf.median);
  EXPECT_NEAR(hf.mean, pf.mean, 0.05 * pf.mean);
}

TEST(HybridEngine, RunnerOutputByteIdenticalAcrossJobs) {
  bench::ScaleTrialOptions topt;
  topt.workload = "poisson:load_gbps=50";
  topt.workload_size_scale = 0.3;
  topt.fct_reservoir = 128;        // exercise the capped-Cdf path too
  topt.retain_flow_records = false;
  std::vector<runner::TrialSpec> matrix;
  for (const bench::ScaleCase& c : bench::ScaleCases(/*smoke=*/true)) {
    matrix.push_back(bench::ScaleTrial(c, topt));
  }
  runner::RunnerOptions opt;
  opt.base_seed = 5;
  opt.hybrid = "release=1,check=5";
  opt.jobs = 1;
  const std::string serial =
      runner::ResultsToJson(runner::RunTrials(matrix, opt));
  opt.jobs = 8;
  const std::string parallel =
      runner::ResultsToJson(runner::RunTrials(matrix, opt));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("hybrid_epochs"), std::string::npos);
}

TEST(HybridEngine, ComposesWithEveryRateBasedPolicy) {
  for (const std::string cc : {"dcqcn", "timely"}) {
    const auto packet = RunPoissonCase("", cc, 32.0, nullptr, 1);
    const auto hybrid = RunPoissonCase("on", cc, 32.0, nullptr, 1);
    // Identical arrival stream; completions may shift only for flows still
    // in flight at the window edge.
    EXPECT_EQ(packet[0].counters.at("wl_started"),
              hybrid[0].counters.at("wl_started"))
        << cc;
    const double pc = static_cast<double>(packet[0].counters.at("wl_completed"));
    const double hc = static_cast<double>(hybrid[0].counters.at("wl_completed"));
    EXPECT_NEAR(hc, pc, std::max(2.0, 0.02 * pc)) << cc;
    EXPECT_GE(hybrid[0].counters.at("hybrid_epochs"), 1) << cc;
  }
}

TEST(HybridEngine, WindowBasedTransportNeverEntersFlowMode) {
  // DCTCP is window-based: the gate must reject every probe, and with zero
  // epochs the hybrid run must reproduce the packet run's numbers exactly.
  const auto packet = RunPoissonCase("", "dctcp", 32.0, nullptr, 1);
  const auto hybrid = RunPoissonCase("on", "dctcp", 32.0, nullptr, 1);
  EXPECT_EQ(hybrid[0].counters.at("hybrid_epochs"), 0);
  for (const char* k : {"wl_started", "wl_completed", "events",
                        "delivered_bytes", "cnps", "drops"}) {
    EXPECT_EQ(packet[0].counters.at(k), hybrid[0].counters.at(k)) << k;
  }
}

// Sum of the per-reason reject counters a trial exported.
int64_t SumRejectReasons(const runner::TrialResult& r) {
  int64_t sum = 0;
  for (size_t i = 0; i < hybrid::kNumRejectReasons; ++i) {
    sum += r.counters.at(
        std::string("hybrid_reject_") +
        hybrid::RejectReasonName(static_cast<hybrid::RejectReason>(i)));
  }
  return sum;
}

TEST(HybridEngine, RejectReasonsPartitionEntryRejects) {
  FaultPlan plan;
  plan.Add(LinkFlap(0, 8, Microseconds(300), Microseconds(200)));
  const auto busy = RunPoissonCase("on", "", 128.0, nullptr, 1);
  const auto dctcp = RunPoissonCase("on", "dctcp", 32.0, nullptr, 1);
  const auto faulted = RunPoissonCase("on", "", 64.0, &plan, 1);
  for (const auto* res : {&busy, &dctcp, &faulted}) {
    const runner::TrialResult& r = (*res)[0];
    EXPECT_GT(r.counters.at("hybrid_entry_rejects"), 0);
    EXPECT_EQ(SumRejectReasons(r), r.counters.at("hybrid_entry_rejects"));
  }
  // Each run's characteristic reason shows up.
  EXPECT_GT(dctcp[0].counters.at("hybrid_reject_window_based"), 0);
  EXPECT_EQ(dctcp[0].counters.at("hybrid_epochs"), 0);
  EXPECT_GT(faulted[0].counters.at("hybrid_reject_fault_window"), 0);
}

TEST(HybridEngine, FaultPlansForcePacketModeAndMatchInjection) {
  // A mid-run link flap plus a lossy window. The controller must never
  // fast-forward across a boundary (fault_guard), and the injection itself
  // — a packet-level mechanism — must execute identically.
  FaultPlan plan;
  const ClosShape s{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                    .spines = 4, .hosts_per_tor = 8};
  const int tor0 = 0;
  const int leaf0 = s.num_tors();
  plan.Add(LinkFlap(tor0, leaf0, Microseconds(300), Microseconds(200)));
  plan.Add(PacketLoss(tor0, leaf0, Microseconds(900), Microseconds(300),
                      0.02));
  const auto packet = RunPoissonCase("", "", 64.0, &plan, 1);
  const auto hybrid = RunPoissonCase("on", "", 64.0, &plan, 1);
  EXPECT_EQ(packet[0].counters.at("faults_started"),
            hybrid[0].counters.at("faults_started"));
  EXPECT_EQ(packet[0].counters.at("faults_healed"),
            hybrid[0].counters.at("faults_healed"));
  EXPECT_EQ(packet[0].counters.at("wl_started"),
            hybrid[0].counters.at("wl_started"));
  const double pc = static_cast<double>(packet[0].counters.at("wl_completed"));
  const double hc = static_cast<double>(hybrid[0].counters.at("wl_completed"));
  EXPECT_NEAR(hc, pc, std::max(2.0, 0.02 * pc));
}

}  // namespace
}  // namespace dcqcn
