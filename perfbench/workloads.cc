#include "perfbench/workloads.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "cc/scenarios.h"
#include "hybrid/engine.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "stats/stats.h"
#include "workload/sim_host.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using dcqcn::Bytes;
using dcqcn::Network;
using dcqcn::RdmaNic;
using dcqcn::Time;

// The ext_million settings: per-flow NIC state is recycled on completion
// and the gate is probed every 5 us.
constexpr const char* kHybridSpec = "release=1,check=5";
constexpr const char* kSizeCdf = "storage-backend";
constexpr double kLineRateGbps = 40;

dcqcn::ClosShape Shape() {
  return dcqcn::ClosShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                          .spines = 8, .hosts_per_tor = 16};
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of every thread of the process, so a second simulation thread
// would show as cpu_s above setup_s + run_s.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void AddViolation(SimOutputs* o, int64_t n, const char* what) {
  if (n <= 0) return;
  o->failed += n;
  o->violations.push_back(std::string(what) + " (" + std::to_string(n) + ")");
}

// One trial body: build, start traffic, run, read out and check. `t` is
// null in the untraced run.
void Body(const Workload& w, uint64_t seed, Tracer* t, int16_t cc_policy,
          bool packet_reference, TrialOutcome* out) {
  SimOutputs& o = out->sim;
  const double cpu0 = CpuNow();
  const double wall0 = WallNow();

  Network net(seed);
  dcqcn::TopologyOptions topt;
  dcqcn::cc::ApplyCcSwitchDefaults(dcqcn::TransportMode::kRdmaDcqcn,
                                   &topt.switch_config);
  const dcqcn::ClosTopology topo = [&] {
    Span s(t, Layer::kNetBuild);
    return dcqcn::BuildClos(net, Shape(), topt);
  }();
  // Constructed after wiring and before any StartFlow, per its contract.
  std::optional<dcqcn::hybrid::HybridEngine> hyb;
  if (w.hybrid && !packet_reference) {
    dcqcn::hybrid::HybridConfig hcfg;
    DCQCN_CHECK(dcqcn::hybrid::ParseHybridSpec(kHybridSpec, &hcfg));
    hyb.emplace(&net, hcfg);
  }
  std::vector<RdmaNic*> hosts;
  for (const auto& per_tor : topo.hosts_by_tor) {
    hosts.insert(hosts.end(), per_tor.begin(), per_tor.end());
  }
  const bool pattern_in_use = w.load_fraction > 0;

  // Wall and CPU clock readings that split the run's host time into
  // segments (see kTimingMarks).
  struct Marks {
    std::vector<double> wall, cpu;
    Time next = 0;  // simulated time of the next completion mark
    void Take() {
      wall.push_back(WallNow());
      cpu.push_back(CpuNow());
    }
  } marks;
  const Time mark_step = w.duration / kTimingMarks;
  marks.next = mark_step;
  // The network's completions, checked against the ledger of launched
  // flows. Registered before the workload host's handler, and the hybrid
  // engine releases a completed flow's receiver state only in a later
  // event, so the receiver still holds the flow here.
  LaunchLedger ledger;
  net.AddCompletionHandler([&](const dcqcn::FlowRecord& r) {
    if (net.eq().Now() >= marks.next) {
      marks.Take();
      marks.next = (net.eq().Now() / mark_step + 1) * mark_step;
    }
    ++o.completed;
    if (!pattern_in_use) return;  // unbounded flows never complete
    o.delivered_bytes += r.bytes;
    LaunchedFlow* f = ledger.Find(r.spec.flow_id);
    if (f == nullptr || f->open == 0) {
      ++o.stray_completions;
      return;
    }
    --f->open;
    if (f->open > 0) return;
    const dcqcn::Bytes delivered =
        hosts[static_cast<size_t>(f->dst)]->ReceiverDeliveredBytes(
            r.spec.flow_id);
    if (Packets(delivered) > f->offered_packets) ++o.over_delivered;
    if (Packets(delivered) < f->offered_packets) ++o.short_completed;
  });

  struct GreedyFlow {
    dcqcn::SenderQp* qp;
    RdmaNic* dst;
    int flow_id;
  };
  std::vector<GreedyFlow> greedy;
  std::unique_ptr<dcqcn::workload::WorkloadPattern> pattern;
  std::optional<dcqcn::workload::SimWorkloadHost> whost;
  std::optional<LedgerPattern> ledger_pattern;
  std::optional<TracedPattern> traced_pattern;
  if (!pattern_in_use) {
    // The ext_scale mix (bench/common.cc ScaleTrial): per host one flow of
    // an hpt:1 incast into the next ToR's first host, one to a random host
    // in another ToR. Traffic draws use their own stream.
    const int n = static_cast<int>(hosts.size());
    const int hpt = Shape().hosts_per_tor;
    const int num_tors = Shape().num_tors();
    dcqcn::Rng traffic(dcqcn::runner::DeriveTrialSeed(seed, 0x5ca1e));
    for (int i = 0; i < n; ++i) {
      const int tor = i / hpt;
      for (int f = 0; f < 2; ++f) {
        int dst = ((tor + 1) % num_tors) * hpt;
        if (f == 1) {
          do {
            dst = static_cast<int>(traffic.UniformInt(0, n - 1));
          } while (dst / hpt == tor);
        }
        dcqcn::FlowSpec fs;
        fs.flow_id = net.NextFlowId();
        fs.src_host = hosts[static_cast<size_t>(i)]->id();
        fs.dst_host = hosts[static_cast<size_t>(dst)]->id();
        fs.size_bytes = 0;  // unbounded
        fs.mode = dcqcn::TransportMode::kRdmaDcqcn;
        fs.cc_policy = cc_policy;
        fs.ecmp_salt = traffic.NextU64();
        dcqcn::SenderQp* qp = [&] {
          Span s(t, Layer::kNetStartFlow);
          return net.StartFlow(fs);
        }();
        greedy.push_back({qp, hosts[static_cast<size_t>(dst)], fs.flow_id});
      }
    }
  } else {
    // As ext_million: receivers keep no completed records, so memory stays
    // bounded by concurrent flows.
    for (RdmaNic* h : hosts) h->SetRetainCompletedRecords(false);
    const double load_gbps =
        kLineRateGbps * static_cast<double>(hosts.size()) * w.load_fraction;
    char spec[128];
    std::snprintf(spec, sizeof(spec), "poisson:load_gbps=%.6g,cdf=%s",
                  load_gbps, kSizeCdf);
    const dcqcn::workload::WorkloadSpec wspec =
        dcqcn::workload::ParseWorkloadSpec(spec);
    DCQCN_CHECK(wspec.ok);
    pattern = dcqcn::workload::CreateWorkloadPattern(
        wspec, dcqcn::runner::DeriveTrialSeed(seed, 0x3a11));
    whost.emplace(net, hosts, dcqcn::TransportMode::kRdmaDcqcn, cc_policy);
    ledger_pattern.emplace(*pattern, &ledger);
    if (t != nullptr) {
      traced_pattern.emplace(*ledger_pattern, t);
      whost->Begin(*traced_pattern);
    } else {
      whost->Begin(*ledger_pattern);
    }
  }

  o.pending_peak = static_cast<int64_t>(net.eq().PendingEvents());
  out->setup_s = WallNow() - wall0;
  out->setup_cpu_s = CpuNow() - cpu0;
  marks.Take();
  for (int i = 1; i <= w.run_calls; ++i) {
    const Time edge = w.duration / w.run_calls * i;
    if (hyb.has_value()) {
      Span s(t, Layer::kHybridRun);
      o.events += hyb->Run(edge);
    } else {
      Span s(t, Layer::kSimRun);
      o.events += net.Run(edge);
    }
    marks.Take();
    o.pending_peak = std::max(
        o.pending_peak, static_cast<int64_t>(net.eq().PendingEvents()));
  }
  for (size_t i = 1; i < marks.wall.size(); ++i) {
    out->run_segment_s.push_back(marks.wall[i] - marks.wall[i - 1]);
    out->cpu_segment_s.push_back(marks.cpu[i] - marks.cpu[i - 1]);
  }
  out->run_s = marks.wall.back() - marks.wall.front();
  out->cpu_s = out->setup_cpu_s + marks.cpu.back() - marks.cpu.front();

  // --- read-out ---
  if (!pattern_in_use) {
    dcqcn::Cdf slowdown;
    const double window_s = dcqcn::ToSeconds(w.duration);
    for (const GreedyFlow& g : greedy) {
      const Bytes delivered = g.dst->ReceiverDeliveredBytes(g.flow_id);
      o.delivered_bytes += delivered;
      if (delivered > g.qp->counters().bytes_sent) ++o.over_delivered;
      if (!g.qp->complete()) ++o.in_flight;
      const double line_s =
          static_cast<double>(delivered) * 8 / (kLineRateGbps * 1e9);
      slowdown.Add(delivered > 0 ? window_s / line_s
                                 : std::numeric_limits<double>::infinity());
    }
    o.started = static_cast<int64_t>(greedy.size());
    o.slowdown_p95 = slowdown.Quantile(0.95);
    o.slowdown_p99 = slowdown.Quantile(0.99);
  } else {
    // Flows still open by the ledger must still have an open sender QP.
    for (size_t id = 0; id < ledger.flows.size(); ++id) {
      const LaunchedFlow& f = ledger.flows[id];
      if (f.open == 0) continue;
      const int fid = static_cast<int>(id);
      const dcqcn::SenderQp* qp =
          hosts[static_cast<size_t>(f.src)]->FindQp(fid);
      if (qp != nullptr && !qp->complete()) o.in_flight += f.open;
      const Bytes delivered =
          hosts[static_cast<size_t>(f.dst)]->ReceiverDeliveredBytes(fid);
      if (Packets(delivered) > f.offered_packets) ++o.over_delivered;
    }
    o.started = ledger.launched;
    const dcqcn::workload::WorkloadMetrics& m = whost->metrics();
    o.skipped = m.skipped;
    o.wl_started = m.started;
    o.wl_completed = m.completed;
    o.wl_in_flight = m.in_flight;
    if (!m.fct_us.empty()) {
      o.fct_median_us = m.fct_us.Quantile(0.5);
      double sum = 0;
      for (double v : m.fct_us.Values()) sum += v;
      o.fct_mean_us = sum / static_cast<double>(m.fct_us.size());
      o.slowdown_p95 = m.slowdown.Quantile(0.95);
      o.slowdown_p99 = m.slowdown.Quantile(0.99);
    }
  }

  for (const auto& sw : net.switches()) {
    o.switch_tx_packets += sw->counters().tx_packets;
    o.ecn_marked += sw->counters().ecn_marked_packets;
  }
  o.pause_frames = net.TotalPauseFramesSent();
  o.paused_time_ps = net.TotalPausedTime();
  o.drops = net.TotalDrops();
  for (const auto& nic : net.hosts()) {
    const dcqcn::NicCounters& c = nic->counters();
    o.data_packets += c.data_packets_sent;
    o.data_packets_received += c.data_packets_received;
    o.acks += c.acks_sent;
    o.cnps += c.cnps_sent;
    o.naks += c.naks_sent;
    o.out_of_order += c.out_of_order_packets;
  }
  if (hyb.has_value()) {
    const dcqcn::hybrid::HybridStats& hs = hyb->stats();
    o.probes = hs.probes;
    o.entry_rejects = hs.entry_rejects;
    o.epochs = hs.epochs;
    o.exits_infeasible = hs.exits_infeasible;
    o.ff_completions = hs.ff_completions;
    o.ff_packets = hs.ff_packets;
    o.ff_time_ps = hs.ff_time;
  }
  CheckInvariants(pattern_in_use, &o);
}

}  // namespace

void CheckInvariants(bool pattern, SimOutputs* o) {
  o->failed = 0;
  o->violations.clear();
  AddViolation(o, std::abs(o->started - (o->completed + o->in_flight)),
               "started != completed + in_flight");
  AddViolation(o, o->skipped, "arrivals refused by the pattern's cap");
  if (pattern) {
    AddViolation(o, std::abs(o->wl_started - o->started),
                 "workload layer's started != flows launched");
    AddViolation(o, std::abs(o->wl_completed - o->completed),
                 "workload layer's completed != network completions");
    AddViolation(o, std::abs(o->wl_in_flight - o->in_flight),
                 "workload layer's in_flight != open sender QPs");
  }
  AddViolation(o, o->drops, "drops on a lossless fault-free fabric");
  AddViolation(o, o->over_delivered, "flows delivered more than offered");
  AddViolation(o, o->short_completed,
               "completed flows delivered less than offered");
  AddViolation(o, o->stray_completions, "completions of flows not open");
  AddViolation(o, o->ff_completions - o->completed,
               "analytic completions exceed completions");
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"dense_incast", 0, false, dcqcn::Milliseconds(1), 40, 3, 2.5},
      {"sparse_poisson", 0.001, true, dcqcn::Milliseconds(2000), 10, 5, 1.1},
      {"busy_poisson", 0.05, true, dcqcn::Milliseconds(5), 10, 3, 1.6},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t TrialSeed(uint64_t run_seed, int k) {
  return dcqcn::runner::DeriveTrialSeed(run_seed, static_cast<uint64_t>(k));
}

double SimOutputs::goodput_gbps(Time duration) const {
  return static_cast<double>(delivered_bytes) * 8 / dcqcn::ToSeconds(duration) /
         1e9;
}

TrialOutcome RunTrial(const Workload& w, uint64_t seed, bool traced,
                      bool packet_reference) {
  TrialOutcome out;
  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;
  int16_t cc_policy = -1;  // the mode's default: dcqcn
  if (traced) {
    SetCcSink(t, &out.trace.cc);
    cc_policy = TracedDcqcnPolicyId();
  }
  double body_s = 0;
  dcqcn::runner::TrialSpec spec;
  spec.name = w.name;
  spec.run = [&](const dcqcn::runner::TrialContext& ctx) {
    const double b0 = WallNow();
    {
      Span s(t, Layer::kTrial);
      Body(w, ctx.seed, t, cc_policy, packet_reference, &out);
    }
    body_s = WallNow() - b0;
    return dcqcn::runner::TrialResult{};
  };
  dcqcn::runner::RunnerOptions opt;
  opt.jobs = 1;  // inline on this thread
  opt.base_seed = seed;
  const double r0 = WallNow();
  {
    Span s(t, Layer::kRunner);
    dcqcn::runner::RunTrials({spec}, opt);
  }
  out.runner_overhead_s = WallNow() - r0 - body_s;
  if (traced) {
    SetCcSink(nullptr, nullptr);
    for (size_t i = 0; i < out.trace.layers.size(); ++i) {
      out.trace.layers[i] = tracer.totals(static_cast<Layer>(i));
    }
  }
  return out;
}

}  // namespace perfbench
