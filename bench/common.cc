#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "bench/common.h"
#include "fault/fault_injector.h"
#include "host/host_config.h"
#include "hybrid/engine.h"
#include "net/shard.h"
#include "telemetry/probes.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace bench {
namespace {

std::vector<RdmaNic*> AllHosts(const ClosTopology& t) {
  std::vector<RdmaNic*> hosts;
  for (const auto& per_tor : t.hosts_by_tor) {
    hosts.insert(hosts.end(), per_tor.begin(), per_tor.end());
  }
  return hosts;
}

// Starts a closed-loop transfer stream: `bytes` messages back-to-back on one
// warm QP; every completion is recorded into `out` (goodput, Gbps) and the
// next message enqueued immediately.
SenderQp* ClosedLoop(Network& net, RdmaNic* src, RdmaNic* dst, Bytes bytes,
                     TransportMode mode, uint64_t salt, Cdf* out) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = bytes;
  f.mode = mode;
  f.ecmp_salt = salt;
  SenderQp* qp = net.StartFlow(f);
  const int id = f.flow_id;
  // The first transfer spans the experiment's cold start (every flow still
  // converging); skip it in the statistics like the paper's warmed runs.
  auto seen = std::make_shared<int>(0);
  src->AddCompletionCallback([out, qp, id, bytes, seen](const FlowRecord& r) {
    if (r.spec.flow_id != id) return;
    if (out != nullptr && (*seen)++ > 0) out->Add(r.goodput() / 1e9);
    qp->EnqueueMessage(bytes);
  });
  return qp;
}

SenderQp* Greedy(Network& net, RdmaNic* src, RdmaNic* dst,
                 TransportMode mode, uint64_t salt) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = 0;
  f.mode = mode;
  f.ecmp_salt = salt;
  return net.StartFlow(f);
}

}  // namespace

UnfairnessResult RunUnfairness(TransportMode mode, Time duration_per_run,
                               int repeats, uint64_t seed_base) {
  UnfairnessResult res;
  res.per_host.resize(4);
  for (int run = 0; run < repeats; ++run) {
    Network net(seed_base + static_cast<uint64_t>(run));
    ClosTopology topo = BuildClos(net, 3, TopologyOptions{});
    RdmaNic* receiver = topo.host(3, 1);
    RdmaNic* senders[4] = {topo.host(0, 0), topo.host(0, 1), topo.host(0, 2),
                           topo.host(3, 0)};
    for (int h = 0; h < 4; ++h) {
      const uint64_t salt = seed_base * 1000 + static_cast<uint64_t>(
                                run * 17 + h * 131);
      ClosedLoop(net, senders[h], receiver, 4000 * kKB, mode, salt,
                 &res.per_host[static_cast<size_t>(h)]);
    }
    net.RunFor(duration_per_run);
  }
  return res;
}

Cdf RunVictim(TransportMode mode, int t3_senders, Time duration_per_run,
              int repeats, uint64_t seed_base) {
  DCQCN_CHECK(t3_senders >= 0 && t3_senders <= 2);
  // One median per run, so runs with fast victims (which complete many more
  // transfers) do not dominate the pooled statistic.
  Cdf run_medians;
  for (int run = 0; run < repeats; ++run) {
    const auto salt0 = seed_base + static_cast<uint64_t>(run) * 7919;
    Network net(salt0);
    ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
    RdmaNic* r = topo.host(3, 0);
    // H11-H14 incast into R.
    for (int h = 0; h < 4; ++h) {
      Greedy(net, topo.host(0, h), r, mode,
             salt0 + static_cast<uint64_t>(h));
    }
    // Extra senders under T3 into R (the congestion NOT on VS's path).
    for (int h = 0; h < t3_senders; ++h) {
      Greedy(net, topo.host(2, h), r, mode,
             salt0 + 100 + static_cast<uint64_t>(h));
    }
    // Victim: VS (under T1) -> VR (under T2), 2 MB transfers.
    Cdf victim;
    ClosedLoop(net, topo.host(0, 4), topo.host(1, 0), 2000 * kKB, mode,
               salt0 + 200, &victim);
    net.RunFor(duration_per_run);
    if (!victim.empty()) run_medians.Add(victim.Quantile(0.5));
  }
  return run_medians;
}

TwoFlowResult RunTwoFlowValidation(const DcqcnParams& params, uint64_t seed) {
  Network net(seed);
  TopologyOptions opt;
  opt.switch_config.red = params.red;
  opt.nic_config.params = params;
  StarTopology topo = BuildStar(net, 3, opt);
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.start_time = i * Milliseconds(5);
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  RdmaNic* recv = topo.hosts[2];
  telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
  const size_t f1 =
      probes.AddRate("f1", [recv] { return recv->ReceiverDeliveredBytes(0); });
  const size_t f2 =
      probes.AddRate("f2", [recv] { return recv->ReceiverDeliveredBytes(1); });
  probes.Start();
  net.RunFor(Milliseconds(100));

  const Time from = Milliseconds(50), to = Milliseconds(100);
  TwoFlowResult r;
  r.r1 = probes.MeanOver(f1, from, to);
  r.r2 = probes.MeanOver(f2, from, to);
  // Rate variability of flow 1 over the tail (captures RED-with-slow-timer
  // instability in the fig. 13 (c) configuration).
  r.stddev1 = TailOver(probes.Series(f1), from, to).stddev;
  return r;
}

IncastResult RunIncast(int k, uint64_t seed) {
  DCQCN_CHECK(k >= 1);
  Network net(seed);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  RdmaNic* recv = topo.hosts[static_cast<size_t>(k)];
  SharedBufferSwitch* sw = topo.sw;
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t rate = probes.AddRate("total", [recv, k] {
    Bytes b = 0;
    for (int i = 0; i < k; ++i) b += recv->ReceiverDeliveredBytes(i);
    return b;
  });
  const size_t queue = probes.AddGauge("queue", [sw, k] {
    return static_cast<double>(sw->EgressQueueBytes(k, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(20));

  IncastResult r;
  r.total_gbps = probes.MeanOver(rate, Milliseconds(10), Milliseconds(20));
  r.p99_queue_bytes = probes.ToCdf(queue, Milliseconds(10)).Quantile(0.99);
  return r;
}

TrafficResult RunBenchmarkTraffic(TransportMode mode, int incast_degree,
                                  int num_pairs, Time duration,
                                  uint64_t seed,
                                  const TopologyOptions& topo_opts) {
  Network net(seed);
  ClosTopology topo = BuildClos(net, 5, topo_opts);
  BenchmarkTrafficOptions opt;
  opt.num_pairs = num_pairs;
  opt.incast_degree = incast_degree;
  opt.mode = mode;
  opt.seed = seed;
  BenchmarkTraffic traffic(net, AllHosts(topo), opt);
  traffic.Begin();
  net.RunFor(duration);

  TrafficResult res;
  res.user = traffic.user_goodput();
  res.incast = traffic.incast_goodput();
  for (auto* s : topo.spines) {
    res.spine_pauses += s->counters().pause_frames_received;
  }
  res.total_pauses = net.TotalPauseFramesSent();
  res.drops = net.TotalDrops();
  return res;
}

std::vector<ScaleCase> ScaleCases(bool smoke) {
  const Time unit = smoke ? Microseconds(100) : Milliseconds(1);
  std::vector<ScaleCase> cases;
  // Paper testbed shape (Fig. 2): 4 ToRs, 20 hosts.
  cases.push_back({"paper_4tor_20h", ClosShape{}, 2, 4 * unit});
  // 8 ToRs / 64 hosts.
  cases.push_back({"mid_8tor_64h",
                   ClosShape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                             .spines = 4, .hosts_per_tor = 8},
                   2, 2 * unit});
  // 16 ToRs / 256 hosts / 1024 flows.
  cases.push_back({"large_16tor_256h",
                   ClosShape{.pods = 4, .tors_per_pod = 4, .leaves_per_pod = 4,
                             .spines = 8, .hosts_per_tor = 16},
                   4, unit});
  // 32 ToRs / 512 hosts / 1024 flows — the headline scale target.
  cases.push_back({"xlarge_32tor_512h",
                   ClosShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                             .spines = 8, .hosts_per_tor = 16},
                   2, unit});
  return cases;
}

runner::TrialSpec ScaleTrial(const ScaleCase& c,
                             const ScaleTrialOptions& opt) {
  runner::TrialSpec spec;
  spec.name = c.name;
  // Specs are parsed at matrix-build time (callers validated them — the
  // benches via ParseCli, tests with literals), so trial bodies only carry
  // plain values.
  workload::WorkloadSpec wspec;
  if (!opt.workload.empty()) {
    wspec = workload::ParseWorkloadSpec(opt.workload);
    DCQCN_CHECK(wspec.ok);
  }
  host::HostPathConfig host_cfg;  // default: disabled (wire-only)
  if (!opt.host.empty()) {
    host_cfg = host::MakeHostPathConfig(host::ParseHostSpec(opt.host));
  }
  std::vector<double>* wall_seconds = opt.wall_seconds;
  const runner::CcSelection cc = opt.cc;
  const bool use_pattern = !opt.workload.empty();
  const int64_t fct_reservoir = opt.fct_reservoir;
  const bool retain_flow_records = opt.retain_flow_records;
  const double size_scale = opt.workload_size_scale;
  spec.run = [c, wall_seconds, cc, wspec, host_cfg, use_pattern,
              fct_reservoir, retain_flow_records,
              size_scale](const runner::TrialContext& ctx) {
    // --shards=N selects the sharded engine; both engines sit behind the
    // same Network surface, so everything below is engine-agnostic.
    std::optional<Network> net_storage;
    if (ctx.shards > 0) {
      // A ToR plus its hosts is the smallest shard unit, so a sweep shape
      // with fewer ToRs than --shards runs at its maximum cut. Result bytes
      // are shard-count-invariant, which makes the clamp invisible.
      const ShardPlan plan = MakeClosShardPlan(
          c.shape, std::min(ctx.shards, c.shape.num_tors()));
      DCQCN_CHECK(plan.ok);
      net_storage.emplace(ctx.seed, plan);
    } else {
      net_storage.emplace(ctx.seed);
    }
    Network& net = *net_storage;
    TopologyOptions topt = CcTopo(cc.mode);
    topt.nic_config.host_path = host_cfg;
    const ClosTopology topo = BuildClos(net, c.shape, topt);
    // --hybrid wraps the run loop in the flow-level fast-forward controller.
    // Constructed after wiring and before any StartFlow, per its contract;
    // ParseCli already rejected the --shards/--host combinations.
    std::optional<hybrid::HybridEngine> hyb;
    if (!ctx.hybrid.empty()) {
      DCQCN_CHECK(ctx.shards == 0 && !host_cfg.enabled);
      hybrid::HybridConfig hcfg;
      DCQCN_CHECK(hybrid::ParseHybridSpec(
          ctx.hybrid == "on" ? "" : ctx.hybrid, &hcfg));
      hyb.emplace(&net, hcfg, ctx.faults);
    }
    const std::vector<RdmaNic*> hosts = AllHosts(topo);
    if (!retain_flow_records) {
      for (RdmaNic* h : hosts) h->SetRetainCompletedRecords(false);
    }
    const int n = static_cast<int>(hosts.size());
    const int hpt = c.shape.hosts_per_tor;
    const int num_tors = c.shape.num_tors();

    struct FlowRef {
      RdmaNic* dst;
      int flow_id;
    };
    std::vector<FlowRef> flows;
    std::unique_ptr<workload::WorkloadPattern> pattern;
    std::optional<workload::SimWorkloadHost> whost;
    std::unique_ptr<workload::VerbsWorkloadHost> vhost;
    if (use_pattern) {
      // Structured workload instead of the built-in greedy mix: driven
      // exactly like ext_workload (pattern randomness on its own stream,
      // host-path emission when the device model is attached).
      pattern = workload::CreateWorkloadPattern(
          wspec, runner::DeriveTrialSeed(ctx.seed, 0x3a11), size_scale);
      whost.emplace(net, hosts, cc.mode, cc.policy);
      if (host_cfg.enabled) {
        vhost = std::make_unique<workload::VerbsWorkloadHost>(
            net, hosts, cc.mode, cc.policy);
      }
      if (fct_reservoir > 0) {
        // Caps apply before any sample lands, so capped and uncapped runs
        // agree exactly until the reservoir overflows.
        workload::WorkloadMetrics& m =
            host_cfg.enabled ? vhost->metrics() : whost->metrics();
        const auto cap = static_cast<size_t>(fct_reservoir);
        m.goodput_gbps.SetCap(cap);
        m.fct_us.SetCap(cap);
        m.slowdown.SetCap(cap);
        m.iteration_us.SetCap(cap);
      }
      if (host_cfg.enabled) {
        vhost->Begin(*pattern);
      } else {
        whost->Begin(*pattern);
      }
    } else {
      // Traffic draws come from a stream distinct from the network's own
      // (RED marking etc.) so adding a flow never perturbs wire randomness.
      Rng traffic(runner::DeriveTrialSeed(ctx.seed, 0x5ca1e));
      flows.reserve(static_cast<size_t>(n) * c.flows_per_host);
      for (int i = 0; i < n; ++i) {
        const int tor = i / hpt;
        for (int f = 0; f < c.flows_per_host; ++f) {
          int dst;
          if (f == 0) {
            // Deterministic hpt:1 incast into the next ToR's first host —
            // guarantees sustained congestion, so CNPs flow and every QP's
            // alpha/rate timers stay armed (the load the timer wheel exists
            // for). The destination is in the *next* ToR, so every flow of
            // the mix crosses a shard boundary under any ToR partition.
            dst = ((tor + 1) % num_tors) * hpt;
          } else {
            do {
              dst = static_cast<int>(traffic.UniformInt(0, n - 1));
            } while (dst / hpt == tor);
          }
          FlowSpec fs;
          fs.flow_id = net.NextFlowId();
          fs.src_host = hosts[static_cast<size_t>(i)]->id();
          fs.dst_host = hosts[static_cast<size_t>(dst)]->id();
          fs.size_bytes = 0;  // unbounded: concurrent for the whole window
          fs.mode = cc.mode;
          fs.cc_policy = cc.policy;
          fs.ecmp_salt = traffic.NextU64();
          net.StartFlow(fs);
          flows.push_back({hosts[static_cast<size_t>(dst)], fs.flow_id});
        }
      }
    }

    // Declarative faults from the spec (empty plan = no injector, result
    // bytes unchanged). The injector outlives the run: installed loss
    // profiles draw from its Rng.
    std::optional<FaultInjector> inj;
    if (ctx.faults != nullptr && !ctx.faults->empty()) {
      inj.emplace(&net, *ctx.faults, ctx.seed * 0x9e3779b97f4a7c15ULL + 1);
      inj->Arm();
    }

    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t events =
        hyb.has_value() ? hyb->Run(c.duration) : net.Run(c.duration);
    const auto t1 = std::chrono::steady_clock::now();
    if (wall_seconds != nullptr) {
      (*wall_seconds)[ctx.trial_index] =
          std::chrono::duration<double>(t1 - t0).count();
    }

    int64_t delivered = 0;
    for (const FlowRef& fr : flows) {
      delivered += fr.dst->ReceiverDeliveredBytes(fr.flow_id);
    }

    runner::TrialResult r;
    r.counters["hosts"] = n;
    r.counters["flows"] = static_cast<int64_t>(flows.size());
    r.counters["events"] = static_cast<int64_t>(events);
    r.counters["delivered_bytes"] = delivered;
    r.counters["cnps"] = net.TotalCnpsSent();
    r.counters["drops"] = net.TotalDrops();
    r.counters["pause_frames"] = net.TotalPauseFramesSent();
    if (use_pattern) {
      workload::FillTrialResult(
          host_cfg.enabled ? vhost->metrics() : whost->metrics(), &r);
    }
    if (inj.has_value()) {
      r.counters["faults_started"] = inj->faults_started();
      r.counters["faults_healed"] = inj->faults_healed();
    }
    if (hyb.has_value()) {
      // Emitted only under --hybrid, so hybrid-off output stays
      // byte-identical to every pre-hybrid binary.
      const hybrid::HybridStats& hs = hyb->stats();
      r.counters["hybrid_epochs"] = hs.epochs;
      r.counters["hybrid_ff_completions"] = hs.ff_completions;
      r.counters["hybrid_ff_packets"] = hs.ff_packets;
      r.counters["hybrid_probes"] = hs.probes;
      r.counters["hybrid_entry_rejects"] = hs.entry_rejects;
      for (size_t i = 0; i < hybrid::kNumRejectReasons; ++i) {
        r.counters[std::string("hybrid_reject_") +
                   hybrid::RejectReasonName(
                       static_cast<hybrid::RejectReason>(i))] =
            hs.rejects[i];
      }
      r.counters["hybrid_exits_infeasible"] = hs.exits_infeasible;
      r.counters["hybrid_exits_fault"] = hs.exits_fault;
      r.metrics["hybrid_ff_ms"] = ToMilliseconds(hs.ff_time);
    }
    r.metrics["sim_ms"] = ToSeconds(c.duration) * 1e3;
    r.metrics["agg_goodput_gbps"] =
        8.0 * static_cast<double>(delivered) / ToSeconds(c.duration) / 1e9;
    return r;
  };
  return spec;
}

runner::TrialSpec ScaleTrial(const ScaleCase& c,
                             std::vector<double>* wall_seconds,
                             runner::CcSelection cc) {
  ScaleTrialOptions opt;
  opt.cc = cc;
  opt.wall_seconds = wall_seconds;
  return ScaleTrial(c, opt);
}

void StartGreedyFlow(Network& net, RdmaNic* src, RdmaNic* dst, int flow_id,
                     const runner::CcSelection& cc, Time start) {
  FlowSpec f;
  f.flow_id = flow_id;
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = 0;  // greedy
  f.mode = cc.mode;
  f.cc_policy = cc.policy;
  f.start_time = start;
  net.StartFlow(f);
}

Bytes DeliveredSum(const RdmaNic* dst, int n) {
  Bytes total = 0;
  for (int i = 0; i < n; ++i) total += dst->ReceiverDeliveredBytes(i);
  return total;
}

double WindowGbps(Bytes bytes, Time window) {
  if (window <= 0) return 0.0;
  return static_cast<double>(bytes) * 8 /
         (static_cast<double>(window) / static_cast<double>(kSecond)) / 1e9;
}

}  // namespace bench
}  // namespace dcqcn
