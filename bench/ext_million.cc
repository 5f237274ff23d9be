// Extension — million-flow workloads under the hybrid fast path.
//
// The paper's deployment serves on the order of 10^5-10^6 flows per epoch
// per cluster; a pure packet-level simulator burns hundreds of events on
// every one of them even when the fabric never congests. This bench sweeps
// open-loop Poisson arrivals on the 512-host Clos from 10^5 toward 10^6
// total flows at low offered load — the mostly-quiescent regime the hybrid
// fast-forward engine (src/hybrid/) is built for (at this load a pair of
// line-rate flows still collides on a link every few hundred microseconds,
// so every congested interlude really runs packet-level) — and reports, per
// point, exact workload counters plus the hybrid controller's own ledger
// (epochs entered, packets elided, flows completed analytically).
//
// The hybrid engine is ON by default here (with `release=1` so per-flow NIC
// state is recycled and memory stays bounded by *concurrent* flows);
// `--packet` runs the identical sweep on the plain packet engine for a
// speedup baseline. `events` in the JSON is deterministic for both engines,
// so events_packet / events_hybrid is a machine-independent speedup proxy —
// CI gates on it (wall-clock speedup is printed to stdout only).
//
// Flags: `--smoke` (100x fewer flows, for CI), `--packet` (disable the
// default --hybrid), `--hybrid[:k=v,...]` (override the hybrid spec), plus
// the standard `--jobs/--seed/--json/--csv` and `--cc=POLICY`.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "hybrid/engine.h"
#include "runner/runner.h"
#include "trace/distributions.h"

using namespace dcqcn;

namespace {

// Sweep geometry: every case runs the xlarge ext_scale shape (8 pods x
// 4 ToRs x 16 hosts = 512 hosts, 40 Gbps links) at the same offered load;
// only the arrival horizon grows.
constexpr double kLoadFraction = 0.001;  // of aggregate host line rate
constexpr double kSizeScale = 1.0;      // published storage-backend shape
constexpr const char* kCdf = "storage-backend";
// Reservoir cap for the per-flow Cdfs: enough samples for stable p99s,
// bounded regardless of how many flows the sweep completes.
constexpr int64_t kFctReservoir = 1 << 16;

ClosShape MillionShape() {
  return ClosShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                   .spines = 8, .hosts_per_tor = 16};
}

}  // namespace

int main(int argc, char** argv) {
  // ParseCli rejects flags it does not know, so peel --smoke/--packet first.
  bool smoke = false;
  bool packet = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--packet") == 0) {
      packet = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  runner::CliOptions cli =
      runner::ParseCli(static_cast<int>(args.size()), args.data());
  if (!cli.ok) {
    std::fprintf(stderr, "%s\n", cli.error.c_str());
    return 1;
  }
  if (packet) {
    cli.hybrid.clear();
  } else if (cli.hybrid.empty()) {
    // Hybrid by default; release=1 recycles completed per-flow NIC state so
    // the 10^6-flow points stay bounded by concurrent, not cumulative, flows.
    cli.hybrid = "release=1,check=5";
  }

  const ClosShape shape = MillionShape();
  const int hosts = shape.num_hosts();
  const Rate offered = Gbps(40) * hosts * kLoadFraction;
  // Arrival rate implied by the load and the (scaled) mean flow size; the
  // MeanApprox draw is fixed-seed, so durations — and with them every
  // serialized byte — are deterministic.
  const double mean_bytes = static_cast<double>(
      EmpiricalSizeCdf::ByName(kCdf, kSizeScale).MeanApprox());
  const double flows_per_sec = offered / 8.0 / mean_bytes;

  struct SweepPoint {
    std::string name;
    double total_flows;
  };
  const double cut = smoke ? 100.0 : 1.0;  // smoke: 100x fewer arrivals
  const std::vector<SweepPoint> points = {
      {"flows_1e5", 1e5 / cut},
      {"flows_3e5", 3e5 / cut},
      {"flows_1e6", 1e6 / cut},
  };

  std::vector<bench::ScaleCase> cases;
  for (const SweepPoint& p : points) {
    bench::ScaleCase c;
    c.name = p.name;
    c.shape = shape;
    c.duration = static_cast<Time>(p.total_flows / flows_per_sec * 1e12);
    cases.push_back(c);
  }

  std::vector<double> wall_seconds(cases.size(), 0.0);
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  bench::ScaleTrialOptions topt;
  topt.cc = runner::ResolveCc(cli.cc, TransportMode::kRdmaDcqcn);
  char wl[128];
  std::snprintf(wl, sizeof(wl), "poisson:load_gbps=%.6g,cdf=%s",
                offered / 1e9, kCdf);
  topt.workload = wl;
  topt.workload_size_scale = kSizeScale;
  topt.fct_reservoir = kFctReservoir;
  topt.retain_flow_records = false;
  topt.wall_seconds = &wall_seconds;
  for (const bench::ScaleCase& c : cases) {
    matrix.push_back(bench::ScaleTrial(c, topt));
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  opt.hybrid = cli.hybrid;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Extension: million-flow Poisson sweep, 512-host Clos, "
              "%.2g%% load (%s%s)\n\n", kLoadFraction * 100,
              packet ? "packet engine" : ("hybrid " + cli.hybrid).c_str(),
              smoke ? ", smoke" : "");
  std::printf("%-10s %9s %9s %9s %12s %10s %10s %9s %11s\n", "point",
              "started", "completed", "sim_ms", "events", "ff_pkts",
              "ff_comps", "epochs", "sim_s/wall");
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::TrialResult& r = results[i];
    auto cnt = [&r](const char* k) -> long long {
      auto it = r.counters.find(k);
      return it == r.counters.end() ? 0 : it->second;
    };
    const double wall = wall_seconds[i];
    const double sim_s = r.metrics.at("sim_ms") / 1e3;
    std::printf("%-10s %9lld %9lld %9.2f %12lld %10lld %10lld %9lld %11.4f\n",
                r.name.c_str(), cnt("wl_started"), cnt("wl_completed"),
                r.metrics.at("sim_ms"), cnt("events"),
                cnt("hybrid_ff_packets"), cnt("hybrid_ff_completions"),
                cnt("hybrid_epochs"), wall > 0 ? sim_s / wall : 0.0);
  }
  if (!packet) {
    // Why probes stayed in packet mode: each rejected probe counts under
    // the first RejectReason that held (src/hybrid/engine.h).
    std::printf("\nhybrid probe rejects by reason:\n");
    for (const runner::TrialResult& r : results) {
      std::printf("%-10s %lld of %lld probes:", r.name.c_str(),
                  static_cast<long long>(r.counters.at("hybrid_entry_rejects")),
                  static_cast<long long>(r.counters.at("hybrid_probes")));
      for (size_t i = 0; i < hybrid::kNumRejectReasons; ++i) {
        const char* reason =
            hybrid::RejectReasonName(static_cast<hybrid::RejectReason>(i));
        const int64_t n =
            r.counters.at(std::string("hybrid_reject_") + reason);
        if (n > 0) std::printf(" %s %lld", reason, static_cast<long long>(n));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n(Run once with --packet and once without: events_packet / "
      "events_hybrid is the deterministic speedup proxy CI gates on; "
      "sim_s/wall is the wall-clock figure, stdout only.)\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
