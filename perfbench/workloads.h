// The benchmark's workloads and the trial that runs one of them.
//
// All three run on the 512-host Clos (8 pods x 4 ToRs x 16 hosts, 40 Gbps)
// under DCQCN with the default single-queue engine, one simulation thread.
// README.md says why each was chosen and which layer it stresses.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "perfbench/decorators.h"
#include "perfbench/trace.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Offered load as a share of aggregate host line rate for open-loop
  // Poisson arrivals (storage-backend sizes); 0 selects the ext_scale greedy
  // mix (two unbounded flows per host, one of them an hpt:1 incast).
  double load_fraction = 0;
  // Wraps the run loop in hybrid::HybridEngine ("release=1,check=5").
  bool hybrid = false;
  dcqcn::Time duration = 0;
  // Run() is called in this many equal slices of `duration`, traced or not.
  // The packet engine's results do not depend on it. The hybrid engine ends
  // flow mode at every Run() return, so on it more calls would change the
  // simulation (and its FCT error); the hybrid workloads keep 10.
  int run_calls = 10;
  // Distinct inputs (sub-seeds) a run simulates. A run repeats each of them
  // once per round, so the host times can be the fastest of several repeats
  // of identical work while the run still averages over inputs.
  int inputs = 1;
  // Host seconds one trial takes on a 4-vCPU Xeon (RelWithDebInfo). Sets
  // how many rounds fit in a run; never read from the clock.
  double nominal_trial_s = 1;
};

const std::vector<Workload>& Workloads();
// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);

// Host time is split at every Run() return and, without touching the
// simulation, at the first flow completion past each 1/kTimingMarks of the
// simulated time (the benchmark's completion handler reads the clocks).
// Repeats of one input split at the same simulated points.
inline constexpr int kTimingMarks = 40;

// Everything a trial simulates. Two trials of one workload at one seed must
// produce equal outputs, traced or not; the benchmark and its tests compare
// them with ==.
struct SimOutputs {
  uint64_t events = 0;
  int64_t pending_peak = 0;  // eq().PendingEvents() at Run() returns

  // Flow accounting, each count from its own source:
  //   started    flows launched, tallied by the benchmark (its own StartFlow
  //              loop for the greedy mix, the LaunchLedger for a pattern);
  //   skipped    arrivals the pattern refused under its own cap;
  //   completed  records seen by the benchmark's network completion handler;
  //   in_flight  launched flows whose sender QP is still open on its NIC.
  int64_t started = 0;
  int64_t skipped = 0;
  int64_t completed = 0;
  int64_t in_flight = 0;
  // The workload layer's own books (WorkloadMetrics); 0 for the greedy mix,
  // which does not use the layer.
  int64_t wl_started = 0;
  int64_t wl_completed = 0;
  int64_t wl_in_flight = 0;
  // Flows whose receiver holds more in-order packets than were offered, and
  // completed flows whose receiver holds fewer; completions of flows that
  // were not open. Packets, not bytes: the hybrid engine advances receivers
  // by whole MTUs.
  int64_t over_delivered = 0;
  int64_t short_completed = 0;
  int64_t stray_completions = 0;
  // Bytes of completed transfers (their records), or for the greedy mix the
  // receivers' in-order bytes of every flow.
  int64_t delivered_bytes = 0;
  double fct_median_us = 0;  // completed flows only (0 for the greedy mix)
  double fct_mean_us = 0;
  // Quantiles over flows of time taken / time at line rate: FCT for
  // completed flows, the run window for the greedy mix's unbounded flows.
  double slowdown_p95 = 0;
  double slowdown_p99 = 0;

  // net
  int64_t switch_tx_packets = 0;
  int64_t ecn_marked = 0;
  int64_t pause_frames = 0;
  int64_t paused_time_ps = 0;
  int64_t drops = 0;
  // nic
  int64_t data_packets = 0;
  int64_t data_packets_received = 0;
  int64_t acks = 0;
  int64_t cnps = 0;
  int64_t naks = 0;
  int64_t out_of_order = 0;
  // hybrid (all 0 on the packet engine)
  int64_t probes = 0;
  int64_t entry_rejects = 0;
  int64_t epochs = 0;
  int64_t exits_infeasible = 0;
  int64_t ff_completions = 0;
  int64_t ff_packets = 0;
  int64_t ff_time_ps = 0;

  // Physics-invariant violations counted as failed operations (see
  // CheckInvariants), and a one-line reason per kind.
  int64_t failed = 0;
  std::vector<std::string> violations;

  bool operator==(const SimOutputs&) const = default;
  double goodput_gbps(dcqcn::Time duration) const;
};

// Checks the physics invariants on `o`'s counts and sets o->failed and
// o->violations. `pattern` says whether the workload layer was in use.
// Violations of each kind count that many failed operations:
//   * started == completed + in_flight (with the pattern's refused arrivals
//     counted apart: emissions == completed + in_flight + skipped), and
//     each refused arrival is itself a failed operation;
//   * the workload layer's books equal the tallies kept outside it;
//   * zero drops (PFC on, no faults);
//   * delivered <= offered per flow, and == offered for completed flows;
//     no completion of a flow that was not open;
//   * hybrid analytic completions <= completions.
void CheckInvariants(bool pattern, SimOutputs* o);

// Per-layer numbers only a traced trial has.
struct TraceOutputs {
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> layers{};
  CcCounts cc;
};

struct TrialOutcome {
  double setup_s = 0;      // Network construction + BuildClos .. first Run
  double setup_cpu_s = 0;  // process CPU time over the same interval
  // Host time and process CPU time between consecutive timing marks, from
  // the first Run() call to the last return (see kTimingMarks).
  std::vector<double> run_segment_s;
  std::vector<double> cpu_segment_s;
  double run_s = 0;  // sum of run_segment_s
  double cpu_s = 0;  // setup_cpu_s plus the sum of cpu_segment_s
  double runner_overhead_s = 0;  // RunTrials wall time minus the trial body
  SimOutputs sim;
  TraceOutputs trace;  // zero unless traced
};

// Seed of input `k` of a run with seed `run_seed`.
uint64_t TrialSeed(uint64_t run_seed, int k);

// Runs one trial through runner::RunTrials (jobs = 1) with base seed `seed`.
// `traced` puts the decorators and spans in; `packet_reference` forces the
// hybrid engine off (the FCT reference for the hybrid workloads).
TrialOutcome RunTrial(const Workload& w, uint64_t seed, bool traced,
                      bool packet_reference = false);

}  // namespace perfbench
