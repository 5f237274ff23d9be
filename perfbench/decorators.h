// Transparent decorators the benchmark puts between the simulator and two of
// its plug-in layers, so that calls into those layers can be counted and
// timed from the benchmark's own files:
//
//   * TracedCcPolicy wraps a DCQCN CcPolicy. It is registered as its own
//     policy ("dcqcn-traced") and stamped on every flow of a traced trial.
//   * TracedPattern wraps a WorkloadPattern and hands it a TracedHost, which
//     wraps the SimWorkloadHost the pattern emits through. Traced trials
//     only.
//   * LedgerPattern / LedgerHost record every flow the pattern launches, in
//     every trial, so the output checks can hold the workload layer's own
//     counts against a tally kept outside it.
//
// Each forwards every virtual call unchanged, so a traced trial's simulated
// outputs equal the untraced trial's bit for bit (perfbench_test checks it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cc/cc_policy.h"
#include "net/packet.h"
#include "perfbench/trace.h"
#include "workload/workload.h"

namespace perfbench {

// Calls into the CC layer, by signal.
struct CcCounts {
  int64_t on_cnp = 0;
  int64_t on_ack = 0;
  int64_t on_timer = 0;
  int64_t on_bytes_sent = 0;
  int64_t other = 0;  // RTT samples, QCN feedback, hybrid reseeds

  int64_t total() const {
    return on_cnp + on_ack + on_timer + on_bytes_sent + other;
  }
};

// Where TracedCcPolicy instances created from now on record. Policies are
// built by the CcPolicy registry, which has no per-trial context, so the
// (single-threaded) trial sets the sink before its first StartFlow.
void SetCcSink(Tracer* tracer, CcCounts* counts);

// Id of the "dcqcn-traced" policy; registers it on first use.
int16_t TracedDcqcnPolicyId();

class TracedHost final : public dcqcn::workload::WorkloadHost {
 public:
  TracedHost(dcqcn::workload::WorkloadHost& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  dcqcn::Time Now() const override { return inner_.Now(); }
  int num_hosts() const override { return inner_.num_hosts(); }
  int LaunchFlow(const dcqcn::workload::EmitSpec& spec) override;
  bool EnqueueOnFlow(int flow_id, dcqcn::Bytes bytes) override {
    return inner_.EnqueueOnFlow(flow_id, bytes);
  }
  void ScheduleIn(dcqcn::Time delay, std::function<void()> cb) override;
  dcqcn::workload::WorkloadMetrics& metrics() override {
    return inner_.metrics();
  }

 private:
  dcqcn::workload::WorkloadHost& inner_;
  Tracer* tracer_;
};

class TracedPattern final : public dcqcn::workload::WorkloadPattern {
 public:
  TracedPattern(dcqcn::workload::WorkloadPattern& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const char* name() const override { return inner_.name(); }
  void Begin(dcqcn::workload::WorkloadHost& host) override;
  void OnFlowComplete(dcqcn::workload::WorkloadHost& host,
                      const dcqcn::FlowRecord& rec, uint64_t tag) override;

 private:
  dcqcn::workload::WorkloadPattern& inner_;
  Tracer* tracer_;
  std::optional<TracedHost> host_;
};

// Packets a message of `bytes` takes on the wire.
inline int64_t Packets(dcqcn::Bytes bytes) {
  return (bytes + dcqcn::kMtu - 1) / dcqcn::kMtu;
}

// The flows a pattern launched, by network flow id. Ids are recycled once a
// flow is released, so an entry describes the latest flow with its id.
struct LaunchedFlow {
  int src = -1;  // host indices, as in EmitSpec
  int dst = -1;
  int64_t offered_packets = 0;  // over every message launched on the flow
  int64_t open = 0;             // messages not yet completed
};

struct LaunchLedger {
  std::vector<LaunchedFlow> flows;
  int64_t launched = 0;  // flows launched plus messages enqueued

  // The entry of `flow_id`, or null if no flow with that id was launched.
  LaunchedFlow* Find(int flow_id);
};

class LedgerHost final : public dcqcn::workload::WorkloadHost {
 public:
  LedgerHost(dcqcn::workload::WorkloadHost& inner, LaunchLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  dcqcn::Time Now() const override { return inner_.Now(); }
  int num_hosts() const override { return inner_.num_hosts(); }
  int LaunchFlow(const dcqcn::workload::EmitSpec& spec) override;
  bool EnqueueOnFlow(int flow_id, dcqcn::Bytes bytes) override;
  void ScheduleIn(dcqcn::Time delay, std::function<void()> cb) override {
    inner_.ScheduleIn(delay, std::move(cb));
  }
  dcqcn::workload::WorkloadMetrics& metrics() override {
    return inner_.metrics();
  }

 private:
  dcqcn::workload::WorkloadHost& inner_;
  LaunchLedger* ledger_;
};

class LedgerPattern final : public dcqcn::workload::WorkloadPattern {
 public:
  LedgerPattern(dcqcn::workload::WorkloadPattern& inner, LaunchLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  const char* name() const override { return inner_.name(); }
  void Begin(dcqcn::workload::WorkloadHost& host) override;
  void OnFlowComplete(dcqcn::workload::WorkloadHost& /*host*/,
                      const dcqcn::FlowRecord& rec, uint64_t tag) override {
    inner_.OnFlowComplete(*host_, rec, tag);
  }

 private:
  dcqcn::workload::WorkloadPattern& inner_;
  LaunchLedger* ledger_;
  std::optional<LedgerHost> host_;
};

}  // namespace perfbench
