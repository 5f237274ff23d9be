#include "perfbench/decorators.h"

#include <memory>
#include <utility>

namespace perfbench {
namespace {

using dcqcn::Bytes;
using dcqcn::CcAckSignal;
using dcqcn::CcHost;
using dcqcn::CcPolicy;
using dcqcn::CcTimerKind;
using dcqcn::Rate;
using dcqcn::Time;

Tracer* g_cc_tracer = nullptr;
CcCounts* g_cc_counts = nullptr;

class TracedCcPolicy final : public CcPolicy {
 public:
  TracedCcPolicy(std::unique_ptr<CcPolicy> inner, Tracer* tracer,
                 CcCounts* counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  const char* name() const override { return inner_->name(); }
  bool window_based() const override { return inner_->window_based(); }
  Rate CurrentRate() const override { return inner_->CurrentRate(); }
  Rate MinRate() const override { return inner_->MinRate(); }
  Bytes Cwnd() const override { return inner_->Cwnd(); }

  void OnCnp(CcHost& host) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->on_cnp;
    inner_->OnCnp(host);
  }
  void OnAck(CcHost& host, const CcAckSignal& ack) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->on_ack;
    inner_->OnAck(host, ack);
  }
  void OnRttSample(CcHost& host, Time rtt) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->other;
    inner_->OnRttSample(host, rtt);
  }
  void OnBytesSent(CcHost& host, Bytes bytes) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->on_bytes_sent;
    inner_->OnBytesSent(host, bytes);
  }
  void OnQcnFeedback(CcHost& host, int fbq) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->other;
    inner_->OnQcnFeedback(host, fbq);
  }
  void OnTimer(CcHost& host, CcTimerKind kind) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->on_timer;
    inner_->OnTimer(host, kind);
  }

  Rate RateCap() const override { return inner_->RateCap(); }
  void ReseedRate(CcHost& host, Rate rate, Time rtt_hint) override {
    Span s(tracer_, Layer::kCc);
    ++counts_->other;
    inner_->ReseedRate(host, rate, rtt_hint);
  }

  const dcqcn::RpState* rp() const override { return inner_->rp(); }
  const dcqcn::TimelyState* timely() const override {
    return inner_->timely();
  }
  double dctcp_alpha() const override { return inner_->dctcp_alpha(); }

 private:
  std::unique_ptr<CcPolicy> inner_;
  Tracer* tracer_;
  CcCounts* counts_;
};

}  // namespace

void SetCcSink(Tracer* tracer, CcCounts* counts) {
  g_cc_tracer = tracer;
  g_cc_counts = counts;
}

int16_t TracedDcqcnPolicyId() {
  static const int16_t id = [] {
    const int16_t inner = dcqcn::CcPolicyIdByName("dcqcn");
    dcqcn::CcPolicyInfo info;
    info.name = "dcqcn-traced";
    info.mode = dcqcn::CcPolicyInfoById(inner).mode;
    info.make = [inner](const dcqcn::NicConfig& cfg, Rate line_rate)
        -> std::unique_ptr<CcPolicy> {
      DCQCN_CHECK(g_cc_counts != nullptr);
      return std::make_unique<TracedCcPolicy>(
          dcqcn::CreateCcPolicy(inner, cfg, line_rate), g_cc_tracer,
          g_cc_counts);
    };
    return dcqcn::RegisterCcPolicy(std::move(info));
  }();
  return id;
}

int TracedHost::LaunchFlow(const dcqcn::workload::EmitSpec& spec) {
  // SimWorkloadHost::LaunchFlow is one Network::StartFlow plus a slot write.
  Span s(tracer_, Layer::kNetStartFlow);
  return inner_.LaunchFlow(spec);
}

void TracedHost::ScheduleIn(Time delay, std::function<void()> cb) {
  Tracer* t = tracer_;
  inner_.ScheduleIn(delay, [t, cb = std::move(cb)] {
    Span s(t, Layer::kWorkloadLaunch);
    cb();
  });
}

void TracedPattern::Begin(dcqcn::workload::WorkloadHost& host) {
  host_.emplace(host, tracer_);
  Span s(tracer_, Layer::kWorkloadLaunch);
  inner_.Begin(*host_);
}

void TracedPattern::OnFlowComplete(dcqcn::workload::WorkloadHost& /*host*/,
                                   const dcqcn::FlowRecord& rec,
                                   uint64_t tag) {
  Span s(tracer_, Layer::kWorkloadCallback);
  inner_.OnFlowComplete(*host_, rec, tag);
}

LaunchedFlow* LaunchLedger::Find(int flow_id) {
  if (flow_id < 0 || static_cast<size_t>(flow_id) >= flows.size()) {
    return nullptr;
  }
  LaunchedFlow& f = flows[static_cast<size_t>(flow_id)];
  return f.src < 0 ? nullptr : &f;
}

int LedgerHost::LaunchFlow(const dcqcn::workload::EmitSpec& spec) {
  const int fid = inner_.LaunchFlow(spec);
  if (fid < 0) return fid;
  if (ledger_->flows.size() <= static_cast<size_t>(fid)) {
    ledger_->flows.resize(static_cast<size_t>(fid) + 1);
  }
  ledger_->flows[static_cast<size_t>(fid)] = {spec.src, spec.dst,
                                              Packets(spec.size_bytes), 1};
  ++ledger_->launched;
  return fid;
}

bool LedgerHost::EnqueueOnFlow(int flow_id, Bytes bytes) {
  if (!inner_.EnqueueOnFlow(flow_id, bytes)) return false;
  LaunchedFlow* f = ledger_->Find(flow_id);
  DCQCN_CHECK(f != nullptr);
  f->offered_packets += Packets(bytes);
  ++f->open;
  ++ledger_->launched;
  return true;
}

void LedgerPattern::Begin(dcqcn::workload::WorkloadHost& host) {
  host_.emplace(host, ledger_);
  inner_.Begin(*host_);
}

}  // namespace perfbench
