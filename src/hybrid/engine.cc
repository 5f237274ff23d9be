#include "hybrid/engine.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "net/packet.h"

namespace dcqcn::hybrid {

bool ParseHybridSpec(const std::string& spec, HybridConfig* out) {
  HybridConfig cfg;
  if (!spec.empty() && spec != "on") {
    size_t pos = 0;
    while (pos <= spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string kv = spec.substr(pos, comma - pos);
      pos = comma + 1;
      const size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      char* end = nullptr;
      const double d = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') return false;
      if (key == "check") {
        cfg.check_interval = static_cast<Time>(d * kMicrosecond);
      } else if (key == "eps") {
        cfg.eps = d;
      } else if (key == "queue_frac") {
        cfg.queue_frac = d;
      } else if (key == "max_epoch") {
        cfg.max_epoch = static_cast<Time>(d * kMicrosecond);
      } else if (key == "guard") {
        cfg.fault_guard = static_cast<Time>(d * kMicrosecond);
      } else if (key == "release") {
        cfg.release_completed = d != 0;
      } else {
        return false;
      }
      if (comma == spec.size()) break;
    }
  }
  if (cfg.check_interval <= 0 || cfg.max_epoch <= 0) return false;
  if (cfg.eps < 0 || cfg.eps >= 1) return false;
  if (cfg.queue_frac < 0 || cfg.fault_guard < 0) return false;
  *out = cfg;
  return true;
}

const char* RejectReasonName(RejectReason r) {
  switch (r) {
    case RejectReason::kLoss: return "loss";
    case RejectReason::kFaultWindow: return "fault_window";
    case RejectReason::kQueue: return "queue";
    case RejectReason::kPfc: return "pfc";
    case RejectReason::kSlowReceiver: return "slow_receiver";
    case RejectReason::kNotStarted: return "not_started";
    case RejectReason::kWindowBased: return "window_based";
    case RejectReason::kMultiMessage: return "multi_message";
    case RejectReason::kLossRewind: return "loss_rewind";
    case RejectReason::kNothingToElide: return "nothing_to_elide";
    case RejectReason::kInfeasible: return "infeasible";
    case RejectReason::kNone: break;
  }
  return "none";
}

namespace {

// Every link's rate, by Link::index().
std::vector<Rate> LinkCapacities(const Network& net) {
  std::vector<Rate> cap;
  cap.reserve(net.links().size());
  for (const auto& l : net.links()) {
    DCQCN_CHECK(l->index() == static_cast<int32_t>(cap.size()));
    cap.push_back(l->rate());
  }
  return cap;
}

}  // namespace

HybridEngine::HybridEngine(Network* net, const HybridConfig& cfg,
                           const FaultPlan* faults)
    : net_(net), cfg_(cfg), solver_(LinkCapacities(*net)) {
  DCQCN_CHECK(!net->sharded());  // single-queue engine only (CLI enforces)
  if (faults != nullptr) faults_ = *faults;
  net_->SetFlowObserver([this](SenderQp* qp) { OnFlowStarted(qp); });
}

HybridEngine::~HybridEngine() { net_->SetFlowObserver(nullptr); }

uint64_t HybridEngine::Run(Time deadline) {
  EventQueue& eq = net_->eq();
  const uint64_t before = executed_;
  while (eq.Now() < deadline) {
    if (in_ff_) {
      StepFlowMode(deadline);
      continue;
    }
    const Time t = std::min(deadline, eq.Now() + cfg_.check_interval);
    executed_ += net_->Run(t);
    if (eq.Now() >= deadline) break;
    Probe();
  }
  // Never leave tx suspended across Run calls: a caller interleaving its own
  // probes or Network access must see the plain packet engine.
  if (in_ff_) ExitFlowMode(eq.Now(), /*infeasible=*/false, /*fault=*/false);
  return executed_ - before;
}

void HybridEngine::OnFlowStarted(SenderQp* qp) {
  const size_t id = static_cast<size_t>(qp->spec().flow_id);
  if (reg_pos_.size() <= id) reg_pos_.resize(id + 1, -1);
  DCQCN_CHECK(reg_pos_[id] < 0);  // ids recycle only after removal
  reg_pos_[id] = static_cast<int32_t>(active_.size());
  active_.push_back(qp);
  if (in_ff_) pending_arrivals_.push_back(qp);
}

void HybridEngine::SweepCompleted() {
  size_t i = 0;
  while (i < active_.size()) {
    SenderQp* qp = active_[i];
    if (!qp->complete()) {
      ++i;
      continue;
    }
    const FlowSpec spec = qp->spec();  // copy: release may outrun the QP
    active_[i] = active_.back();
    reg_pos_[static_cast<size_t>(active_[i]->spec().flow_id)] =
        static_cast<int32_t>(i);
    active_.pop_back();
    reg_pos_[static_cast<size_t>(spec.flow_id)] = -1;
    // Deferred inside Network; the id recycles only after the drain.
    if (cfg_.release_completed) net_->ReleaseFlow(spec);
  }
}

// --- packet mode ------------------------------------------------------------

void HybridEngine::Probe() {
  ++stats_.probes;
  SweepCompleted();
  RejectReason r = FabricReject();
  if (r == RejectReason::kNone) r = TryEnterFlowMode();
  if (r == RejectReason::kNone) return;
  ++stats_.entry_rejects;
  ++stats_.rejects[static_cast<size_t>(r)];
}

RejectReason HybridEngine::FabricReject() {
  const Time now = net_->eq().Now();
  // Loss activity since the last probe; baselines refresh unconditionally.
  const int64_t drops = net_->TotalDrops();
  const int64_t naks = net_->TotalNaks();
  const bool quiet = drops == last_drops_ && naks == last_naks_;
  last_drops_ = drops;
  last_naks_ = naks;
  if (!quiet) return RejectReason::kLoss;
  if (InFaultWindow(now)) return RejectReason::kFaultWindow;
  // One pass per node kind; a later reason is only returned once no earlier
  // one holds anywhere.
  bool pfc = false;
  for (const auto& sw : net_->switches()) {
    // Below RED kmin nothing marks, so packet-level CC would see no signal;
    // queue_frac keeps a margin under it.
    const Bytes limit = static_cast<Bytes>(
        cfg_.queue_frac * static_cast<double>(sw->config().red.kmin));
    if (sw->shared_occupancy() > limit) return RejectReason::kQueue;
    pfc = pfc || sw->AnyPfcActive();
  }
  if (pfc) return RejectReason::kPfc;
  bool slow = false;
  for (const auto& nic : net_->hosts()) {
    if (nic->AnyTxPaused()) return RejectReason::kPfc;
    slow = slow || nic->control_delay() > 0;
  }
  return slow ? RejectReason::kSlowReceiver : RejectReason::kNone;
}

RejectReason HybridEngine::FlowReject(const SenderQp* qp) {
  if (!qp->started() || qp->unbounded()) return RejectReason::kNotStarted;
  if (qp->cc().window_based()) return RejectReason::kWindowBased;
  if (qp->OutstandingMessages() > 1) return RejectReason::kMultiMessage;
  if (qp->snd_next() < qp->snd_high()) return RejectReason::kLossRewind;
  return RejectReason::kNone;
}

bool HybridEngine::InFaultWindow(Time t) const {
  for (const FaultSpec& f : faults_.faults) {
    if (t < f.at - cfg_.fault_guard) continue;
    if (!f.bounded() || t < f.end() + cfg_.fault_guard) return true;
  }
  return false;
}

Time HybridEngine::NextFaultBoundary(Time after) const {
  Time best = kTimeMax;
  for (const FaultSpec& f : faults_.faults) {
    const Time lo = f.at - cfg_.fault_guard;
    if (lo > after) best = std::min(best, lo);
    if (f.bounded()) {
      const Time hi = f.end() + cfg_.fault_guard;
      if (hi > after) best = std::min(best, hi);
    }
  }
  return best;
}

// --- flow mode --------------------------------------------------------------

RejectReason HybridEngine::TryEnterFlowMode() {
  // All-or-nothing: a window-based, multi-message, rewinding, unbounded or
  // not-yet-started flow pins the whole network to packet mode (suspending
  // its NIC while others fast-forward would distort it).
  RejectReason worst = RejectReason::kNone;
  todo_.clear();
  for (SenderQp* qp : active_) {
    worst = std::min(worst, FlowReject(qp));
    if (worst == RejectReason::kNotStarted) return worst;  // first flow rank
    if (!qp->complete() && qp->snd_next() < qp->send_limit())
      todo_.push_back(qp);
  }
  if (worst != RejectReason::kNone) return worst;
  if (todo_.empty()) return RejectReason::kNothingToElide;

  in_ff_ = true;
  ff_entry_ = net_->eq().Now();
  for (SenderQp* qp : todo_) {
    if (!ModelFlow(qp)) {
      for (const FfFlow& f : ff_flows_)
        ff_pos_[static_cast<size_t>(f.flow_id)] = -1;
      ff_flows_.clear();
      in_ff_ = false;
      return RejectReason::kInfeasible;
    }
  }
  // Nothing ran between the models (pure computation), so the frozen pacing
  // clocks are exactly the wire's. In-flight traffic keeps running
  // physically and drains itself under the suspension.
  for (const auto& nic : net_->hosts()) nic->SetTxSuspended(true);
  ++stats_.epochs;
  return RejectReason::kNone;
}

bool HybridEngine::ModelFlow(SenderQp* qp) {
  if (FlowReject(qp) != RejectReason::kNone) return false;
  if (qp->complete() || qp->snd_next() >= qp->send_limit()) {
    // Fully sent (or raced to completion): the physical in-flight tail
    // finishes it without our help.
    return true;
  }

  FfFlow f;
  f.qp = qp;
  f.flow_id = qp->spec().flow_id;
  f.k0 = qp->snd_next();
  f.end = qp->send_limit();
  f.reff = qp->cc().RateCap();
  if (f.reff <= 0) return false;

  net_->FlowPathLinks(qp->spec(), &path_);
  f.link_idx.reserve(path_.size());
  for (const Link* l : path_) f.link_idx.push_back(l->index());
  if (!AllocationFeasible(&f)) return false;

  FlowSpec rspec = qp->spec();
  std::swap(rspec.src_host, rspec.dst_host);
  net_->FlowPathLinks(rspec, &rpath_);

  // Mirror of SenderQp pacing + Link store-and-forward, in integer ps:
  // packet k sends at u0 + (k - k0) * gap, the last packet traverses the
  // path in sum(ser + prop), its synchronously generated ACK returns over
  // the reverse path, and the pacing clock lands one short-packet gap after
  // the last send.
  f.u0 = std::max(qp->next_allowed(), net_->eq().Now());
  f.gap = TransmissionTime(kMtu, f.reff);
  const Bytes s_last = qp->PacketBytesAt(f.end - 1);
  const Time d_ack = PathControlLatency(rpath_);
  const Time t_last =
      f.u0 + static_cast<Time>(f.end - 1 - f.k0) * f.gap;
  f.comp = t_last + PathDataLatency(path_, s_last) + d_ack;
  f.na_final = t_last + TransmissionTime(s_last, f.reff);
  f.rtt_hint = PathDataLatency(path_, kMtu) + d_ack;

  const size_t id = static_cast<size_t>(f.flow_id);
  if (ff_pos_.size() <= id) ff_pos_.resize(id + 1, -1);
  DCQCN_CHECK(ff_pos_[id] < 0);
  ff_pos_[id] = static_cast<int32_t>(ff_flows_.size());
  ff_flows_.push_back(std::move(f));
  return true;
}

bool HybridEngine::AllocationFeasible(const FfFlow* candidate) {
  solver_.Clear();
  for (const FfFlow& f : ff_flows_) solver_.Add(f.reff, f.link_idx);
  if (candidate != nullptr) solver_.Add(candidate->reff, candidate->link_idx);
  const std::vector<Rate>& rate = solver_.Solve();
  for (size_t i = 0; i < ff_flows_.size(); ++i) {
    if (rate[i] < ff_flows_[i].reff * (1.0 - cfg_.eps)) return false;
  }
  return candidate == nullptr ||
         rate.back() >= candidate->reff * (1.0 - cfg_.eps);
}

void HybridEngine::StepFlowMode(Time deadline) {
  EventQueue& eq = net_->eq();
  const Time now0 = eq.Now();
  // Epoch bound: earliest of deadline, max_epoch, the next fault boundary,
  // the earliest analytic completion, and the next scheduled packet-level
  // event (workload timers, start events, in-flight deliveries).
  Time t = std::min(deadline, now0 + cfg_.max_epoch);
  const Time fb = NextFaultBoundary(now0);
  if (fb < t) t = fb;
  for (const FfFlow& f : ff_flows_) {
    if (f.comp < t) t = f.comp;
  }
  const Time ev = eq.NextEventTime();
  if (ev != EventQueue::kNoEventTime && ev < t) t = ev;

  executed_ += net_->Run(t);
  const Time now = eq.Now();

  if (!ProcessPendingArrivals()) {
    ExitFlowMode(now, /*infeasible=*/true, /*fault=*/false);
    return;
  }
  ApplyDueCompletions(now);
  // Completion callbacks may have launched or re-armed flows.
  if (!ProcessPendingArrivals()) {
    ExitFlowMode(now, /*infeasible=*/true, /*fault=*/false);
    return;
  }
  if (InFaultWindow(now)) {
    ExitFlowMode(now, /*infeasible=*/false, /*fault=*/true);
    return;
  }
}

bool HybridEngine::ProcessPendingArrivals() {
  for (size_t i = 0; i < pending_arrivals_.size(); ++i) {
    SenderQp* qp = pending_arrivals_[i];
    const size_t id = static_cast<size_t>(qp->spec().flow_id);
    if (id < ff_pos_.size() && ff_pos_[id] >= 0) continue;  // already modeled
    if (!ModelFlow(qp)) {
      pending_arrivals_.clear();  // survivors proceed physically after exit
      return false;
    }
  }
  pending_arrivals_.clear();
  return true;
}

void HybridEngine::ApplyDueCompletions(Time now) {
  for (;;) {
    size_t best = ff_flows_.size();
    for (size_t i = 0; i < ff_flows_.size(); ++i) {
      const FfFlow& f = ff_flows_[i];
      if (f.comp > now) continue;
      if (best == ff_flows_.size() || f.comp < ff_flows_[best].comp ||
          (f.comp == ff_flows_[best].comp &&
           f.flow_id < ff_flows_[best].flow_id)) {
        best = i;
      }
    }
    if (best == ff_flows_.size()) return;
    CompleteFlow(best);
  }
}

void HybridEngine::CompleteFlow(size_t idx) {
  const FfFlow f = std::move(ff_flows_[idx]);  // callbacks may mutate the set
  // Unlink before the callbacks run so re-entrant observers see a
  // consistent modeled set.
  const size_t last = ff_flows_.size() - 1;
  if (idx != last) {
    ff_flows_[idx] = std::move(ff_flows_[last]);
    ff_pos_[static_cast<size_t>(ff_flows_[idx].flow_id)] =
        static_cast<int32_t>(idx);
  }
  ff_flows_.pop_back();
  ff_pos_[static_cast<size_t>(f.flow_id)] = -1;

  stats_.ff_packets += static_cast<int64_t>(f.end - f.qp->snd_next());
  net_->host(f.qp->spec().dst_host)
      ->HybridAdvanceReceiver(f.qp->spec(), f.end);
  // Completes covered messages at f.comp through the normal FlowRecord
  // path; may re-enqueue (closed loop) — folded back in as an arrival.
  f.qp->HybridAdvance(f.comp, f.end, f.na_final);
  ++stats_.ff_completions;
  if (!f.qp->complete()) pending_arrivals_.push_back(f.qp);
}

void HybridEngine::ExitFlowMode(Time t_exit, bool infeasible, bool fault) {
  for (const FfFlow& f : ff_flows_) {
    SenderQp* qp = f.qp;
    // Conservative partial advance: only packets whose analytic ACK is back
    // by t_exit. The un-ACK-able pipeline tail (at most ~1 RTT of virtual
    // sends) is discarded and re-sent physically — bounded per-exit cost.
    uint64_t b = qp->snd_next();
    if (t_exit >= f.u0 + f.rtt_hint) {
      const uint64_t n = static_cast<uint64_t>(
                             (t_exit - f.u0 - f.rtt_hint) / f.gap) +
                         1;
      b = std::min(f.k0 + n, f.end - 1);
      b = std::max(b, qp->snd_next());
    }
    if (b > qp->snd_next()) {
      stats_.ff_packets += static_cast<int64_t>(b - qp->snd_next());
      net_->host(qp->spec().dst_host)->HybridAdvanceReceiver(qp->spec(), b);
      qp->HybridAdvance(t_exit, b, /*next_allowed=*/t_exit);
    }
    // Packet-level CC resumes from the flow-level allocation (== the cap
    // within eps, by the feasibility gate).
    qp->ReseedCc(f.reff, f.rtt_hint);
    ff_pos_[static_cast<size_t>(f.flow_id)] = -1;
  }
  ff_flows_.clear();
  pending_arrivals_.clear();  // unmodeled arrivals just run physically
  for (const auto& nic : net_->hosts()) nic->SetTxSuspended(false);
  in_ff_ = false;
  stats_.ff_time += t_exit - ff_entry_;
  if (infeasible) ++stats_.exits_infeasible;
  if (fault) ++stats_.exits_fault;
}

// --- path arithmetic --------------------------------------------------------

Time HybridEngine::PathDataLatency(const std::vector<Link*>& path,
                                   Bytes bytes) const {
  Time t = 0;
  for (const Link* l : path)
    t += TransmissionTime(bytes, l->rate()) + l->propagation();
  return t;
}

Time HybridEngine::PathControlLatency(const std::vector<Link*>& path) const {
  return PathDataLatency(path, kControlFrameBytes);
}

}  // namespace dcqcn::hybrid
