#include "nic/rdma_nic.h"

#include <algorithm>
#include <limits>

#include "host/host_device.h"

namespace dcqcn {

RdmaNic::RdmaNic(EventQueue* eq, int id, NicConfig config, QueuePool* pool,
                 EventQueue* host_eq)
    : Node(id, /*num_ports=*/1), eq_(eq), config_(config) {
  config_.params.Validate();
  ctrl_out_.SetPool(pool);
  pfc_out_.SetPool(pool);
  if (config_.host_path.enabled) {
    host_path_ = std::make_unique<host::HostPathDevice>(
        host_eq != nullptr ? host_eq : eq_, config_.host_path, id);
  }
}

RdmaNic::~RdmaNic() {
  eq_->Cancel(wakeup_);
  eq_->Cancel(qp_tick_);
  for (const EventHandle& h : storm_timer_) eq_->Cancel(h);
  for (const EventHandle& h : rx_pause_expiry_) eq_->Cancel(h);
  // qps_ (destroyed after this body) remove their timer nodes from
  // qp_timer_heap_ via CancelQpTimer; the heap outlives them here.
}

Rate RdmaNic::line_rate() const {
  Link* l = link(0);
  DCQCN_CHECK(l != nullptr);
  return l->rate();
}

void RdmaNic::SetTracer(telemetry::EventTracer* tracer) {
  tracer_ = tracer;
  for (auto& qp : qps_) qp->SetTracer(tracer);
}

SenderQp* RdmaNic::AddFlow(const FlowSpec& spec) {
  DCQCN_CHECK(spec.src_host == id());
  DCQCN_CHECK(spec.flow_id >= 0 && spec.flow_id < kMaxFlowId);
  const auto fid = static_cast<size_t>(spec.flow_id);
  if (qp_index_.size() <= fid) qp_index_.resize(fid + 1, nullptr);
  DCQCN_CHECK(qp_index_[fid] == nullptr);  // one QP per flow id
  auto qp = std::make_unique<SenderQp>(eq_, this, spec, config_,
                                       line_rate());
  SenderQp* raw = qp.get();
  raw->SetTracer(tracer_);
  qps_.push_back(std::move(qp));
  qp_index_[fid] = raw;
  const Time delay = std::max<Time>(0, spec.start_time - eq_->Now());
  eq_->ScheduleIn(delay, [this, raw] {
    raw->Start();
    TrySend();
  });
  return raw;
}

SenderQp* RdmaNic::FindQp(int flow_id) const {
  const auto fid = static_cast<size_t>(flow_id);
  return flow_id >= 0 && fid < qp_index_.size() ? qp_index_[fid] : nullptr;
}

Bytes RdmaNic::ReceiverDeliveredBytes(int flow_id) const {
  const auto fid = static_cast<size_t>(flow_id);
  if (flow_id < 0 || fid >= rcv_index_.size()) return 0;
  const int32_t slot = rcv_index_[fid];
  return slot < 0 ? 0 : rcv_store_[static_cast<size_t>(slot)].delivered;
}

// (deadline, arm_seq) min-order: the new arm always carries the largest
// arm_seq, so equal deadlines pop in FIFO arm order — the order individually
// scheduled events would fire in.
bool RdmaNic::QpEarlier(const QpTimerEntry& a, const QpTimerEntry& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.arm_seq < b.arm_seq;
}

void RdmaNic::QpHeapSiftUp(uint32_t pos) {
  const QpTimerEntry e = qp_timer_heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) >> 2;
    if (!QpEarlier(e, qp_timer_heap_[parent])) break;
    qp_timer_heap_[pos] = qp_timer_heap_[parent];
    qp_timer_heap_[pos].node->heap_pos = pos;
    pos = parent;
  }
  qp_timer_heap_[pos] = e;
  e.node->heap_pos = pos;
}

void RdmaNic::QpHeapSiftDown(uint32_t pos) {
  const QpTimerEntry e = qp_timer_heap_[pos];
  const uint32_t n = static_cast<uint32_t>(qp_timer_heap_.size());
  for (;;) {
    const uint32_t first = (pos << 2) + 1;
    if (first >= n) break;
    uint32_t best = first;
    const uint32_t last = first + 4 < n ? first + 4 : n;
    for (uint32_t c = first + 1; c < last; ++c) {
      if (QpEarlier(qp_timer_heap_[c], qp_timer_heap_[best])) best = c;
    }
    if (!QpEarlier(qp_timer_heap_[best], e)) break;
    qp_timer_heap_[pos] = qp_timer_heap_[best];
    qp_timer_heap_[pos].node->heap_pos = pos;
    pos = best;
  }
  qp_timer_heap_[pos] = e;
  e.node->heap_pos = pos;
}

void RdmaNic::QpHeapRemove(uint32_t pos) {
  const uint32_t last = static_cast<uint32_t>(qp_timer_heap_.size()) - 1;
  qp_timer_heap_[pos].node->heap_pos = ~0u;
  if (pos != last) {
    qp_timer_heap_[pos] = qp_timer_heap_[last];
    qp_timer_heap_[pos].node->heap_pos = pos;
    qp_timer_heap_.pop_back();
    // The moved entry may violate order in either direction.
    QpHeapSiftDown(pos);
    QpHeapSiftUp(pos);
  } else {
    qp_timer_heap_.pop_back();
  }
}

void RdmaNic::ArmQpTimer(QpTimerNode* node, Time deadline) {
  if (node->armed) CancelQpTimer(node);  // re-arm replaces the old deadline
  node->deadline = deadline;
  node->arm_seq = ++qp_timer_arm_seq_;
  node->armed = true;
  qp_timer_heap_.push_back(QpTimerEntry{deadline, node->arm_seq, node});
  QpHeapSiftUp(static_cast<uint32_t>(qp_timer_heap_.size()) - 1);
  ScheduleQpTick();
}

void RdmaNic::CancelQpTimer(QpTimerNode* node) {
  if (!node->armed) return;
  QpHeapRemove(node->heap_pos);
  node->armed = false;
}

void RdmaNic::ScheduleQpTick() {
  if (qp_timer_heap_.empty()) return;
  const Time head = qp_timer_heap_[0].deadline;
  // An earlier pending tick covers this deadline: when it fires it services
  // whatever is due and re-arms for the then-current head. (Spurious early
  // wakeups service nothing; they cost one no-op event, not correctness.)
  if (qp_tick_.valid() && qp_tick_at_ <= head) return;
  eq_->Cancel(qp_tick_);
  qp_tick_at_ = head;
  qp_tick_ = eq_->ScheduleAt(head, [this] {
    qp_tick_ = EventHandle{};
    ServiceQpTimers();
  });
}

void RdmaNic::ServiceQpTimers() {
  const Time now = eq_->Now();
  while (!qp_timer_heap_.empty() && qp_timer_heap_[0].deadline <= now) {
    QpTimerNode* node = qp_timer_heap_[0].node;
    CancelQpTimer(node);  // pop before dispatch; the QP may re-arm inside
    node->qp->ServiceCcTimer(static_cast<CcTimerKind>(node->kind));
  }
  ScheduleQpTick();
}

void RdmaNic::OnQpActivated(SenderQp* /*qp*/) { TrySend(); }

void RdmaNic::OnMessageComplete(SenderQp* /*qp*/, const FlowRecord& rec) {
  if (retain_completed_) completed_.push_back(rec);
  for (const auto& cb : completion_cbs_) cb(rec);
}

void RdmaNic::SetTxSuspended(bool suspended) {
  if (tx_suspended_ == suspended) return;
  tx_suspended_ = suspended;
  if (!suspended) TrySend();
}

void RdmaNic::HybridAdvanceReceiver(const FlowSpec& spec, uint64_t upto_seq) {
  DCQCN_CHECK(spec.dst_host == id());
  Packet p;
  p.flow_id = spec.flow_id;
  p.src_host = spec.src_host;
  p.transport = spec.mode;
  p.ecmp_key = FlowEcmpKey(spec.flow_id, spec.ecmp_salt);
  RcvFlow& rcv = RcvSlot(p);
  if (upto_seq <= rcv.expect) return;
  const uint64_t pkts = upto_seq - rcv.expect;
  // Byte-exact for full-message advances; the last packet may be short, but
  // the epoch controller only advances to message/ack boundaries with sizes
  // it computed from the sender's cursors — `delivered` here is telemetry.
  rcv.delivered += static_cast<Bytes>(pkts) * kMtu;
  rcv.expect = upto_seq;
  rcv.in_order_since_ack = 0;
}

void RdmaNic::RemoveFlow(int flow_id) {
  const auto fid = static_cast<size_t>(flow_id);
  // Sender side.
  if (flow_id >= 0 && fid < qp_index_.size() && qp_index_[fid] != nullptr) {
    SenderQp* qp = qp_index_[fid];
    DCQCN_CHECK(qp->started() && qp->complete());
    qp_index_[fid] = nullptr;
    for (size_t i = 0; i < qps_.size(); ++i) {
      if (qps_[i].get() != qp) continue;
      qps_[i] = std::move(qps_.back());
      qps_.pop_back();
      break;
    }
  }
  // Receiver side: packed swap-erase with index fixup.
  if (flow_id >= 0 && fid < rcv_index_.size() && rcv_index_[fid] >= 0) {
    const auto slot = static_cast<size_t>(rcv_index_[fid]);
    rcv_index_[fid] = -1;
    const size_t last = rcv_store_.size() - 1;
    if (slot != last) {
      rcv_store_[slot] = rcv_store_[last];
      DCQCN_CHECK(rcv_store_[slot].flow_id >= 0);
      rcv_index_[static_cast<size_t>(rcv_store_[slot].flow_id)] =
          static_cast<int32_t>(slot);
    }
    rcv_store_.pop_back();
  }
}

void RdmaNic::OnTransmitComplete(int /*port*/) { TrySend(); }

void RdmaNic::ScheduleWakeupAt(Time t) {
  if (wakeup_armed_ && wakeup_time_ <= t) return;
  eq_->Cancel(wakeup_);
  wakeup_time_ = t;
  wakeup_armed_ = true;
  wakeup_ = eq_->ScheduleAt(t, [this] {
    wakeup_armed_ = false;
    TrySend();
  });
}

void RdmaNic::TrySend() {
  Link* l = link(0);
  if (l == nullptr || l->Busy(this)) return;
  const Time now = eq_->Now();

  // PFC frames (pause-storm fault mode) go ahead of all other traffic and
  // are never themselves subject to PFC.
  if (!pfc_out_.empty()) {
    Packet p = pfc_out_.front();
    pfc_out_.pop_front();
    l->Transmit(this, p);
    return;
  }

  // Control traffic (ACK/NAK/CNP) next — but it honors PFC for whatever
  // class the frame rides (CNPs use the high-priority class, ACK/NAK the
  // data class).
  if (!ctrl_out_.empty() &&
      !TxPaused(ctrl_out_.front().priority)) {
    Packet p = ctrl_out_.front();
    ctrl_out_.pop_front();
    l->Transmit(this, p);
    return;
  }

  // Hybrid wire drain: no new data enters flight while suspended (in-flight
  // packets keep getting ACKed above).
  if (tx_suspended_) return;

  // Data: round robin over QPs that are eligible right now.
  const size_t n = qps_.size();
  Time earliest_future = std::numeric_limits<Time>::max();
  size_t idx = rr_next_ < n ? rr_next_ : 0;
  for (size_t i = 0; i < n; ++i, idx = idx + 1 == n ? 0 : idx + 1) {
    SenderQp* qp = qps_[idx].get();
    if (!qp->HasPacketReady()) continue;
    if (TxPaused(qp->spec().priority)) continue;
    const Time at = qp->EligibleAt();
    if (at > now) {
      earliest_future = std::min(earliest_future, at);
      continue;
    }
    const Packet p = qp->BuildNextPacket();
    rr_next_ = idx + 1 == n ? 0 : idx + 1;
    counters_.data_packets_sent++;
    l->Transmit(this, p);
    qp->OnPacketSent(now, p);
    return;
  }
  if (earliest_future != std::numeric_limits<Time>::max()) {
    ScheduleWakeupAt(earliest_future);
  }
}

void RdmaNic::ReceivePacket(const Packet& p, int /*in_port*/) {
  const Time now = eq_->Now();
  switch (p.type) {
    case PacketType::kPause:
    case PacketType::kResume: {
      counters_.pause_frames_received++;
      const bool pause = p.type == PacketType::kPause;
      const size_t pr = static_cast<size_t>(p.pfc_priority);
      if (tracer_ && TxPaused(p.pfc_priority) != pause) {
        tracer_->Record(now,
                        pause ? telemetry::TraceEventType::kPauseRx
                              : telemetry::TraceEventType::kResumeRx,
                        id(), /*port=*/0, p.pfc_priority, -1, 0);
      }
      SetTxPaused(p.pfc_priority, pause);
      eq_->Cancel(rx_pause_expiry_[pr]);
      if (pause && config_.pfc_pause_expiry > 0) {
        // Pause-quanta timeout (see SwitchConfig::pfc_pause_expiry): a lost
        // RESUME can't leave this NIC muted forever.
        rx_pause_expiry_[pr] =
            eq_->ScheduleIn(config_.pfc_pause_expiry, [this, pr] {
              if (tracer_ && TxPaused(static_cast<int>(pr))) {
                tracer_->Record(eq_->Now(),
                                telemetry::TraceEventType::kResumeRx, id(),
                                /*port=*/0, static_cast<int8_t>(pr), -1, 0);
              }
              SetTxPaused(static_cast<int>(pr), false);
              TrySend();
            });
      }
      if (!pause) TrySend();
      return;
    }
    case PacketType::kData:
      HandleData(p);
      return;
    case PacketType::kAck: {
      if (SenderQp* qp = FindQp(p.flow_id)) {
        qp->OnAck(now, p.seq, p.ecn_ce, p.tx_timestamp);
      }
      return;
    }
    case PacketType::kNak: {
      if (SenderQp* qp = FindQp(p.flow_id)) qp->OnNak(now, p.seq);
      return;
    }
    case PacketType::kCnp: {
      if (SenderQp* qp = FindQp(p.flow_id)) qp->OnCnp(now);
      return;
    }
    case PacketType::kQcnFeedback: {
      if (SenderQp* qp = FindQp(p.flow_id)) qp->OnQcnFeedback(now, p.qcn_fbq);
      return;
    }
  }
}

RdmaNic::RcvFlow& RdmaNic::RcvSlot(const Packet& p) {
  DCQCN_CHECK(p.flow_id >= 0 && p.flow_id < kMaxFlowId);
  const auto fid = static_cast<size_t>(p.flow_id);
  if (rcv_index_.size() <= fid) rcv_index_.resize(fid + 1, -1);
  int32_t slot = rcv_index_[fid];
  if (slot < 0) {
    slot = static_cast<int32_t>(rcv_store_.size());
    rcv_index_[fid] = slot;
    RcvFlow rcv;
    rcv.src_host = p.src_host;
    rcv.flow_id = p.flow_id;
    rcv.ecmp_key = p.ecmp_key;
    rcv.transport = p.transport;
    rcv_store_.push_back(rcv);
  }
  return rcv_store_[static_cast<size_t>(slot)];
}

void RdmaNic::HandleData(const Packet& p) {
  const Time now = eq_->Now();
  counters_.data_packets_received++;
  // Note: valid for the rest of this function only — packet delivery is
  // never reentrant (links deliver via scheduled events), so rcv_store_
  // cannot grow underneath the reference.
  RcvFlow& rcv = RcvSlot(p);
  rcv.last_data_ts = p.tx_timestamp;

  // NP: CE-marked packets of DCQCN flows elicit CNPs (Fig. 6), at most one
  // per flow per cnp_interval and subject to the NIC-wide generation gate.
  if (p.ecn_ce) {
    counters_.marked_packets_received++;
    if (p.transport == TransportMode::kRdmaDcqcn &&
        rcv.np.OnMarkedPacket(now, config_.params) &&
        cnp_gate_.Allow(now, config_.params)) {
      counters_.cnps_sent++;
      if (tracer_) {
        tracer_->Record(now, telemetry::TraceEventType::kCnpTx, id(),
                        /*port=*/0, static_cast<int8_t>(kControlPriority),
                        p.flow_id, 0);
      }
      SendControl(PacketType::kCnp, rcv, p.flow_id, /*seq=*/0,
                  /*ecn_echo=*/false);
    }
  }

  if (p.message_restart && p.seq < rcv.expect) {
    // Go-back-0: the sender restarted the in-progress message; rewind the
    // expected sequence and take the retransmission in order. (Duplicate
    // payload bytes are counted again in `delivered` — goodput accounting
    // for lossy runs uses sender-side completion records instead.)
    rcv.expect = p.seq;
  }
  if (p.seq == rcv.expect) {
    // In-order delivery.
    rcv.expect++;
    rcv.delivered += p.size_bytes;
    rcv.in_order_since_ack++;
    if (p.transport == TransportMode::kDctcp) {
      // DCTCP: per-packet ACK echoing this packet's CE bit.
      counters_.acks_sent++;
      SendControl(PacketType::kAck, rcv, p.flow_id, rcv.expect, p.ecn_ce);
    } else if (p.last_of_message ||
               rcv.in_order_since_ack >= config_.ack_every) {
      counters_.acks_sent++;
      rcv.in_order_since_ack = 0;
      SendControl(PacketType::kAck, rcv, p.flow_id, rcv.expect,
                  /*ecn_echo=*/false);
    }
  } else if (p.seq > rcv.expect) {
    // Gap: a packet was lost (or reordered). Go-back-N: ask the sender to
    // rewind, paced so a burst of out-of-order arrivals sends one NAK.
    counters_.out_of_order_packets++;
    if (!rcv.nak_ever || now - rcv.last_nak >= config_.nak_min_gap) {
      rcv.nak_ever = true;
      rcv.last_nak = now;
      counters_.naks_sent++;
      SendControl(PacketType::kNak, rcv, p.flow_id, rcv.expect,
                  /*ecn_echo=*/false);
    }
  } else {
    // Duplicate of already-delivered data (post-rewind overlap): re-ACK so
    // the sender's cumulative state advances.
    if (!rcv.nak_ever || now - rcv.last_nak >= config_.nak_min_gap) {
      rcv.last_nak = now;
      counters_.acks_sent++;
      SendControl(PacketType::kAck, rcv, p.flow_id, rcv.expect,
                  p.transport == TransportMode::kDctcp && p.ecn_ce);
    }
  }
}

void RdmaNic::EmitStormPause(int priority) {
  Packet f;
  f.type = PacketType::kPause;
  f.size_bytes = kControlFrameBytes;
  f.pfc_priority = static_cast<int8_t>(priority);
  f.priority = kControlPriority;
  pfc_out_.push_back(f);
  counters_.pause_frames_sent++;
  if (tracer_) {
    tracer_->Record(eq_->Now(), telemetry::TraceEventType::kPauseTx, id(),
                    /*port=*/0, static_cast<int8_t>(priority), -1, 0);
  }
  TrySend();
}

void RdmaNic::RearmStorm(size_t pr) {
  if (storm_refresh_[pr] == 0) return;  // storm stopped meanwhile
  EmitStormPause(static_cast<int>(pr));
  storm_timer_[pr] =
      eq_->ScheduleIn(storm_refresh_[pr], [this, pr] { RearmStorm(pr); });
}

void RdmaNic::StartPauseStorm(int priority, Time refresh) {
  DCQCN_CHECK(priority >= 0 && priority < kNumPriorities);
  DCQCN_CHECK(refresh > 0);
  const auto pr = static_cast<size_t>(priority);
  eq_->Cancel(storm_timer_[pr]);  // restart overrides an active storm
  storm_refresh_[pr] = refresh;
  // Babble: assert PAUSE now and keep re-asserting until stopped, like
  // firmware stuck in its flow-control path. With the simulator's latching
  // PFC semantics the repeats keep the upstream paused state (and its pause
  // counters) live for the storm's whole lifetime.
  EmitStormPause(priority);
  storm_timer_[pr] =
      eq_->ScheduleIn(refresh, [this, pr] { RearmStorm(pr); });
}

void RdmaNic::StopPauseStorm(int priority) {
  DCQCN_CHECK(priority >= 0 && priority < kNumPriorities);
  const auto pr = static_cast<size_t>(priority);
  if (storm_refresh_[pr] == 0) return;
  storm_refresh_[pr] = 0;
  eq_->Cancel(storm_timer_[pr]);
  Packet f;
  f.type = PacketType::kResume;
  f.size_bytes = kControlFrameBytes;
  f.pfc_priority = static_cast<int8_t>(priority);
  f.priority = kControlPriority;
  pfc_out_.push_back(f);
  if (tracer_) {
    tracer_->Record(eq_->Now(), telemetry::TraceEventType::kResumeTx, id(),
                    /*port=*/0, static_cast<int8_t>(priority), -1, 0);
  }
  TrySend();
}

void RdmaNic::SetControlDelay(Time delay) {
  DCQCN_CHECK(delay >= 0);
  control_delay_ = delay;
  // A slow host's stall hits its own send path too: stretch the host-path
  // doorbell drain by the same delay (no-op without a device).
  if (host_path_ != nullptr) host_path_->SetDrainDelay(delay);
}

void RdmaNic::SendControl(PacketType type, const RcvFlow& rcv, int flow_id,
                          uint64_t seq, bool ecn_echo) {
  Packet c;
  c.type = type;
  c.flow_id = flow_id;
  c.src_host = id();
  c.dst_host = rcv.src_host;
  // Only CNPs ride the high-priority class ("we send CNPs with high
  // priority", §3.3); ACKs and NAKs share the data class like any RoCE
  // response, so reverse-path congestion delays them — the effect TIMELY
  // is sensitive to and DCQCN is not.
  c.priority =
      type == PacketType::kCnp ? kControlPriority : kDataPriority;
  c.size_bytes = kControlFrameBytes;
  c.seq = seq;
  c.ecn_ce = ecn_echo;
  c.transport = rcv.transport;
  c.tx_timestamp = type == PacketType::kAck ? rcv.last_data_ts : 0;
  c.ecmp_key = rcv.ecmp_key;
  EnqueueControl(c);
}

void RdmaNic::EnqueueControl(const Packet& c) {
  if (control_delay_ > 0) {
    // Slow-receiver fault: the response pipeline is stalled. Same-delay
    // events fire in FIFO order, so delayed control stays ordered.
    eq_->ScheduleIn(control_delay_, [this, c] {
      ctrl_out_.push_back(c);
      TrySend();
    });
    return;
  }
  ctrl_out_.push_back(c);
  TrySend();
}

}  // namespace dcqcn
