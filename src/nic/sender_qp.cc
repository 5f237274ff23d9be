#include "nic/sender_qp.h"

#include <algorithm>
#include <limits>

#include "nic/rdma_nic.h"

namespace dcqcn {

SenderQp::SenderQp(EventQueue* eq, RdmaNic* nic, FlowSpec spec,
                   const NicConfig& config, Rate line_rate)
    : eq_(eq),
      nic_(nic),
      spec_(spec),
      line_rate_(line_rate),
      rto_(config.rto),
      timer_jitter_(config.timer_jitter),
      pacing_jitter_(config.pacing_jitter),
      rng_(static_cast<uint64_t>(spec.flow_id) * 2654435761ULL + 12345),
      unbounded_(spec.unbounded()),
      go_back_zero_(config.go_back_zero) {
  DCQCN_CHECK(line_rate_ > 0);
  alpha_node_.qp = this;
  alpha_node_.kind = static_cast<uint8_t>(CcTimerKind::kAlpha);
  rate_node_.qp = this;
  rate_node_.kind = static_cast<uint8_t>(CcTimerKind::kRate);
  const int16_t policy_id = spec_.cc_policy >= 0
                                ? spec_.cc_policy
                                : DefaultCcPolicyId(spec_.mode);
  cc_ = CreateCcPolicy(policy_id, config, line_rate_);
  window_based_ = cc_->window_based();
  if (unbounded_) {
    // One endless message.
    messages_.push_back(Message{0, std::numeric_limits<uint64_t>::max(), 0,
                                spec_.start_time});
    send_limit_ = std::numeric_limits<uint64_t>::max();
  } else {
    EnqueueMessage(spec_.size_bytes);
  }
}

SenderQp::~SenderQp() {
  eq_->Cancel(retx_timer_);
  nic_->CancelQpTimer(&alpha_node_);
  nic_->CancelQpTimer(&rate_node_);
}

void SenderQp::EnqueueMessage(Bytes bytes) {
  DCQCN_CHECK(!unbounded_);
  DCQCN_CHECK(bytes > 0);
  const auto pkts = static_cast<uint64_t>((bytes + kMtu - 1) / kMtu);
  Message m;
  m.begin_seq = send_limit_;
  m.end_seq = send_limit_ + pkts;
  m.bytes = bytes;
  // The transfer clock starts when the message can first transmit: now for
  // an idle QP, or when the QP works through the backlog ahead of it (the
  // earlier enqueue time is what per-transfer goodput measures).
  m.start_time = std::max(eq_->Now(), spec_.start_time);
  messages_.push_back(m);
  send_limit_ = m.end_seq;
  if (started_) nic_->OnQpActivated(this);
}

void SenderQp::Start() {
  DCQCN_CHECK(!started_);
  started_ = true;
  actual_start_ = eq_->Now();
  next_allowed_ = eq_->Now();
}

bool SenderQp::WindowAllows() const {
  if (!window_based_) return true;
  const Bytes in_flight =
      static_cast<Bytes>(snd_next_ - snd_una_) * kMtu;
  return in_flight + kMtu <= cc_->Cwnd();
}

bool SenderQp::HasPacketReady() const {
  return started_ && snd_next_ < send_limit_ && WindowAllows();
}

Bytes SenderQp::PacketBytes(uint64_t seq) const {
  // Locate the message containing `seq` (the deque is short: outstanding
  // transfers on one QP).
  for (const Message& m : messages_) {
    if (seq < m.begin_seq || seq >= m.end_seq) continue;
    if (seq + 1 < m.end_seq) return kMtu;
    if (m.bytes == 0) return kMtu;  // unbounded sentinel
    const Bytes rem =
        m.bytes - static_cast<Bytes>(seq - m.begin_seq) * kMtu;
    return std::clamp<Bytes>(rem, 1, kMtu);
  }
  return kMtu;  // already-completed region (stale retransmit)
}

bool SenderQp::IsLastOfMessage(uint64_t seq) const {
  for (const Message& m : messages_) {
    if (seq + 1 == m.end_seq) return true;
    if (seq < m.end_seq) return false;
  }
  return false;
}

Packet SenderQp::BuildNextPacket() const {
  DCQCN_CHECK(HasPacketReady());
  Packet p;
  p.type = PacketType::kData;
  p.flow_id = spec_.flow_id;
  p.src_host = spec_.src_host;
  p.dst_host = spec_.dst_host;
  p.priority = spec_.priority;
  p.size_bytes = PacketBytes(snd_next_);
  p.seq = snd_next_;
  p.last_of_message = IsLastOfMessage(snd_next_);
  // Go-back-0: every retransmitted packet of a restarted message tells the
  // receiver to rewind, so the whole message is re-delivered even when some
  // of the retransmissions are lost too.
  p.message_restart = go_back_zero_ && !unbounded_ &&
                      !window_based_ && snd_next_ < snd_high_;
  p.transport = spec_.mode;
  p.tx_timestamp = eq_->Now();
  p.ecmp_key = FlowEcmpKey(spec_.flow_id, spec_.ecmp_salt);
  return p;
}

void SenderQp::OnPacketSent(Time now, const Packet& p) {
  DCQCN_CHECK(p.seq == snd_next_);
  ++snd_next_;
  snd_high_ = std::max(snd_high_, snd_next_);
  counters_.packets_sent++;
  counters_.bytes_sent += p.size_bytes;

  if (!window_based_) {
    // Pacing: the next packet may start one ideal inter-packet gap after
    // this one at the current rate (jittered like a hardware rate limiter's
    // quantization). At line rate the gap equals the wire serialization
    // time, i.e. back-to-back transmission.
    next_allowed_ =
        std::max(now, next_allowed_) +
        Jittered(TransmissionTime(p.size_bytes, cc_->CurrentRate()),
                 pacing_jitter_);
  }

  cc_->OnBytesSent(*this, p.size_bytes);

  if (!retx_timer_.valid() || snd_una_ == p.seq) ArmRetxTimer(now);
}

void SenderQp::ArmRetxTimer(Time now) {
  eq_->Cancel(retx_timer_);
  if (snd_una_ >= snd_next_) {
    retx_timer_ = EventHandle{};
    return;
  }
  retx_timer_ = eq_->ScheduleAt(now + rto_, [this] { OnRetxTimeout(); });
}

void SenderQp::OnRetxTimeout() {
  retx_timer_ = EventHandle{};
  if (snd_una_ >= snd_next_) return;
  counters_.timeouts++;
  RewindForLoss(eq_->Now());
  ArmRetxTimer(eq_->Now());
  nic_->OnQpActivated(this);
}

void SenderQp::RewindForLoss(Time now) {
  uint64_t target = snd_una_;
  if (go_back_zero_ && !window_based_ && !messages_.empty() &&
      !unbounded_) {
    // ConnectX-3-style go-back-0: the whole in-progress message restarts.
    target = std::min(target, messages_.front().begin_seq);
  }
  counters_.retransmitted_packets +=
      static_cast<int64_t>(snd_next_ - target);
  snd_next_ = target;
  snd_una_ = std::min(snd_una_, target);
  next_allowed_ = std::max(next_allowed_, now);
}

void SenderQp::OnAck(Time now, uint64_t cumulative_seq, bool ecn_echo,
                     Time echo_timestamp) {
  if (echo_timestamp > 0 && now > echo_timestamp) {
    cc_->OnRttSample(*this, now - echo_timestamp);
  }
  if (cumulative_seq > snd_una_) {
    const Bytes acked =
        static_cast<Bytes>(cumulative_seq - snd_una_) * kMtu;
    snd_una_ = std::min<uint64_t>(cumulative_seq, snd_next_);
    cc_->OnAck(*this, CcAckSignal{acked, ecn_echo, snd_una_, snd_next_});
    ArmRetxTimer(now);
    CompleteMessages(now);
    nic_->OnQpActivated(this);  // CC window / message queue advanced
  } else {
    // Duplicate cumulative ACK still carries an ECN echo sample.
    cc_->OnAck(*this, CcAckSignal{0, ecn_echo, snd_una_, snd_next_});
  }
}

void SenderQp::CompleteMessages(Time now) {
  while (!messages_.empty() && !unbounded_ &&
         snd_una_ >= messages_.front().end_seq) {
    const Message m = messages_.front();
    messages_.pop_front();
    // The next message's service starts now (per-transfer goodput measures
    // service time, not time spent queued behind earlier transfers).
    if (!messages_.empty() && messages_.front().start_time < now) {
      messages_.front().start_time = now;
    }
    FlowRecord rec;
    rec.spec = spec_;
    rec.spec.size_bytes = m.bytes;
    rec.start_time = m.start_time;
    rec.finish_time = now;
    rec.bytes = m.bytes;
    nic_->OnMessageComplete(this, rec);
  }
}

Bytes SenderQp::UnackedBytes() const {
  Bytes total = 0;
  for (const Message& m : messages_) {
    if (m.bytes == 0) continue;  // unbounded sentinel
    total += m.bytes;
    if (snd_una_ > m.begin_seq) {
      const Bytes acked =
          std::min<Bytes>(static_cast<Bytes>(snd_una_ - m.begin_seq) * kMtu,
                          m.bytes);
      total -= acked;
    }
  }
  return total;
}

void SenderQp::HybridAdvance(Time now, uint64_t upto_seq, Time next_allowed) {
  DCQCN_CHECK(started_ && !unbounded_);
  DCQCN_CHECK(upto_seq >= snd_next_ && upto_seq <= send_limit_);
  // Packets in [snd_next_, upto_seq) were never simulated — count them here.
  // The already-sent-but-unacked tail [snd_una_, snd_next_) was counted at
  // send time; fast-forwarding simply deems it acknowledged (its receiver
  // may still sit short of an ack_every boundary, which only the virtual
  // packets would have pushed it past).
  Bytes bytes = 0;
  for (uint64_t s = snd_next_; s < upto_seq; ++s) bytes += PacketBytes(s);
  counters_.packets_sent += static_cast<int64_t>(upto_seq - snd_next_);
  counters_.bytes_sent += bytes;
  snd_una_ = upto_seq;
  snd_next_ = upto_seq;
  snd_high_ = std::max(snd_high_, snd_next_);
  next_allowed_ = next_allowed;
  ArmRetxTimer(now);  // snd_una == snd_next: retires the timer
  CompleteMessages(now);
  nic_->OnQpActivated(this);
}

void SenderQp::OnNak(Time now, uint64_t expected_seq) {
  counters_.naks_received++;
  // A NAK acknowledges everything before `expected_seq`...
  if (expected_seq > snd_una_) {
    snd_una_ = std::min(expected_seq, snd_next_);
    CompleteMessages(now);
  }
  // ...and signals a loss: rewind (go-back-N to the gap, or restart the
  // whole message on go-back-0 hardware).
  if (expected_seq < snd_next_) {
    if (!go_back_zero_ || window_based_ || unbounded_) {
      counters_.retransmitted_packets +=
          static_cast<int64_t>(snd_next_ - expected_seq);
      snd_next_ = expected_seq;
      snd_una_ = std::min(snd_una_, expected_seq);
      next_allowed_ = std::max(next_allowed_, now);
    } else {
      RewindForLoss(now);
    }
  }
  ArmRetxTimer(now);
  nic_->OnQpActivated(this);
}

void SenderQp::OnCnp(Time now) {
  counters_.cnps_received++;
  if (tracer_) {
    tracer_->Record(now, telemetry::TraceEventType::kCnpRx, spec_.src_host,
                    /*port=*/0, spec_.priority, spec_.flow_id, 0);
  }
  cc_->OnCnp(*this);
}

void SenderQp::OnQcnFeedback(Time now, int fbq) {
  counters_.cnps_received++;  // congestion notifications, QCN flavor
  cc_->OnQcnFeedback(*this, fbq);
  (void)now;
}

Time SenderQp::CcNow() const { return eq_->Now(); }

void SenderQp::ArmCcTimer(CcTimerKind kind, Time base_period) {
  QpTimerNode* node =
      kind == CcTimerKind::kAlpha ? &alpha_node_ : &rate_node_;
  // The jitter draw happens at arm time (as it did when this scheduled an
  // event directly), so replayed runs see identical per-QP RNG streams.
  nic_->ArmQpTimer(node,
                   eq_->Now() + Jittered(base_period, timer_jitter_));
}

void SenderQp::CancelCcTimer(CcTimerKind kind) {
  nic_->CancelQpTimer(kind == CcTimerKind::kAlpha ? &alpha_node_
                                                  : &rate_node_);
}

void SenderQp::TraceCcRate(Rate rate) {
  if (!tracer_) return;
  tracer_->Record(eq_->Now(), telemetry::TraceEventType::kRateUpdate,
                  spec_.src_host, /*port=*/0, spec_.priority, spec_.flow_id,
                  0, ToGbps(rate));
}

void SenderQp::TraceCcAlpha(double alpha) {
  if (!tracer_) return;
  tracer_->Record(eq_->Now(), telemetry::TraceEventType::kAlphaUpdate,
                  spec_.src_host, /*port=*/0, spec_.priority, spec_.flow_id,
                  0, alpha);
}

Time SenderQp::Jittered(Time base, double frac) {
  if (frac <= 0) return base;
  const double factor = 1.0 + frac * (2.0 * rng_.Uniform() - 1.0);
  return static_cast<Time>(static_cast<double>(base) * factor);
}

}  // namespace dcqcn
