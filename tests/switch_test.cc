#include "net/switch.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

// Passive endpoint that records everything it receives.
class StubHost : public Node {
 public:
  StubHost(EventQueue* eq, int id) : Node(id, 1), eq_(eq) {}
  void ReceivePacket(const Packet& p, int) override {
    arrivals.push_back({eq_->Now(), p});
  }
  void OnTransmitComplete(int) override {}

  int CountType(PacketType t) const {
    int n = 0;
    for (const auto& a : arrivals) n += (a.second.type == t);
    return n;
  }
  int CountMarked() const {
    int n = 0;
    for (const auto& a : arrivals) n += a.second.ecn_ce;
    return n;
  }

  std::vector<std::pair<Time, Packet>> arrivals;

 private:
  EventQueue* eq_;
};

struct Harness {
  EventQueue eq;
  Rng rng{1};
  std::unique_ptr<SharedBufferSwitch> sw;
  std::vector<std::unique_ptr<StubHost>> hosts;
  std::vector<std::unique_ptr<Link>> links;

  explicit Harness(const SwitchConfig& cfg, int ports = 4) {
    sw = std::make_unique<SharedBufferSwitch>(&eq, &rng, 100, ports, cfg);
    for (int i = 0; i < ports; ++i) {
      hosts.push_back(std::make_unique<StubHost>(&eq, i));
      links.push_back(std::make_unique<Link>(&eq, sw.get(), i,
                                             hosts.back().get(), 0, Gbps(40),
                                             Nanoseconds(100)));
    }
  }

  Packet DataTo(int dst, uint64_t key = 1, Bytes size = kMtu) {
    Packet p;
    p.type = PacketType::kData;
    p.flow_id = 7;
    p.src_host = 99;
    p.dst_host = dst;
    p.size_bytes = size;
    p.ecmp_key = key;
    return p;
  }
};

SwitchConfig BaseConfig() {
  SwitchConfig cfg;
  cfg.red.enabled = false;
  return cfg;
}

TEST(Switch, ForwardsAlongConfiguredRoute) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  h.sw->ReceivePacket(h.DataTo(0), /*in_port=*/1);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->arrivals.size(), 1u);
  EXPECT_EQ(h.hosts[1]->arrivals.size(), 0u);
}

TEST(Switch, EcmpSpreadsFlowsAcrossEqualCostPorts) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0, 1});
  for (uint64_t k = 0; k < 1000; ++k) {
    h.sw->ReceivePacket(h.DataTo(0, /*key=*/k), 2);
    h.eq.RunAll();
  }
  const auto n0 = h.hosts[0]->arrivals.size();
  const auto n1 = h.hosts[1]->arrivals.size();
  EXPECT_EQ(n0 + n1, 1000u);
  EXPECT_GT(n0, 350u);
  EXPECT_GT(n1, 350u);
}

TEST(Switch, SameKeyAlwaysSamePort) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0, 1});
  for (int i = 0; i < 50; ++i) h.sw->ReceivePacket(h.DataTo(0, 77), 2);
  h.eq.RunAll();
  EXPECT_TRUE(h.hosts[0]->arrivals.empty() || h.hosts[1]->arrivals.empty());
}

TEST(Switch, EcnMarksAboveCutoffThreshold) {
  SwitchConfig cfg = BaseConfig();
  cfg.red = RedEcnConfig::CutOff(40 * kKB);
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  // 100 MTU burst into one egress: the queue passes 40 KB at the ~41st
  // packet; later arrivals are marked.
  for (int i = 0; i < 100; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  h.eq.RunAll();
  const int marked = h.hosts[0]->CountMarked();
  EXPECT_GT(marked, 50);
  EXPECT_LT(marked, 65);
  EXPECT_EQ(h.sw->counters().ecn_marked_packets, marked);
}

TEST(Switch, NoMarkingBelowKmin) {
  SwitchConfig cfg = BaseConfig();
  cfg.red = RedEcnConfig::Deployment();  // Kmin = 5 KB
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 5; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->CountMarked(), 0);
}

TEST(Switch, PauseSentWhenIngressExceedsStaticThreshold) {
  SwitchConfig cfg = BaseConfig();
  cfg.dynamic_pfc = false;
  cfg.static_pfc_threshold = 50 * kKB;
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  // 120 KB burst from ingress port 1: ingress accounting passes 50 KB and
  // a PAUSE goes back out port 1.
  for (int i = 0; i < 120; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  EXPECT_TRUE(h.sw->PauseSent(1, kDataPriority));
  h.eq.RunAll();
  EXPECT_GE(h.hosts[1]->CountType(PacketType::kPause), 1);
  // Once drained, a RESUME follows and the pause state clears.
  EXPECT_FALSE(h.sw->PauseSent(1, kDataPriority));
  EXPECT_GE(h.hosts[1]->CountType(PacketType::kResume), 1);
}

TEST(Switch, ReceivedPauseStopsTransmissionUntilResume) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  // Pause the data priority on port 0.
  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = kDataPriority;
  h.sw->ReceivePacket(pause, 0);
  h.sw->ReceivePacket(h.DataTo(0), 1);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->CountType(PacketType::kData), 0);
  EXPECT_EQ(h.sw->EgressQueueBytes(0, kDataPriority), kMtu);
  // Resume: the queued packet flows.
  Packet resume = pause;
  resume.type = PacketType::kResume;
  h.sw->ReceivePacket(resume, 0);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->CountType(PacketType::kData), 1);
}

TEST(Switch, PauseAppliesPerPriority) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = kDataPriority;
  h.sw->ReceivePacket(pause, 0);
  // A control-priority packet still flows while data is paused.
  Packet ctrl = h.DataTo(0);
  ctrl.priority = kControlPriority;
  h.sw->ReceivePacket(ctrl, 1);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->arrivals.size(), 1u);
}

TEST(Switch, StrictPriorityServesControlFirst) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  // Fill the egress with data, then add one control packet; it must arrive
  // before the still-queued data (after the in-flight data packet).
  for (int i = 0; i < 5; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  Packet ctrl = h.DataTo(0);
  ctrl.priority = kControlPriority;
  ctrl.size_bytes = kControlFrameBytes;
  h.sw->ReceivePacket(ctrl, 1);
  h.eq.RunAll();
  ASSERT_EQ(h.hosts[0]->arrivals.size(), 6u);
  // Control is the second arrival (one data frame was already serializing).
  EXPECT_EQ(h.hosts[0]->arrivals[1].second.priority, kControlPriority);
}

TEST(Switch, BufferDropsWhenPfcDisabledAndFull) {
  SwitchConfig cfg = BaseConfig();
  cfg.pfc_enabled = false;
  cfg.buffer.total_buffer = 100 * kKB;
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 200; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  EXPECT_GT(h.sw->counters().dropped_packets, 0);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->arrivals.size(),
            200u - static_cast<size_t>(h.sw->counters().dropped_packets));
}

TEST(Switch, OccupancyReturnsToZeroAfterDrain) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 50; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  EXPECT_GT(h.sw->shared_occupancy(), 0);
  h.eq.RunAll();
  EXPECT_EQ(h.sw->shared_occupancy(), 0);
  EXPECT_EQ(h.sw->EgressQueueBytes(0, kDataPriority), 0);
  EXPECT_EQ(h.sw->IngressQueueBytes(1, kDataPriority), 0);
}

TEST(Switch, DynamicThresholdTightensUnderLoad) {
  SwitchConfig cfg = BaseConfig();
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  const Bytes t0 = h.sw->CurrentPfcThreshold();
  for (int i = 0; i < 500; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  EXPECT_LT(h.sw->CurrentPfcThreshold(), t0);
  h.eq.RunAll();
  EXPECT_EQ(h.sw->CurrentPfcThreshold(), t0);
}

TEST(Switch, HeadroomAbsorbsInFlightAfterPause) {
  // Property: with PFC enabled and correct thresholds, a burst bigger than
  // the shared pool does not overflow as long as post-PAUSE arrivals fit in
  // headroom (which they do by construction of t_flight).
  SwitchConfig cfg = BaseConfig();
  cfg.dynamic_pfc = false;
  cfg.static_pfc_threshold = 30 * kKB;
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 40; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  // 40 KB from one ingress: PAUSE fired at 30 KB; the rest fits headroom.
  EXPECT_EQ(h.sw->counters().dropped_packets, 0);
  EXPECT_TRUE(h.sw->PauseSent(1, kDataPriority));
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->CountType(PacketType::kData), 40);
}

TEST(Switch, LossyEgressCapDropsTailOfBurst) {
  SwitchConfig cfg = BaseConfig();
  cfg.pfc_enabled = false;
  cfg.lossy_egress_cap = 50 * kKB;
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 200; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  // Queue admits ~50 KB (+ the in-flight packet); the rest drops.
  EXPECT_GT(h.sw->counters().dropped_packets, 100);
  EXPECT_LT(h.sw->counters().dropped_packets, 160);
  h.eq.RunAll();
  EXPECT_EQ(h.hosts[0]->CountType(PacketType::kData),
            200 - static_cast<int>(h.sw->counters().dropped_packets));
}

TEST(Switch, LossyEgressCapIgnoredWhenPfcEnabled) {
  SwitchConfig cfg = BaseConfig();
  cfg.pfc_enabled = true;
  cfg.lossy_egress_cap = 10 * kKB;
  Harness h(cfg);
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 100; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  EXPECT_EQ(h.sw->counters().dropped_packets, 0);
}

TEST(Switch, CountersConsistent) {
  Harness h(BaseConfig());
  h.sw->SetRoute(0, {0});
  for (int i = 0; i < 25; ++i) h.sw->ReceivePacket(h.DataTo(0), 1);
  h.eq.RunAll();
  EXPECT_EQ(h.sw->counters().rx_packets, 25);
  EXPECT_EQ(h.sw->counters().tx_packets, 25);
  EXPECT_EQ(h.sw->counters().dropped_packets, 0);
}

// Samples a PFC-heavy Clos incast (four uncontrolled line-rate senders into
// one receiver) and checks, at every sampled instant, that the O(1) PFC
// summaries equal the OR over every (port, priority) / priority they
// summarize. `quanta` turns on pause expiry + refresh at switches and NICs,
// which adds the timer-driven pause and resume edges.
void ExpectPfcSummariesMatchScan(bool quanta) {
  Network net(4);
  TopologyOptions opt;
  if (quanta) {
    opt.switch_config.pfc_pause_expiry = Microseconds(20);
    opt.switch_config.pfc_pause_refresh = Microseconds(10);
    opt.nic_config.pfc_pause_expiry = Microseconds(20);
  }
  ClosTopology topo = BuildClos(net, 5, opt);
  for (int h = 0; h < 4; ++h) {
    FlowSpec f;
    f.flow_id = net.NextFlowId();
    f.src_host = topo.host(0, h)->id();
    f.dst_host = topo.host(3, 0)->id();
    f.size_bytes = 0;
    f.mode = TransportMode::kRdmaRaw;
    f.ecmp_salt = static_cast<uint64_t>(h);
    net.StartFlow(f);
  }
  int mismatches = 0;
  int sw_active = 0, sw_idle = 0, nic_active = 0, nic_idle = 0;
  for (Time t = Nanoseconds(500); t <= Milliseconds(2);
       t += Nanoseconds(500)) {
    net.Run(t);
    for (const auto& sw : net.switches()) {
      bool any = false;
      for (int p = 0; p < sw->num_ports(); ++p) {
        for (int pr = 0; pr < kNumPriorities; ++pr) {
          any = any || sw->PauseSent(p, pr) || sw->TxPaused(p, pr);
        }
      }
      mismatches += sw->AnyPfcActive() != any;
      (any ? sw_active : sw_idle)++;
    }
    for (const auto& nic : net.hosts()) {
      bool any = false;
      for (int pr = 0; pr < kNumPriorities; ++pr) any = any || nic->TxPaused(pr);
      mismatches += nic->AnyTxPaused() != any;
      (any ? nic_active : nic_idle)++;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both states were sampled on both node kinds, so the check has teeth.
  EXPECT_GT(sw_active, 0);
  EXPECT_GT(sw_idle, 0);
  EXPECT_GT(nic_active, 0);
  EXPECT_GT(nic_idle, 0);
}

TEST(Switch, PfcSummaryMatchesPerPairScanDuringIncast) {
  ExpectPfcSummariesMatchScan(/*quanta=*/false);
}

TEST(Switch, PfcSummaryMatchesPerPairScanWithPauseQuanta) {
  ExpectPfcSummariesMatchScan(/*quanta=*/true);
}

}  // namespace
}  // namespace dcqcn
