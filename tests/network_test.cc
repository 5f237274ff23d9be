// Network-level tests: route construction on arbitrary graphs, multi-path
// ECMP sets, priority-class isolation, and aggregate counters.
#include "net/network.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace dcqcn {
namespace {

std::vector<int> Ports(std::span<const int> set) {
  return {set.begin(), set.end()};
}

TEST(Network, RoutesOnALine) {
  // host A - sw1 - sw2 - host B.
  Network net(1);
  SwitchConfig cfg;
  auto* s1 = net.AddSwitch(2, cfg);
  auto* s2 = net.AddSwitch(2, cfg);
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  net.Connect(a, 0, s1, 0, Gbps(40), Microseconds(1));
  net.Connect(s1, 1, s2, 0, Gbps(40), Microseconds(1));
  net.Connect(s2, 1, b, 0, Gbps(40), Microseconds(1));
  net.BuildRoutes();
  EXPECT_EQ(Ports(s1->RouteTo(b->id())), (std::vector<int>{1}));
  EXPECT_EQ(Ports(s1->RouteTo(a->id())), (std::vector<int>{0}));
  EXPECT_EQ(Ports(s2->RouteTo(b->id())), (std::vector<int>{1}));

  FlowSpec f;
  f.flow_id = 0;
  f.src_host = a->id();
  f.dst_host = b->id();
  f.size_bytes = 100 * 1000;
  f.mode = TransportMode::kRdmaRaw;
  net.StartFlow(f);
  net.RunFor(Milliseconds(1));
  EXPECT_EQ(b->ReceiverDeliveredBytes(0), 100 * 1000);
}

TEST(Network, ParallelPathsAllRetained) {
  // A diamond: src ToR has 3 parallel two-hop paths to dst ToR.
  Network net(1);
  SwitchConfig cfg;
  auto* t1 = net.AddSwitch(4, cfg);
  auto* t2 = net.AddSwitch(4, cfg);
  SharedBufferSwitch* mids[3];
  for (auto*& m : mids) m = net.AddSwitch(2, cfg);
  auto* a = net.AddHost(NicConfig{});
  auto* b = net.AddHost(NicConfig{});
  net.Connect(a, 0, t1, 3, Gbps(40), Microseconds(1));
  net.Connect(b, 0, t2, 3, Gbps(40), Microseconds(1));
  for (int i = 0; i < 3; ++i) {
    net.Connect(t1, i, mids[i], 0, Gbps(40), Microseconds(1));
    net.Connect(mids[i], 1, t2, i, Gbps(40), Microseconds(1));
  }
  net.BuildRoutes();
  EXPECT_EQ(t1->RouteTo(b->id()).size(), 3u);
  EXPECT_EQ(t2->RouteTo(a->id()).size(), 3u);
  // Many flows spread across all three middle switches.
  for (int i = 0; i < 30; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = a->id();
    f.dst_host = b->id();
    f.size_bytes = 10 * 1000;
    f.mode = TransportMode::kRdmaRaw;
    f.ecmp_salt = static_cast<uint64_t>(i);
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(5));
  for (auto* m : mids) {
    EXPECT_GT(m->counters().rx_packets, 0);
  }
}

TEST(Network, HostLookupById) {
  Network net(1);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  for (auto* h : topo.hosts) {
    EXPECT_EQ(net.host(h->id()), h);
  }
  EXPECT_EQ(net.host(topo.sw->id()), nullptr);  // a switch is not a host
}

TEST(Network, StartFlowAssignsIds) {
  Network net(1);
  auto topo = BuildStar(net, 2, TopologyOptions{});
  FlowSpec f;
  f.flow_id = -1;  // auto-assign
  f.src_host = topo.hosts[0]->id();
  f.dst_host = topo.hosts[1]->id();
  f.size_bytes = 1000;
  SenderQp* qp = net.StartFlow(f);
  EXPECT_GE(qp->spec().flow_id, 0);
  // Next id does not collide.
  EXPECT_GT(net.NextFlowId(), qp->spec().flow_id);
}

TEST(Network, AggregateCountersSumSwitches) {
  Network net(2);
  auto topo = BuildStar(net, 5, TopologyOptions{});
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 0;
    f.mode = TransportMode::kRdmaRaw;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(5));
  EXPECT_EQ(net.TotalPauseFramesSent(),
            topo.sw->counters().pause_frames_sent);
  EXPECT_EQ(net.TotalDrops(), topo.sw->counters().dropped_packets);
}

TEST(PriorityClasses, TwoDataClassesIsolatedByPfc) {
  // Two flows to the same receiver on different priorities; freeze one
  // class with an injected PAUSE at the sender NIC and verify the other
  // keeps flowing at full rate.
  Network net(3);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  FlowSpec f2;
  f2.flow_id = 0;
  f2.src_host = topo.hosts[0]->id();
  f2.dst_host = topo.hosts[2]->id();
  f2.size_bytes = 0;
  f2.priority = 2;
  f2.mode = TransportMode::kRdmaRaw;
  net.StartFlow(f2);
  FlowSpec f3 = f2;
  f3.flow_id = 1;
  f3.src_host = topo.hosts[1]->id();
  f3.priority = 3;
  net.StartFlow(f3);
  net.RunFor(Milliseconds(2));

  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = 2;
  topo.hosts[0]->ReceivePacket(pause, 0);
  const Bytes d2 = topo.hosts[2]->ReceiverDeliveredBytes(0);
  const Bytes d3 = topo.hosts[2]->ReceiverDeliveredBytes(1);
  net.RunFor(Milliseconds(2));
  // Class 2 frozen (at most a trickle already in flight), class 3 at line
  // rate now that it has the link to itself.
  EXPECT_LT(topo.hosts[2]->ReceiverDeliveredBytes(0) - d2, 20 * kMtu);
  EXPECT_GT(static_cast<double>(topo.hosts[2]->ReceiverDeliveredBytes(1) -
                                d3) * 8 / 2e-3,
            0.9 * Gbps(40));
}

TEST(PriorityClasses, SwitchQueuesAccountPerPriority) {
  Network net(4);
  auto topo = BuildStar(net, 3, TopologyOptions{});
  // Saturate the egress from two senders on different classes.
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.priority = static_cast<int8_t>(2 + i);
    f.mode = TransportMode::kRdmaRaw;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(3));
  // Strict priority: the lower-priority-number class (2) is served first,
  // so its egress queue stays near-empty while class 3's builds (until PFC
  // pushes back).
  EXPECT_LE(topo.sw->EgressQueueBytes(2, 2),
            topo.sw->EgressQueueBytes(2, 3) + 2 * kMtu);
  EXPECT_EQ(net.TotalDrops(), 0);
}

}  // namespace
}  // namespace dcqcn
