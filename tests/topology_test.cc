#include "net/topology.h"

#include <gtest/gtest.h>

namespace dcqcn {
namespace {

TEST(Star, BuildsAndRoutes) {
  Network net(1);
  auto t = BuildStar(net, 4, TopologyOptions{});
  EXPECT_EQ(t.hosts.size(), 4u);
  for (const auto* h : t.hosts) {
    EXPECT_EQ(t.sw->RouteTo(h->id()).size(), 1u);
  }
}

TEST(Clos, HasPaperShape) {
  Network net(1);
  auto t = BuildClos(net, 5, TopologyOptions{});
  EXPECT_EQ(t.tors.size(), 4u);
  EXPECT_EQ(t.leaves.size(), 4u);
  EXPECT_EQ(t.spines.size(), 2u);
  EXPECT_EQ(t.hosts_by_tor.size(), 4u);
  for (const auto& hs : t.hosts_by_tor) EXPECT_EQ(hs.size(), 5u);
}

TEST(Clos, TorHasTwoEcmpUplinksToOtherPod) {
  Network net(1);
  auto t = BuildClos(net, 2, TopologyOptions{});
  // From T1 (pod 0) toward a host under T4 (pod 1): both uplinks are
  // equal cost.
  const std::span<const int> up = t.tors[0]->RouteTo(t.host(3, 0)->id());
  EXPECT_EQ(up.size(), 2u);
  // Toward a local host: exactly the access port.
  const std::span<const int> local = t.tors[0]->RouteTo(t.host(0, 1)->id());
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0], 1);
}

TEST(Clos, LeafSpreadsOverBothSpinesForRemotePod) {
  Network net(1);
  auto t = BuildClos(net, 2, TopologyOptions{});
  // L1 (pod 0) toward a pod-1 host: two spine choices.
  EXPECT_EQ(t.leaves[0]->RouteTo(t.host(3, 0)->id()).size(), 2u);
  // L1 toward a pod-0 host under T2: one down port.
  EXPECT_EQ(t.leaves[0]->RouteTo(t.host(1, 0)->id()).size(), 1u);
}

TEST(Clos, SpineRoutesToEveryHost) {
  Network net(1);
  auto t = BuildClos(net, 3, TopologyOptions{});
  for (int tor = 0; tor < 4; ++tor) {
    for (int h = 0; h < 3; ++h) {
      for (auto* spine : t.spines) {
        EXPECT_GE(spine->RouteTo(t.host(tor, h)->id()).size(), 1u);
      }
    }
  }
}

TEST(Clos, IntraPodTrafficAvoidsSpines) {
  // A flow T1 -> T2 stays within pod 0: spines see no data packets.
  Network net(5);
  auto t = BuildClos(net, 2, TopologyOptions{});
  FlowSpec f;
  f.flow_id = 0;
  f.src_host = t.host(0, 0)->id();
  f.dst_host = t.host(1, 0)->id();
  f.size_bytes = 1000 * 1000;
  f.mode = TransportMode::kRdmaRaw;
  net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  EXPECT_EQ(t.host(1, 0)->ReceiverDeliveredBytes(0), f.size_bytes);
  EXPECT_EQ(t.spines[0]->counters().rx_packets +
                t.spines[1]->counters().rx_packets,
            0);
}

TEST(Clos, InterPodFlowCompletesAtLineRate) {
  Network net(5);
  auto t = BuildClos(net, 2, TopologyOptions{});
  FlowSpec f;
  f.flow_id = 0;
  f.src_host = t.host(0, 0)->id();
  f.dst_host = t.host(3, 1)->id();
  f.size_bytes = 4 * 1000 * 1000;
  f.mode = TransportMode::kRdmaDcqcn;
  net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  ASSERT_EQ(t.host(0, 0)->completed_flows().size(), 1u);
  // 800 us ideal + ~10 us of extra path latency.
  EXPECT_LT(t.host(0, 0)->completed_flows()[0].fct(), Microseconds(850));
}

TEST(Clos, EcmpSaltsChangePathSelection) {
  // Different flow ecmp salts must be able to take different uplinks; count
  // spine usage across salts and require both spines to appear.
  bool spine0_used = false, spine1_used = false;
  for (uint64_t salt = 0; salt < 8; ++salt) {
    Network net(9);
    auto t = BuildClos(net, 2, TopologyOptions{});
    FlowSpec f;
    f.flow_id = 0;
    f.src_host = t.host(0, 0)->id();
    f.dst_host = t.host(2, 0)->id();
    f.size_bytes = 100 * 1000;
    f.mode = TransportMode::kRdmaRaw;
    f.ecmp_salt = salt;
    net.StartFlow(f);
    net.RunFor(Milliseconds(2));
    if (t.spines[0]->counters().rx_packets > 0) spine0_used = true;
    if (t.spines[1]->counters().rx_packets > 0) spine1_used = true;
  }
  EXPECT_TRUE(spine0_used);
  EXPECT_TRUE(spine1_used);
}

TEST(Clos, NoRoutingLoops) {
  // Property: a packet between any two hosts traverses at most 5 switches.
  // Deliveries prove termination; here we check hop distances via BFS route
  // construction by sending one message between every pod pair.
  Network net(13);
  auto t = BuildClos(net, 1, TopologyOptions{});
  int fid = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      FlowSpec f;
      f.flow_id = fid++;
      f.src_host = t.host(a, 0)->id();
      f.dst_host = t.host(b, 0)->id();
      f.size_bytes = 10 * 1000;
      f.mode = TransportMode::kRdmaRaw;
      net.StartFlow(f);
    }
  }
  net.RunFor(Milliseconds(10));
  int completed = 0;
  for (int a = 0; a < 4; ++a) {
    completed += static_cast<int>(t.host(a, 0)->completed_flows().size());
  }
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(net.TotalDrops(), 0);
}

}  // namespace
}  // namespace dcqcn
