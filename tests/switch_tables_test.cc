// The switch's two per-hop tables against brute-force references:
//
//  * the flat ECMP route table (SetRoute / RouteTo / EcmpSelect) against an
//    equal-cost BFS computed here from the wiring alone, on the 512-host
//    Clos and on a three-way diamond (a non-power-of-two ECMP set);
//  * the paused-pair RESUME scan (CheckResumeAll over the pause masks)
//    against a full scan of every (port, priority) through the public
//    accessors, after every event of a multi-port, multi-priority incast.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

// Equal-cost next-hop ports of every switch toward `dst`, recomputed from
// the links (in creation order, so each set lists its ports in the order the
// wiring produced them): BFS hop counts from the host, then every port whose
// peer is one hop closer. Indexed by node id; empty for hosts.
std::vector<std::vector<int>> ReferenceSets(const Network& net, int dst) {
  struct Edge {
    int peer;
    int local_port;
  };
  size_t num_nodes = 0;
  for (const auto& l : net.links()) {
    num_nodes = std::max<size_t>(
        num_nodes, static_cast<size_t>(std::max(l->node_a()->id(),
                                                l->node_b()->id())) + 1);
  }
  std::vector<std::vector<Edge>> adj(num_nodes);
  auto port_of = [](const Node* n, const Link* l) {
    for (int p = 0; p < n->num_ports(); ++p) {
      if (n->link(p) == l) return p;
    }
    return -1;
  };
  for (const auto& l : net.links()) {
    const Node* a = l->node_a();
    const Node* b = l->node_b();
    adj[static_cast<size_t>(a->id())].push_back({b->id(), port_of(a, l.get())});
    adj[static_cast<size_t>(b->id())].push_back({a->id(), port_of(b, l.get())});
  }
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(num_nodes, kInf);
  std::deque<int> frontier{dst};
  dist[static_cast<size_t>(dst)] = 0;
  while (!frontier.empty()) {
    const int cur = frontier.front();
    frontier.pop_front();
    for (const Edge& e : adj[static_cast<size_t>(cur)]) {
      if (dist[static_cast<size_t>(e.peer)] == kInf) {
        dist[static_cast<size_t>(e.peer)] = dist[static_cast<size_t>(cur)] + 1;
        frontier.push_back(e.peer);
      }
    }
  }
  std::vector<std::vector<int>> sets(num_nodes);
  for (const auto& sw : net.switches()) {
    const auto id = static_cast<size_t>(sw->id());
    if (dist[id] == kInf) continue;
    for (const Edge& e : adj[id]) {
      if (dist[static_cast<size_t>(e.peer)] == dist[id] - 1) {
        sets[id].push_back(e.local_port);
      }
    }
  }
  return sets;
}

// Every (switch, host) route equals the reference set element by element,
// and EcmpSelect picks set[EcmpMix(key, switch id) mod n] for sampled keys.
// Collects the distinct set sizes seen into `sizes`.
void ExpectRoutesMatchReference(const Network& net,
                                std::vector<size_t>* sizes) {
  int checked = 0;
  for (const auto& nic : net.hosts()) {
    const int dst = nic->id();
    const auto want = ReferenceSets(net, dst);
    for (const auto& sw : net.switches()) {
      const std::vector<int>& ref = want[static_cast<size_t>(sw->id())];
      ASSERT_FALSE(ref.empty()) << "switch " << sw->id() << " dst " << dst;
      const std::span<const int> got = sw->RouteTo(dst);
      ASSERT_EQ(got.size(), ref.size())
          << "switch " << sw->id() << " dst " << dst;
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i], ref[i])
            << "switch " << sw->id() << " dst " << dst << " index " << i;
      }
      if (std::find(sizes->begin(), sizes->end(), ref.size()) ==
          sizes->end()) {
        sizes->push_back(ref.size());
      }
      for (uint64_t k = 0; k < 16; ++k) {
        const uint64_t key = FlowEcmpKey(static_cast<int>(k * 7919 + 13),
                                         k * 0x9E3779B97F4A7C15ULL);
        const uint64_t mix = EcmpMix(key, static_cast<uint64_t>(sw->id()));
        ASSERT_EQ(sw->EcmpSelect(key, dst), ref[mix % ref.size()])
            << "switch " << sw->id() << " dst " << dst << " key " << key;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(net.hosts().size() *
                                      net.switches().size()));
}

TEST(SwitchTables, RoutesMatchReferenceOnLargeClos) {
  Network net(1);
  BuildClos(net,
            ClosShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                      .spines = 8, .hosts_per_tor = 16},
            TopologyOptions{});
  ASSERT_EQ(net.hosts().size(), 512u);
  std::vector<size_t> sizes;
  ExpectRoutesMatchReference(net, &sizes);
  // Downlinks (1) and multi-port uplink sets both occur.
  EXPECT_NE(std::find(sizes.begin(), sizes.end(), 1u), sizes.end());
  EXPECT_GT(*std::max_element(sizes.begin(), sizes.end()), 1u);
}

TEST(SwitchTables, RoutesMatchReferenceOnDiamond) {
  // src ToR has 3 parallel two-hop paths to dst ToR (network_test's
  // ParallelPathsAllRetained topology): a non-power-of-two ECMP set.
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
  std::vector<size_t> sizes;
  ExpectRoutesMatchReference(net, &sizes);
  EXPECT_NE(std::find(sizes.begin(), sizes.end(), 3u), sizes.end());
  // All three ports are actually picked across keys.
  std::vector<int> hits(3, 0);
  for (uint64_t k = 0; k < 300; ++k) {
    hits[static_cast<size_t>(t1->EcmpSelect(k, b->id()))]++;
  }
  for (int h : hits) EXPECT_GT(h, 0);
}

struct LoneSwitch {
  EventQueue eq;
  Rng rng{1};
  SharedBufferSwitch sw{&eq, &rng, 5, 4, SwitchConfig{}};
};

TEST(SwitchTables, EqualSetsShareStorageAndOrderIsKept) {
  LoneSwitch s;
  s.sw.SetRoute(0, {2, 1});
  s.sw.SetRoute(3, {2, 1});
  s.sw.SetRoute(1, {1, 2});
  s.sw.SetRoute(2, {2});
  s.sw.SetRoute(4, {2, 3});
  EXPECT_EQ(s.sw.RouteTo(0).data(), s.sw.RouteTo(3).data());
  EXPECT_NE(s.sw.RouteTo(0).data(), s.sw.RouteTo(1).data());
  EXPECT_EQ(std::vector<int>(s.sw.RouteTo(4).begin(), s.sw.RouteTo(4).end()),
            (std::vector<int>{2, 3}));
  EXPECT_EQ(std::vector<int>(s.sw.RouteTo(0).begin(), s.sw.RouteTo(0).end()),
            (std::vector<int>{2, 1}));
  EXPECT_EQ(std::vector<int>(s.sw.RouteTo(1).begin(), s.sw.RouteTo(1).end()),
            (std::vector<int>{1, 2}));
  // Overwriting a route moves only that destination.
  s.sw.SetRoute(3, {0});
  ASSERT_EQ(s.sw.RouteTo(3).size(), 1u);
  EXPECT_EQ(s.sw.RouteTo(3)[0], 0);
  EXPECT_EQ(s.sw.RouteTo(0)[0], 2);
}

TEST(SwitchTablesDeathTest, SetRouteRejectsBadSets) {
  LoneSwitch s;
  EXPECT_DEATH(s.sw.SetRoute(0, {}), "CHECK failed");
  EXPECT_DEATH(s.sw.SetRoute(0, {4}), "CHECK failed");
  EXPECT_DEATH(s.sw.SetRoute(0, {0, -1}), "CHECK failed");
  EXPECT_DEATH(s.sw.SetRoute(-1, {0}), "CHECK failed");
  // Larger than the route entry's count field (8 bits), though every port
  // is in range.
  EXPECT_DEATH(s.sw.SetRoute(0, std::vector<int>(256, 0)), "CHECK failed");
  // A destination without a route.
  s.sw.SetRoute(2, {1});
  EXPECT_DEATH(s.sw.RouteTo(1), "CHECK failed");
  EXPECT_DEATH(s.sw.RouteTo(3), "CHECK failed");
}

// A Clos PFC incast at four priorities from three ToRs into two hosts under
// the fourth: several ingress ports and priorities are paused at once on the
// same switches. The simulation runs one event at a time; after each event,
// every switch is scanned through its public accessors:
//  * no pair stays paused while its ingress queue is at or below the resume
//    level (threshold - resume_offset, floored at 0);
//  * the RESUMEs the event sent are exactly the pairs whose PauseSent fell,
//    in ascending (port, priority) order — what a full scan would emit.
TEST(SwitchTables, ResumeScanMatchesFullScanDuringIncast) {
  Network net(3);
  ClosTopology topo = BuildClos(net, 8, TopologyOptions{});
  telemetry::EventTracer tracer(1 << 12);
  for (const auto& sw : net.switches()) sw->SetTracer(&tracer);
  // Every sender runs one flow per priority, so a sender's ToR ingress
  // port can hold several paused priorities at once. Every 40 us the
  // switches' shared pool is squeezed to 600 KB above the headroom
  // reservation (fault-injection hook) and then restored: the threshold
  // jumps, so one event pauses or resumes many pairs, several on one port.
  for (Time t = Microseconds(40); t < Microseconds(600);
       t += Microseconds(40)) {
    const bool squeeze = t / Microseconds(40) % 2 == 1;
    net.eq().ScheduleAt(t, [&net, squeeze] {
      for (const auto& sw : net.switches()) {
        const SwitchBufferSpec& b = sw->config().buffer;
        sw->SetSharedBufferOverride(
            squeeze ? static_cast<Bytes>(b.num_priorities) * b.num_ports *
                              sw->headroom_per_queue() +
                          600 * 1000
                    : 0);
      }
    });
  }
  int n = 0;
  for (int tor = 0; tor < 3; ++tor) {
    for (int h = 0; h < 8; ++h) {
      for (int8_t pr = 1; pr <= 4; ++pr) {
        FlowSpec f;
        f.flow_id = net.NextFlowId();
        f.src_host = topo.host(tor, h)->id();
        f.dst_host = topo.host(3, h % 2)->id();
        f.size_bytes = 0;
        f.mode = TransportMode::kRdmaRaw;
        f.priority = pr;
        f.ecmp_salt = static_cast<uint64_t>(n++);
        net.StartFlow(f);
      }
    }
  }

  using Pair = std::tuple<int, int>;  // (port, priority)
  std::vector<std::vector<Pair>> before(net.switches().size());
  auto paused_pairs = [](const SharedBufferSwitch& sw) {
    std::vector<Pair> pairs;
    for (int p = 0; p < sw.num_ports(); ++p) {
      for (int pr = 0; pr < kNumPriorities; ++pr) {
        if (sw.PauseSent(p, pr)) pairs.emplace_back(p, pr);
      }
    }
    return pairs;
  };
  int stuck = 0, order_mismatches = 0, pause_mismatches = 0;
  int64_t pauses = 0, resumes = 0;
  int max_resumes_in_event = 0, max_port_resumes = 0;
  int max_ports_paused = 0, max_port_prios = 0;
  int64_t events = 0;
  const Time end = Microseconds(600);
  EventQueue& eq = net.eq();
  while (eq.NextEventTime() <= end && eq.RunOne()) {
    ++events;
    std::vector<std::vector<Pair>> resumed(net.switches().size());
    std::vector<std::vector<Pair>> paused(net.switches().size());
    if (tracer.size() > 0) {
      ASSERT_EQ(tracer.overwritten(), 0u);
      for (const auto& r : tracer.Snapshot()) {
        const bool resume = r.type == telemetry::TraceEventType::kResumeTx;
        if (!resume && r.type != telemetry::TraceEventType::kPauseTx) continue;
        for (size_t i = 0; i < net.switches().size(); ++i) {
          if (net.switches()[i]->id() != r.node) continue;
          (resume ? resumed : paused)[i].emplace_back(r.port, r.priority);
          ++(resume ? resumes : pauses);
        }
      }
      tracer.Clear();
    }
    for (size_t i = 0; i < net.switches().size(); ++i) {
      const SharedBufferSwitch& sw = *net.switches()[i];
      const Bytes resume_level = std::max<Bytes>(
          0, sw.CurrentPfcThreshold() - sw.config().resume_offset);
      std::vector<Pair> now = paused_pairs(sw);
      for (const auto& [p, pr] : now) {
        stuck += sw.IngressQueueBytes(p, pr) <= resume_level;
      }
      // Pairs paused before this event and not after, in scan order, and
      // the reverse.
      std::vector<Pair> fell, rose;
      for (const Pair& q : before[i]) {
        if (!std::binary_search(now.begin(), now.end(), q)) fell.push_back(q);
      }
      for (const Pair& q : now) {
        if (!std::binary_search(before[i].begin(), before[i].end(), q)) {
          rose.push_back(q);
        }
      }
      order_mismatches += fell != resumed[i];
      std::sort(paused[i].begin(), paused[i].end());
      pause_mismatches += rose != paused[i];
      // Most RESUMEs one event sent on one port, and most priorities
      // paused together on one port.
      for (size_t a = 0, b = 0; a < resumed[i].size(); a = b) {
        while (b < resumed[i].size() &&
               std::get<0>(resumed[i][b]) == std::get<0>(resumed[i][a])) {
          ++b;
        }
        max_port_resumes = std::max(max_port_resumes, static_cast<int>(b - a));
      }
      int ports = 0;
      for (size_t a = 0, b = 0; a < now.size(); a = b, ++ports) {
        while (b < now.size() && std::get<0>(now[b]) == std::get<0>(now[a])) {
          ++b;
        }
        max_port_prios = std::max(max_port_prios, static_cast<int>(b - a));
      }
      max_ports_paused = std::max(max_ports_paused, ports);
      max_resumes_in_event =
          std::max(max_resumes_in_event, static_cast<int>(resumed[i].size()));
      before[i] = std::move(now);
    }
  }
  EXPECT_EQ(stuck, 0);
  EXPECT_EQ(order_mismatches, 0);
  EXPECT_EQ(pause_mismatches, 0);
  int64_t still_paused = 0;
  for (const auto& v : before) still_paused += static_cast<int64_t>(v.size());
  EXPECT_EQ(pauses, resumes + still_paused);
  // The scenario exercises what the masks must get right: one event
  // resuming several pairs, also several on one port; several ports, and
  // several priorities of one port, paused together.
  EXPECT_GT(events, 10000);
  EXPECT_GE(max_resumes_in_event, 2);
  EXPECT_GE(max_port_resumes, 2);
  EXPECT_GE(max_ports_paused, 2);
  EXPECT_GE(max_port_prios, 2);
}

}  // namespace
}  // namespace dcqcn
