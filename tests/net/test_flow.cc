/**
 * @file
 * Tests for routing-policy path assignment and max-min fair flow
 * simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/flow.hh"

namespace dsv3::net {
namespace {

/** Two-leaf, two-spine leaf-spine fabric with 4 hosts. */
struct Fabric
{
    Graph g;
    NodeId host[4];
};

Fabric
makeFabric(double nic = 10.0, double trunk = 10.0)
{
    Fabric f;
    NodeId leaf0 = f.g.addNode(NodeKind::LEAF, "leaf0");
    NodeId leaf1 = f.g.addNode(NodeKind::LEAF, "leaf1");
    NodeId sp0 = f.g.addNode(NodeKind::SPINE, "sp0");
    NodeId sp1 = f.g.addNode(NodeKind::SPINE, "sp1");
    for (NodeId leaf : {leaf0, leaf1})
        for (NodeId sp : {sp0, sp1})
            f.g.addDuplex(leaf, sp, trunk, 1e-6);
    for (int i = 0; i < 4; ++i) {
        f.host[i] = f.g.addNode(NodeKind::GPU,
                                "h" + std::to_string(i));
        f.g.addDuplex(f.host[i], i < 2 ? leaf0 : leaf1, nic, 1e-6);
    }
    return f;
}

TEST(AssignPaths, EcmpPicksSinglePath)
{
    Fabric f = makeFabric();
    std::vector<Flow> flows = {{f.host[0], f.host[2], 100.0, 1, {}, {}}};
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    EXPECT_EQ(flows[0].paths.size(), 1u);
    EXPECT_DOUBLE_EQ(flows[0].weights[0], 1.0);
}

TEST(AssignPaths, AdaptiveSplitsAcrossAll)
{
    Fabric f = makeFabric();
    std::vector<Flow> flows = {{f.host[0], f.host[2], 100.0, 1, {}, {}}};
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    EXPECT_EQ(flows[0].paths.size(), 2u); // two spines
    EXPECT_DOUBLE_EQ(flows[0].weights[0], 0.5);
}

TEST(AssignPaths, EcmpSeedChangesSelection)
{
    Fabric f = makeFabric();
    int differs = 0;
    for (std::uint64_t qp = 0; qp < 32; ++qp) {
        std::vector<Flow> a = {{f.host[0], f.host[2], 1.0, qp, {}, {}}};
        std::vector<Flow> b = a;
        assignPaths(f.g, a, RoutePolicy::ECMP, 1);
        assignPaths(f.g, b, RoutePolicy::ECMP, 2);
        differs += !std::ranges::equal(a[0].paths[0], b[0].paths[0]);
    }
    EXPECT_GT(differs, 4); // different hash seeds move some flows
}

TEST(AssignPaths, StaticAvoidsConflictsGreedily)
{
    Fabric f = makeFabric();
    // Two flows from the same leaf to the other leaf: greedy static
    // must spread them over the two spines.
    std::vector<Flow> flows = {
        {f.host[0], f.host[2], 1.0, 0, {}, {}},
        {f.host[1], f.host[3], 1.0, 1, {}, {}},
    };
    assignPaths(f.g, flows, RoutePolicy::STATIC);
    // Their spine hops must differ.
    EXPECT_NE(flows[0].paths[0][1], flows[1].paths[0][1]);
}

TEST(MaxMin, SingleFlowGetsBottleneck)
{
    Fabric f = makeFabric(10.0, 4.0); // trunk narrower than NIC
    std::vector<Flow> flows = {{f.host[0], f.host[2], 1.0, 0, {}, {}}};
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    auto rates = maxMinRates(f.g, flows);
    EXPECT_DOUBLE_EQ(rates[0], 4.0);
}

TEST(MaxMin, AdaptiveAggregatesPaths)
{
    Fabric f = makeFabric(10.0, 4.0);
    std::vector<Flow> flows = {{f.host[0], f.host[2], 1.0, 0, {}, {}}};
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto rates = maxMinRates(f.g, flows);
    // Two 4.0 trunks exceed the 10.0 NIC? 2x4 = 8 < 10 -> rate 8.
    EXPECT_DOUBLE_EQ(rates[0], 8.0);
}

TEST(MaxMin, FairShareOnSharedLink)
{
    Fabric f = makeFabric();
    // Both flows forced on the same NIC edge: host0 sends to 2 and 3.
    std::vector<Flow> flows = {
        {f.host[0], f.host[2], 1.0, 0, {}, {}},
        {f.host[0], f.host[3], 1.0, 1, {}, {}},
    };
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto rates = maxMinRates(f.g, flows);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMin, UnequalDemandsWaterfill)
{
    // Three flows through one 9-capacity edge plus one flow with its
    // own 2-capacity edge elsewhere: classic water-filling.
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 9.0, 1e-6);
    std::vector<Flow> flows(3);
    for (auto &fl : flows) {
        fl.src = a;
        fl.dst = b;
        fl.bytes = 1.0;
    }
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto rates = maxMinRates(g, flows);
    for (double r : rates)
        EXPECT_DOUBLE_EQ(r, 3.0);
}

TEST(Simulate, CompletionTimesWithDifferentSizes)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 10.0, 1e-6);
    std::vector<Flow> flows = {
        {a, b, 10.0, 0, {}, {}},
        {a, b, 30.0, 1, {}, {}},
    };
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    // Phase 1: both at 5 B/s. Flow 0 done at t=2 (10B). Flow 1 has
    // 20B left, then runs at 10 B/s: +2s. Total 4s.
    EXPECT_NEAR(sim.finishTimes[0], 2.0, 1e-6);
    EXPECT_NEAR(sim.finishTimes[1], 4.0, 1e-6);
    EXPECT_NEAR(sim.makespan, 4.0, 1e-6);
}

TEST(Simulate, ZeroByteFlowsFinishInstantly)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 10.0, 1e-6);
    std::vector<Flow> flows = {{a, b, 0.0, 0, {}, {}}};
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    EXPECT_DOUBLE_EQ(sim.makespan, 0.0);
}

TEST(Simulate, PeakUtilizationReported)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 10.0, 1e-6);
    std::vector<Flow> flows = {{a, b, 10.0, 0, {}, {}}};
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    EXPECT_NEAR(sim.peakUtilization, 1.0, 1e-9);
}

TEST(Simulate, LocalFlowInfinitelyFast)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    std::vector<Flow> flows = {{a, a, 100.0, 0, {}, {}}};
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    EXPECT_DOUBLE_EQ(sim.makespan, 0.0);
}

TEST(Simulate, LocalFlowsMixedWithNetworkFlows)
{
    // Regression: a local (infinite-rate) flow in the active set made
    // the first epoch advance by dt == 0, and `remaining -= inf * 0`
    // produced a NaN that only an isinf() check rescued. Local flows
    // now finish up front; network flows must be timed as if the
    // locals were never there.
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 10.0, 1e-6);
    std::vector<Flow> flows = {
        {a, a, 100.0, 0, {}, {}}, // local
        {a, b, 20.0, 1, {}, {}},  // network: 2 s at 10 B/s
        {b, b, 1.0, 2, {}, {}},   // local
    };
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    EXPECT_DOUBLE_EQ(sim.finishTimes[0], 0.0);
    EXPECT_DOUBLE_EQ(sim.finishTimes[2], 0.0);
    EXPECT_TRUE(std::isinf(sim.rates[0]));
    EXPECT_NEAR(sim.finishTimes[1], 2.0, 1e-9);
    EXPECT_NEAR(sim.makespan, 2.0, 1e-9);
    for (double t : sim.finishTimes)
        EXPECT_TRUE(std::isfinite(t));
}

TEST(Simulate, SubMicrobyteFlowsTimedExactly)
{
    // Regression: the old absolute finish threshold (1e-6 B) declared
    // sub-microbyte flows done a whole epoch early. The threshold is
    // now relative to each flow's size.
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addEdge(a, b, 1.0, 1e-6);
    std::vector<Flow> flows = {
        {a, b, 1e-9, 0, {}, {}},
        {a, b, 3e-9, 1, {}, {}},
    };
    assignPaths(g, flows, RoutePolicy::ECMP);
    auto sim = simulateFlows(g, flows);
    // Shared 1 B/s link: both at 0.5 B/s until flow 0 finishes at
    // 2e-9 s; flow 1's remaining 2e-9 B then drains at 1 B/s.
    EXPECT_NEAR(sim.finishTimes[0], 2e-9, 1e-15);
    EXPECT_NEAR(sim.finishTimes[1], 4e-9, 1e-15);
    EXPECT_EQ(sim.epochs, 2u);
}

TEST(Simulate, ConservationOfWork)
{
    // Total bytes / aggregate capacity lower-bounds the makespan.
    Fabric f = makeFabric(10.0, 10.0);
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            if (i != j)
                flows.push_back({f.host[i], f.host[j], 120.0, qp++,
                                 {}, {}});
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto sim = simulateFlows(f.g, flows);
    // Each host sends 3*120 = 360 B through a 10 B/s NIC: >= 36 s.
    EXPECT_GE(sim.makespan, 36.0 - 1e-6);
    EXPECT_LT(sim.makespan, 72.0);
}

TEST(Policy, Names)
{
    EXPECT_STREQ(routePolicyName(RoutePolicy::ECMP), "ECMP");
    EXPECT_STREQ(routePolicyName(RoutePolicy::ADAPTIVE), "AR");
    EXPECT_STREQ(routePolicyName(RoutePolicy::STATIC), "Static");
}

} // namespace
} // namespace dsv3::net
