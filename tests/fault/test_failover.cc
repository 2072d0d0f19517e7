/**
 * @file
 * Failover rerouting: broken flows move to surviving paths, the
 * incremental engine update is bit-identical to a from-scratch
 * rebuild, cross-plane fallback appears when a plane dies, and
 * partitioned flows are retired as stalled.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "fault/failover.hh"
#include "fault/injector.hh"
#include "fault/schedule.hh"
#include "net/cluster.hh"
#include "net/flow.hh"
#include "obs/registry.hh"

namespace dsv3::fault {
namespace {

net::Cluster
smallCluster(net::Fabric fabric = net::Fabric::MPFT)
{
    net::ClusterConfig cfg;
    cfg.fabric = fabric;
    cfg.hosts = 4;
    cfg.gpusPerHost = 2;
    cfg.planes = 2;
    cfg.switchRadix = 8;
    return net::buildCluster(cfg);
}

std::vector<net::Flow>
allToAll(const net::Cluster &c, double bytes = 1e6)
{
    std::vector<net::Flow> flows;
    std::uint64_t qp = 0;
    for (std::size_t s = 0; s < c.gpus.size(); ++s)
        for (std::size_t d = 0; d < c.gpus.size(); ++d)
            if (s != d) {
                net::Flow f;
                f.src = c.gpus[s];
                f.dst = c.gpus[d];
                f.bytes = bytes;
                f.qp = qp++;
                flows.push_back(f);
            }
    return flows;
}

TEST(Failover, NoFaultsIsNoOp)
{
    net::Cluster c = smallCluster();
    std::vector<net::Flow> flows = allToAll(c);
    assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
    net::FlowSimEngine engine(c.graph, flows);
    std::vector<double> before = engine.solve();

    FailoverResult fo = failoverReroute(c, flows, engine,
                                        net::RoutePolicy::ADAPTIVE);
    EXPECT_EQ(fo.rerouted, 0u);
    EXPECT_TRUE(fo.stalled.empty());
    EXPECT_EQ(fo.checked, flows.size());
    std::vector<double> after = engine.solve();
    EXPECT_EQ(before, after);
}

TEST(Failover, ReroutesAroundDeadLeafAndRestoresService)
{
    net::Cluster c = smallCluster();
    std::vector<net::Flow> flows = allToAll(c);
    assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
    net::FlowSimEngine engine(c.graph, flows);
    engine.solve();

    net::NodeId leaf = net::kInvalidNode;
    for (net::NodeId n = 0; n < c.graph.nodeCount(); ++n)
        if (c.graph.node(n).kind == net::NodeKind::LEAF) {
            leaf = n;
            break;
        }
    ASSERT_NE(leaf, net::kInvalidNode);
    c.setNodeUp(leaf, false);

    FailoverResult fo = failoverReroute(c, flows, engine,
                                        net::RoutePolicy::ADAPTIVE);
    EXPECT_GT(fo.rerouted, 0u);
    EXPECT_TRUE(fo.stalled.empty());

    // Every flow still runs, and no surviving path touches the dead
    // leaf's zero-capacity edges.
    const std::vector<double> &rates = engine.solve();
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_TRUE(engine.flowActive(i));
        EXPECT_GT(rates[i], 0.0);
        EXPECT_FALSE(flowBroken(c.graph, flows[i]));
    }
}

TEST(Failover, IncrementalMatchesRebuild)
{
    net::Cluster c = smallCluster();
    std::vector<net::Flow> flows = allToAll(c);
    assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
    net::FlowSimEngine engine(c.graph, flows);
    engine.solve();

    FaultInjector inj(c);
    FaultEvent plane;
    plane.kind = FaultKind::PLANE_DOWN;
    plane.plane = 0;
    inj.apply(plane);

    FailoverResult fo = failoverReroute(c, flows, engine,
                                        net::RoutePolicy::ADAPTIVE);
    ASSERT_TRUE(fo.stalled.empty());
    EXPECT_GT(fo.rerouted, 0u);
    std::vector<double> incremental = engine.solve();

    // A fresh engine over the same rerouted flow set must produce
    // bit-identical rates.
    net::FlowSimEngine fresh(c.graph, flows);
    std::vector<double> rebuilt = fresh.solve();
    ASSERT_EQ(incremental.size(), rebuilt.size());
    for (std::size_t i = 0; i < incremental.size(); ++i)
        EXPECT_EQ(incremental[i], rebuilt[i]) << "flow " << i;
}

TEST(Failover, PlaneOutageFallsBackAcrossPlanes)
{
    // With plane 0 dead, a GPU whose NIC lives on plane 0 can only
    // reach another host by first hopping over NVLink to a sibling
    // GPU on plane 1 (the PXN relay pattern): its rerouted paths must
    // exist and be longer than the direct ones.
    net::Cluster c = smallCluster();
    std::vector<net::Flow> flows;
    net::Flow f;
    f.src = c.gpu(0, 0); // plane-0 NIC
    f.dst = c.gpu(1, 0);
    f.bytes = 1e6;
    flows.push_back(f);
    assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
    std::size_t healthy_hops = flows[0].paths[0].size();
    net::FlowSimEngine engine(c.graph, flows);
    engine.solve();

    c.setPlaneUp(0, false);
    FailoverResult fo = failoverReroute(c, flows, engine,
                                        net::RoutePolicy::ADAPTIVE);
    EXPECT_EQ(fo.rerouted, 1u);
    ASSERT_FALSE(flows[0].paths.empty());
    EXPECT_GT(flows[0].paths[0].size(), healthy_hops);
    const std::vector<double> &rates = engine.solve();
    EXPECT_GT(rates[0], 0.0);
}

TEST(Failover, PartitionedFlowsRetireAsStalled)
{
    net::Cluster c = smallCluster();
    std::vector<net::Flow> flows;
    net::Flow f;
    f.src = c.gpu(0, 0);
    f.dst = c.gpu(1, 0); // cross-host
    f.bytes = 1e6;
    flows.push_back(f);
    f.src = c.gpu(2, 0);
    f.dst = c.gpu(2, 1); // intra-host (NVLink only)
    f.qp = 1;
    flows.push_back(f);
    assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
    net::FlowSimEngine engine(c.graph, flows);
    engine.solve();

    c.setPlaneUp(0, false);
    c.setPlaneUp(1, false); // whole scale-out fabric gone

    FailoverResult fo = failoverReroute(c, flows, engine,
                                        net::RoutePolicy::ADAPTIVE);
    ASSERT_EQ(fo.stalled.size(), 1u);
    EXPECT_EQ(fo.stalled[0], 0u);
    EXPECT_FALSE(engine.flowActive(0));
    EXPECT_TRUE(engine.flowActive(1)); // NVLink path survives
    const std::vector<double> &rates = engine.solve();
    EXPECT_EQ(rates[0], 0.0);
    EXPECT_GT(rates[1], 0.0);
}

TEST(Failover, StaticTakesFirstCanonicalSurvivor)
{
    // s -> a -> t is the only shortest route, so every STATIC flow
    // takes it. Downing a -> t leaves two 3-hop survivors. A static
    // table has no planner at failover time: every broken flow must
    // land on the first canonical survivor, where the greedy table
    // assignPaths() builds would spread them over both.
    net::Cluster c;
    net::Graph &g = c.graph;
    net::NodeId s = g.addNode(net::NodeKind::GPU, "s");
    net::NodeId a = g.addNode(net::NodeKind::LEAF, "a");
    net::NodeId b1 = g.addNode(net::NodeKind::LEAF, "b1");
    net::NodeId b2 = g.addNode(net::NodeKind::LEAF, "b2");
    net::NodeId m = g.addNode(net::NodeKind::SPINE, "m");
    net::NodeId t = g.addNode(net::NodeKind::GPU, "t");
    g.addEdge(s, a, 10.0, 1e-6);
    net::EdgeId at = g.addEdge(a, t, 10.0, 1e-6);
    g.addEdge(s, b1, 10.0, 1e-6);
    g.addEdge(s, b2, 10.0, 1e-6);
    g.addEdge(b1, m, 10.0, 1e-6);
    g.addEdge(b2, m, 10.0, 1e-6);
    g.addEdge(m, t, 10.0, 1e-6);

    std::vector<net::Flow> flows(3);
    for (std::size_t k = 0; k < flows.size(); ++k) {
        flows[k].src = s;
        flows[k].dst = t;
        flows[k].bytes = 1e6;
        flows[k].qp = k;
    }
    assignPaths(g, flows, net::RoutePolicy::STATIC);
    net::FlowSimEngine engine(g, flows);
    engine.solve();

    g.setEdgeCapacity(at, 0.0);
    std::vector<std::vector<net::EdgeId>> survivors;
    for (net::Path p : net::shortestPaths(g, s, t))
        survivors.emplace_back(p.begin(), p.end());
    std::sort(survivors.begin(), survivors.end());
    ASSERT_EQ(survivors.size(), 2u);

    FailoverResult fo =
        failoverReroute(c, flows, engine, net::RoutePolicy::STATIC);
    EXPECT_EQ(fo.rerouted, flows.size());
    for (const net::Flow &f : flows) {
        ASSERT_EQ(f.paths.size(), 1u);
        EXPECT_TRUE(std::ranges::equal(f.paths[0], survivors[0]));
        EXPECT_EQ(f.weights[0], 1.0);
    }
    const std::vector<double> &rates = engine.solve();
    for (std::size_t k = 0; k < flows.size(); ++k)
        EXPECT_GT(rates[k], 0.0) << k;

    // The greedy table over the same flows on the degraded graph
    // differs, so the check above tells the two apart.
    std::vector<net::Flow> greedy = flows;
    assignPaths(g, greedy, net::RoutePolicy::STATIC);
    EXPECT_TRUE(std::ranges::equal(greedy[1].paths[0], survivors[1]));
}

/** Route one pair on each of @p n new fingerprints. */
void
fillOtherTables(std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        net::Graph g;
        const net::NodeId s = g.addNode(net::NodeKind::GPU, "s");
        const net::NodeId t = g.addNode(net::NodeKind::GPU, "t");
        for (std::size_t m = 0; m <= k; ++m) {
            const net::NodeId relay = g.addNode(net::NodeKind::LEAF, "m");
            g.addEdge(s, relay, 1.0, 1e-6);
            g.addEdge(relay, t, 1.0, 1e-6);
        }
        (void)net::RouteCache::global().paths(g, s, t);
    }
}

TEST(Failover, EvictedTablesMatchCacheOff)
{
    // After failover, untouched flows view the healthy table's sets
    // and rerouted ones the degraded table's. Evicting both tables
    // between fault injection and the re-solve must change nothing:
    // the flows' pins keep them alive.
    const bool cache_was = net::RouteCache::enabled();
    obs::Counter &evictions =
        obs::Registry::global().counter("net.route_cache.evictions");
    auto failAndRun = [&](bool cached) {
        net::RouteCache::setEnabled(cached);
        net::RouteCache::global().clear();
        net::Cluster c = smallCluster();
        std::vector<net::Flow> flows = allToAll(c);
        assignPaths(c.graph, flows, net::RoutePolicy::ADAPTIVE);
        net::FlowSimEngine engine(c.graph, flows);
        engine.solve();
        FaultInjector inj(c);
        FaultEvent plane;
        plane.kind = FaultKind::PLANE_DOWN;
        plane.plane = 0;
        inj.apply(plane);
        FailoverResult fo = failoverReroute(c, flows, engine,
                                            net::RoutePolicy::ADAPTIVE);
        EXPECT_GT(fo.rerouted, 0u);
        EXPECT_LT(fo.rerouted, flows.size());
        const std::uint64_t evicted = evictions.value();
        fillOtherTables(64); // 66 tables: healthy and degraded go
        if (cached) {
            EXPECT_GE(evictions.value(), evicted + 2);
        }
        return engine.run();
    };
    const net::FlowSimResult want = failAndRun(false);
    const net::FlowSimResult got = failAndRun(true);
    net::RouteCache::global().clear();
    net::RouteCache::setEnabled(cache_was);
    EXPECT_EQ(got.rates, want.rates);
    EXPECT_EQ(got.finishTimes, want.finishTimes);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.epochs, want.epochs);
}

TEST(Failover, EcmpRerouteIsDeterministic)
{
    net::Cluster c1 = smallCluster();
    net::Cluster c2 = smallCluster();
    std::vector<net::Flow> f1 = allToAll(c1);
    std::vector<net::Flow> f2 = allToAll(c2);
    assignPaths(c1.graph, f1, net::RoutePolicy::ECMP, 5);
    assignPaths(c2.graph, f2, net::RoutePolicy::ECMP, 5);
    net::FlowSimEngine e1(c1.graph, f1);
    net::FlowSimEngine e2(c2.graph, f2);
    e1.solve();
    e2.solve();
    c1.setPlaneUp(0, false);
    c2.setPlaneUp(0, false);
    failoverReroute(c1, f1, e1, net::RoutePolicy::ECMP, 5);
    failoverReroute(c2, f2, e2, net::RoutePolicy::ECMP, 5);
    EXPECT_EQ(e1.solve(), e2.solve());
}

} // namespace
} // namespace dsv3::fault
