/**
 * @file
 * Tests for the process-level route cache: fingerprint keying,
 * warm-hit identity, edge-down re-keying, repair round-trips, the
 * degrade-does-not-invalidate guarantee, byte-equivalence of
 * assignPaths() with the cache on, warm, or off, and the lifetime of
 * the path sets flows view.
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <memory>
#include <span>

#include "common/thread_pool.hh"
#include "net/cluster.hh"
#include "net/flow.hh"
#include "net/graph.hh"
#include "net/route_cache.hh"
#include "obs/registry.hh"

namespace dsv3::net {
namespace {

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** A path or weight view as a comparable vector. */
template <typename T>
std::vector<T>
vec(std::span<const T> view)
{
    return {view.begin(), view.end()};
}

/** A path list as comparable vectors. */
std::vector<std::vector<EdgeId>>
vec(PathList paths)
{
    std::vector<std::vector<EdgeId>> out;
    for (Path p : paths)
        out.push_back(vec(p));
    return out;
}

/** Fresh enumeration in the cache's canonical order. */
std::vector<std::vector<EdgeId>>
canonicalPaths(const Graph &g, NodeId src, NodeId dst,
               std::size_t max_paths = 512)
{
    auto found = vec(shortestPaths(g, src, dst, max_paths).list());
    std::sort(found.begin(), found.end());
    return found;
}

/** Diamond: s -> {a, b} -> t, two equal-cost paths. */
Graph
diamond()
{
    Graph g;
    NodeId s = g.addNode(NodeKind::GPU, "s");
    NodeId a = g.addNode(NodeKind::LEAF, "a");
    NodeId b = g.addNode(NodeKind::LEAF, "b");
    NodeId t = g.addNode(NodeKind::GPU, "t");
    g.addEdge(s, a, 10.0, 1e-6);
    g.addEdge(a, t, 10.0, 1e-6);
    g.addEdge(s, b, 10.0, 1e-6);
    g.addEdge(b, t, 10.0, 1e-6);
    return g;
}

class RouteCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RouteCache::setEnabled(true);
        RouteCache::global().clear();
    }
    void
    TearDown() override
    {
        RouteCache::global().clear();
        RouteCache::setEnabled(true);
    }
};

TEST_F(RouteCacheTest, WarmHitReturnsSameSet)
{
    Graph g = diamond();
    auto first = RouteCache::global().paths(g, 0, 3);
    ASSERT_EQ(first->paths.size(), 2u);
    EXPECT_TRUE(first->complete);
    EXPECT_EQ(vec(first->paths), canonicalPaths(g, 0, 3));

    std::uint64_t hits = counterValue("net.route_cache.hits");
    auto second = RouteCache::global().paths(g, 0, 3);
    // Same immutable object, not a re-enumeration.
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(counterValue("net.route_cache.hits"), hits + 1);
}

TEST_F(RouteCacheTest, StructurallyIdenticalGraphsShareEntries)
{
    Graph g1 = diamond();
    Graph g2 = diamond();
    EXPECT_EQ(g1.fingerprint(), g2.fingerprint());
    auto p1 = RouteCache::global().paths(g1, 0, 3);
    auto p2 = RouteCache::global().paths(g2, 0, 3);
    EXPECT_EQ(p1.get(), p2.get());
}

TEST_F(RouteCacheTest, EdgeDownDerivesFilteredSet)
{
    Graph g = diamond();
    auto healthy = RouteCache::global().paths(g, 0, 3);
    ASSERT_EQ(healthy->paths.size(), 2u);
    const std::uint64_t fp = g.fingerprint();

    g.setEdgeCapacity(0, 0.0); // s->a down
    EXPECT_NE(g.fingerprint(), fp);
    auto degraded = RouteCache::global().paths(g, 0, 3);
    // The degraded fingerprint keys its own entry: exactly what fresh
    // enumeration on the degraded graph returns, which is the healthy
    // set minus the path through the downed edge.
    EXPECT_NE(degraded.get(), healthy.get());
    ASSERT_EQ(degraded->paths.size(), 1u);
    EXPECT_EQ(vec(degraded->paths), canonicalPaths(g, 0, 3));
    EXPECT_EQ(vec(degraded->paths[0]), vec(healthy->paths[1]));
    EXPECT_EQ(RouteCache::global().paths(g, 0, 3).get(), degraded.get());
    // The healthy entry is untouched (old fingerprint still keyed).
    EXPECT_EQ(healthy->paths.size(), 2u);
}

TEST_F(RouteCacheTest, EmptySurvivorsFallBackToBfs)
{
    // s -> a -> t (2 hops) plus s -> b -> c -> t (3 hops): the
    // complete shortest set is just the 2-hop path, so downing a->t
    // leaves none of it, and the lookup must find the now-shortest
    // 3-hop route.
    Graph g;
    NodeId s = g.addNode(NodeKind::GPU, "s");
    NodeId a = g.addNode(NodeKind::LEAF, "a");
    NodeId b = g.addNode(NodeKind::LEAF, "b");
    NodeId c = g.addNode(NodeKind::LEAF, "c");
    NodeId t = g.addNode(NodeKind::GPU, "t");
    g.addEdge(s, a, 10.0, 1e-6);
    EdgeId at = g.addEdge(a, t, 10.0, 1e-6);
    g.addEdge(s, b, 10.0, 1e-6);
    g.addEdge(b, c, 10.0, 1e-6);
    g.addEdge(c, t, 10.0, 1e-6);

    auto healthy = RouteCache::global().paths(g, s, t);
    ASSERT_EQ(healthy->paths.size(), 1u);
    EXPECT_EQ(healthy->paths[0].size(), 2u);

    g.setEdgeCapacity(at, 0.0);
    auto rerouted = RouteCache::global().paths(g, s, t);
    ASSERT_EQ(rerouted->paths.size(), 1u);
    EXPECT_EQ(rerouted->paths[0].size(), 3u);
    EXPECT_EQ(vec(rerouted->paths), canonicalPaths(g, s, t));
}

TEST_F(RouteCacheTest, RepairReturnsByteIdenticalToColdCache)
{
    // down -> repair must land back on the original cached entry:
    // the downed-edge fold is self-inverse, so the fingerprint
    // round-trips, and the path set is pointer-identical -- trivially
    // byte-identical to what a cold cache would re-enumerate.
    Graph g = diamond();
    auto before = RouteCache::global().paths(g, 0, 3);
    const std::uint64_t fp = g.fingerprint();

    g.setEdgeCapacity(0, 0.0);
    (void)RouteCache::global().paths(g, 0, 3);
    g.setEdgeCapacity(0, 10.0); // repair
    EXPECT_EQ(g.fingerprint(), fp);

    auto after = RouteCache::global().paths(g, 0, 3);
    EXPECT_EQ(before.get(), after.get());

    // And against a genuinely cold cache: same bytes.
    RouteCache::global().clear();
    auto cold = RouteCache::global().paths(g, 0, 3);
    EXPECT_EQ(vec(cold->paths), vec(after->paths));
}

TEST_F(RouteCacheTest, DegradedCapacityDoesNotInvalidate)
{
    // Shortest-path keying depends on up/down only: degrading a link
    // to any non-zero capacity must not move the fingerprint and must
    // keep serving the exact cached object, which still equals fresh
    // enumeration on the degraded graph.
    Graph g = diamond();
    auto before = RouteCache::global().paths(g, 0, 3);
    const std::uint64_t fp = g.fingerprint();

    g.setEdgeCapacity(0, 1e-3); // degraded but alive
    EXPECT_EQ(g.fingerprint(), fp);
    auto during = RouteCache::global().paths(g, 0, 3);
    EXPECT_EQ(before.get(), during.get());
    EXPECT_EQ(vec(during->paths), canonicalPaths(g, 0, 3));
}

TEST_F(RouteCacheTest, TruncatedEnumerationIsDeterministic)
{
    // 3 parallel relays: 3 equal-cost paths; bound at 2. Truncation
    // happens in DFS order before the canonical sort, so cached and
    // uncached answers must agree bound-for-bound, and the truncation
    // counter must tick.
    Graph g;
    NodeId s = g.addNode(NodeKind::GPU, "s");
    NodeId t = g.addNode(NodeKind::GPU, "t");
    for (int i = 0; i < 3; ++i) {
        NodeId m = g.addNode(NodeKind::LEAF, "m" + std::to_string(i));
        g.addEdge(s, m, 10.0, 1e-6);
        g.addEdge(m, t, 10.0, 1e-6);
    }

    std::uint64_t trunc = counterValue("net.graph.paths_truncated");
    auto bounded = RouteCache::global().paths(g, s, t, 2);
    EXPECT_GT(counterValue("net.graph.paths_truncated"), trunc);
    EXPECT_FALSE(bounded->complete);
    ASSERT_EQ(bounded->paths.size(), 2u);
    EXPECT_EQ(vec(bounded->paths), canonicalPaths(g, s, t, 2));
    // Warm repeat with the same bound: cached, identical.
    auto again = RouteCache::global().paths(g, s, t, 2);
    EXPECT_EQ(bounded.get(), again.get());

    // A different bound cannot be served from the truncated entry.
    auto full = RouteCache::global().paths(g, s, t, 512);
    EXPECT_TRUE(full->complete);
    EXPECT_EQ(full->paths.size(), 3u);
    EXPECT_EQ(vec(full->paths), canonicalPaths(g, s, t, 512));
}

TEST_F(RouteCacheTest, AssignPathsMatchesCacheOff)
{
    // All three policies, cold cache, warm cache, and cache off must
    // populate byte-identical paths/weights.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MPFT;
        cc.hosts = 4;
        return cc;
    }());
    std::vector<Flow> base;
    std::uint64_t qp = 0;
    for (std::size_t s = 0; s < c.gpus.size(); s += 3)
        for (std::size_t d = 0; d < c.gpus.size(); d += 5) {
            if (s == d)
                continue;
            Flow f;
            f.src = c.gpus[s];
            f.dst = c.gpus[d];
            f.bytes = 1e6;
            f.qp = qp++;
            base.push_back(f);
        }

    for (RoutePolicy policy :
         {RoutePolicy::ECMP, RoutePolicy::ADAPTIVE,
          RoutePolicy::STATIC}) {
        RouteCache::global().clear();
        auto cold = base;
        assignPaths(c.graph, cold, policy, 7);
        auto warm = base;
        assignPaths(c.graph, warm, policy, 7);
        RouteCache::setEnabled(false);
        auto off = base;
        assignPaths(c.graph, off, policy, 7);
        RouteCache::setEnabled(true);

        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(vec(cold[i].paths), vec(off[i].paths));
            EXPECT_EQ(vec(cold[i].weights), vec(off[i].weights));
            EXPECT_EQ(vec(warm[i].paths), vec(off[i].paths));
            EXPECT_EQ(vec(warm[i].weights), vec(off[i].weights));
        }
    }
}

TEST_F(RouteCacheTest, StaticKthPathStableUnderCacheReuse)
{
    // Regression for the STATIC policy's "k-th path" semantics: the
    // greedy table walks candidates in canonical order, so the path
    // flow k lands on must not depend on whether the candidate set
    // came from a cold cache, a warm cache, or per-call enumeration.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MRFT;
        cc.hosts = 4;
        return cc;
    }());
    std::vector<Flow> base;
    for (std::uint64_t k = 0; k < 8; ++k) {
        Flow f;
        f.src = c.gpus[0];
        f.dst = c.gpus[c.gpus.size() - 1];
        f.bytes = 1e6;
        f.qp = k;
        base.push_back(f);
    }

    auto kth = [&](std::vector<Flow> flows) {
        assignPaths(c.graph, flows, RoutePolicy::STATIC);
        std::vector<std::vector<EdgeId>> picks;
        for (const Flow &f : flows)
            picks.push_back(vec(f.paths).at(0));
        return picks;
    };

    RouteCache::global().clear();
    auto cold = kth(base);
    auto warm = kth(base); // second call reuses the cached sets
    RouteCache::setEnabled(false);
    auto off = kth(base);
    RouteCache::setEnabled(true);

    EXPECT_EQ(cold, off);
    EXPECT_EQ(warm, off);
    // The greedy spreader must actually use distinct paths for
    // same-pair flows (k-th path, not always the first).
    EXPECT_NE(cold.front(), cold.back());
}

/** Strided all-to-all sample for the view-lifetime tests. */
std::vector<Flow>
sampleFlows(const Cluster &c)
{
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (std::size_t s = 0; s < c.gpus.size(); s += 3)
        for (std::size_t d = 0; d < c.gpus.size(); d += 5) {
            if (s == d)
                continue;
            Flow f;
            f.src = c.gpus[s];
            f.dst = c.gpus[d];
            f.bytes = 1e6;
            f.qp = qp++;
            flows.push_back(f);
        }
    return flows;
}

/** @p flows' views equal a fresh assignment with the cache off. */
void
expectMatchesCacheOff(const Graph &g, const std::vector<Flow> &flows,
                      RoutePolicy policy)
{
    auto off = flows;
    RouteCache::setEnabled(false);
    assignPaths(g, off, policy, 7);
    RouteCache::setEnabled(true);
    ASSERT_EQ(flows.size(), off.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_EQ(vec(flows[i].paths), vec(off[i].paths)) << i;
        EXPECT_EQ(vec(flows[i].weights), vec(off[i].weights)) << i;
    }
}

TEST_F(RouteCacheTest, FlowViewsOutliveCacheClear)
{
    // Flows view their paths inside the cached sets; clearing the
    // cache drops its references, and the flows' own pins must keep
    // every viewed set alive.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MPFT;
        cc.hosts = 4;
        return cc;
    }());
    for (RoutePolicy policy :
         {RoutePolicy::ECMP, RoutePolicy::ADAPTIVE,
          RoutePolicy::STATIC}) {
        auto flows = sampleFlows(c);
        assignPaths(c.graph, flows, policy, 7);
        RouteCache::global().clear();
        expectMatchesCacheOff(c.graph, flows, policy);
    }
}

TEST_F(RouteCacheTest, FlowViewsSurviveCopyAndDestroy)
{
    // A copied flow vector shares the original's pins: destroying the
    // original (with the cache already cleared, so the copies hold
    // the only references) must leave the copies' views intact.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MRFT;
        cc.hosts = 4;
        return cc;
    }());
    for (RoutePolicy policy :
         {RoutePolicy::ECMP, RoutePolicy::ADAPTIVE,
          RoutePolicy::STATIC}) {
        auto original = std::make_unique<std::vector<Flow>>(
            sampleFlows(c));
        assignPaths(c.graph, *original, policy, 7);
        RouteCache::global().clear();
        std::vector<Flow> copy = *original;
        original.reset();
        expectMatchesCacheOff(c.graph, copy, policy);
    }
}

TEST_F(RouteCacheTest, ArenaGrowthLeavesEarlySetsInPlace)
{
    // A table's arena grows by adding chunks, never by moving what it
    // holds: a set handed out before the table filled many more
    // chunks keeps its address and its bytes.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MRFT;
        cc.hosts = 4;
        return cc;
    }());
    const NodeId src = c.gpus.front(), dst = c.gpus.back();
    const PathSetRef first = RouteCache::global().paths(c.graph, src, dst);
    const EdgeId *first_edges = first->paths.edges().data();
    const auto want_paths = vec(first->paths);
    const auto want_weights = vec(first->weights);

    std::size_t bytes = 0;
    for (NodeId s : c.gpus)
        for (NodeId d : c.gpus) {
            const PathSetRef set = RouteCache::global().paths(c.graph, s, d);
            bytes += set->paths.edges().size_bytes() +
                     set->weights.size_bytes();
        }
    ASSERT_GT(bytes, 64u * 1024); // far past the first chunk

    const PathSetRef again = RouteCache::global().paths(c.graph, src, dst);
    EXPECT_EQ(again.get(), first.get());
    EXPECT_EQ(again->paths.edges().data(), first_edges);
    EXPECT_EQ(vec(first->paths), want_paths);
    EXPECT_EQ(vec(first->weights), want_weights);
    EXPECT_EQ(vec(first->paths), canonicalPaths(c.graph, src, dst));
}

TEST_F(RouteCacheTest, ConcurrentFillsMatchSerialEnumeration)
{
    // Parallel sweeps fill one table from several threads: each miss
    // enumerates outside the cache lock and appends under it. Every
    // call's sets must equal a serial fresh enumeration of the pair.
    Cluster c = buildCluster([] {
        ClusterConfig cc;
        cc.fabric = Fabric::MRFT;
        cc.hosts = 4;
        return cc;
    }());
    constexpr std::size_t kCalls = 8;
    std::vector<std::vector<Flow>> calls(kCalls);
    parallelFor(kCalls, [&](std::size_t k) {
        // Each call starts from a different source, so calls race on
        // the same misses.
        std::vector<Flow> flows;
        for (std::size_t i = 0; i < c.gpus.size(); ++i)
            for (NodeId dst : c.gpus) {
                Flow f;
                f.src = c.gpus[(i + 5 * k) % c.gpus.size()];
                f.dst = dst;
                f.bytes = 1e6;
                flows.push_back(f);
            }
        assignPaths(c.graph, flows, RoutePolicy::ADAPTIVE);
        calls[k] = std::move(flows);
    });
    for (const std::vector<Flow> &flows : calls)
        for (const Flow &f : flows)
            ASSERT_EQ(vec(f.paths), canonicalPaths(c.graph, f.src, f.dst))
                << f.src << "->" << f.dst;
}

TEST_F(RouteCacheTest, FingerprintTracksStructureNotCapacity)
{
    Graph g1 = diamond();
    Graph g2 = diamond();
    g2.addEdge(1, 2, 5.0, 1e-6); // extra a->b edge
    EXPECT_NE(g1.fingerprint(), g2.fingerprint());

    const std::uint64_t fp = g1.fingerprint();
    g1.setEdgeCapacity(2, 4.2); // capacity change, still up
    EXPECT_EQ(g1.fingerprint(), fp);
    g1.setEdgeCapacity(2, 0.0); // down: moves
    EXPECT_NE(g1.fingerprint(), fp);
    g1.setEdgeCapacity(2, 9.9); // any repair value: moves back
    EXPECT_EQ(g1.fingerprint(), fp);
}

} // namespace
} // namespace dsv3::net
