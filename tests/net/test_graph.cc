/**
 * @file
 * Tests for the capacity graph and shortest-path enumeration,
 * including a golden check of the per-source DAG enumeration against
 * the per-pair BFS it replaced.
 */

#include <algorithm>
#include <deque>
#include <gtest/gtest.h>
#include <tuple>

#include "net/cluster.hh"
#include "net/dragonfly.hh"
#include "net/graph.hh"
#include "net/slimfly.hh"

namespace dsv3::net {
namespace {

/** Diamond: s -> {a, b} -> t, two equal-cost paths. */
Graph
diamond(double cap_top = 10.0, double cap_bottom = 10.0)
{
    Graph g;
    NodeId s = g.addNode(NodeKind::GPU, "s");
    NodeId a = g.addNode(NodeKind::LEAF, "a");
    NodeId b = g.addNode(NodeKind::LEAF, "b");
    NodeId t = g.addNode(NodeKind::GPU, "t");
    g.addEdge(s, a, cap_top, 1e-6);
    g.addEdge(a, t, cap_top, 1e-6);
    g.addEdge(s, b, cap_bottom, 1e-6);
    g.addEdge(b, t, cap_bottom, 1e-6);
    return g;
}

/**
 * The per-pair enumeration shortestPaths() used before it shared one
 * BFS per source, kept verbatim (minus its stats and warning) as the
 * oracle: a fresh BFS from src that stops expanding past dst's level,
 * then a DFS from dst back over the parent lists.
 */
std::vector<std::vector<EdgeId>>
referenceShortestPaths(const Graph &graph, NodeId src, NodeId dst,
                       std::size_t max_paths, bool *truncated)
{
    if (truncated)
        *truncated = false;
    if (src == dst)
        return {std::vector<EdgeId>{}};

    constexpr std::uint32_t kInf = 0xffffffffu;
    std::vector<std::uint32_t> dist(graph.nodeCount(), kInf);
    std::vector<std::vector<EdgeId>> parents(graph.nodeCount());
    std::deque<NodeId> queue;
    dist[src] = 0;
    queue.push_back(src);
    while (!queue.empty()) {
        NodeId u = queue.front();
        queue.pop_front();
        if (dist[u] >= dist[dst] && dst != u && dist[dst] != kInf)
            continue; // no shorter paths can be found beyond dst
        for (EdgeId e : graph.outEdges(u)) {
            if (graph.edge(e).capacity <= 0.0)
                continue; // faulted edge
            NodeId v = graph.edge(e).to;
            if (dist[v] == kInf) {
                dist[v] = dist[u] + 1;
                parents[v].push_back(e);
                queue.push_back(v);
            } else if (dist[v] == dist[u] + 1) {
                parents[v].push_back(e);
            }
        }
    }
    if (dist[dst] == kInf)
        return {};

    std::vector<std::vector<EdgeId>> paths;
    std::vector<EdgeId> current;
    struct Frame { NodeId node; std::size_t idx; };
    std::vector<Frame> stack;
    stack.push_back({dst, 0});
    while (!stack.empty()) {
        Frame &top = stack.back();
        if (top.node == src) {
            std::vector<EdgeId> p(current.rbegin(), current.rend());
            paths.push_back(std::move(p));
            if (paths.size() >= max_paths) {
                if (truncated)
                    *truncated = true;
                break;
            }
            stack.pop_back();
            if (!current.empty())
                current.pop_back();
            continue;
        }
        if (top.idx >= parents[top.node].size()) {
            stack.pop_back();
            if (!current.empty())
                current.pop_back();
            continue;
        }
        EdgeId e = parents[top.node][top.idx++];
        current.push_back(e);
        stack.push_back({graph.edge(e).from, 0});
    }
    return paths;
}

/** Paths as owned vectors, comparable with the oracle's. */
std::vector<std::vector<EdgeId>>
vec(const PathBuffer &paths)
{
    std::vector<std::vector<EdgeId>> out;
    for (Path p : paths)
        out.emplace_back(p.begin(), p.end());
    return out;
}

/**
 * shortestPaths() must return the oracle's unsorted vector and
 * truncation flag. Reports the first mismatch; true when all agree.
 */
bool
matchesReference(const Graph &g, NodeId src, NodeId dst,
                 std::size_t max_paths)
{
    bool want_trunc = false, got_trunc = false;
    auto want = referenceShortestPaths(g, src, dst, max_paths, &want_trunc);
    auto got = shortestPaths(g, src, dst, max_paths, &got_trunc);
    if (vec(got) == want && got_trunc == want_trunc)
        return true;
    ADD_FAILURE() << src << "->" << dst << " max_paths " << max_paths
                  << ": " << got.size() << " paths (truncated "
                  << got_trunc << "), oracle " << want.size()
                  << " (truncated " << want_trunc << ")";
    return false;
}

/**
 * Every ordered node pair at bounds 1, 2 and 512. The oracle's DFS
 * emits paths in a fixed order and stops at the bound, so its answer
 * at bound k is the first min(k, n) paths of its answer at 512, and it
 * truncates exactly when n >= k: one oracle run per pair checks all
 * three bounds.
 */
void
expectAllPairsMatchReference(const Graph &g)
{
    for (NodeId src = 0; src < g.nodeCount(); ++src) {
        for (NodeId dst = 0; dst < g.nodeCount(); ++dst) {
            const std::vector<std::vector<EdgeId>> full =
                referenceShortestPaths(g, src, dst, 512, nullptr);
            for (std::size_t bound : {1, 2, 512}) {
                const std::size_t n = std::min(bound, full.size());
                const std::vector<std::vector<EdgeId>> want(
                    full.begin(), full.begin() + n);
                // The self pair is a single empty path, never clipped.
                const bool want_trunc = src != dst && full.size() >= bound;
                bool got_trunc = false;
                if (vec(shortestPaths(g, src, dst, bound, &got_trunc)) !=
                        want ||
                    got_trunc != want_trunc) {
                    ADD_FAILURE() << src << "->" << dst << " max_paths "
                                  << bound << " differs from the oracle";
                    return;
                }
            }
        }
    }
}

/** Take down every edge touching @p node (a switch outage). */
void
downNode(Graph &g, NodeId node)
{
    for (EdgeId e = 0; e < g.edgeCount(); ++e)
        if (g.edge(e).from == node || g.edge(e).to == node)
            g.setEdgeCapacity(e, 0.0);
}

/** Take down both directions of the first NIC cable off @p leaf. */
void
downNicCableAwayFrom(Graph &g, NodeId leaf)
{
    for (EdgeId e = 0; e < g.edgeCount(); ++e) {
        const Edge &edge = g.edge(e);
        if (g.node(edge.from).kind == NodeKind::GPU &&
            g.node(edge.to).kind == NodeKind::LEAF && edge.to != leaf) {
            g.setEdgeCapacity(g.findEdge(edge.to, edge.from), 0.0);
            g.setEdgeCapacity(e, 0.0);
            return;
        }
    }
    FAIL() << "no NIC cable to take down";
}

Graph
clusterGraph(Fabric fabric, std::size_t hosts)
{
    ClusterConfig cc;
    cc.fabric = fabric;
    cc.hosts = hosts;
    return buildCluster(cc).graph;
}

struct GoldenTopology
{
    const char *name;
    Graph (*build)();
};

/**
 * Print the topology by name: gtest would otherwise dump the struct's
 * bytes, two pointers, into the listed test names, and ASLR changes
 * those from run to run.
 */
void
PrintTo(const GoldenTopology &topology, std::ostream *os)
{
    *os << topology.name;
}

/** (topology, with a leaf and a NIC cable down) */
using GoldenParam = std::tuple<GoldenTopology, bool>;

class ShortestPathsGolden : public ::testing::TestWithParam<GoldenParam>
{
};

TEST_P(ShortestPathsGolden, MatchesPerPairBfs)
{
    const auto &[topology, faulted] = GetParam();
    Graph g = topology.build();
    if (faulted) {
        // A leaf switch and a NIC cable on another leaf go down.
        const std::vector<NodeId> leaves = g.nodesOfKind(NodeKind::LEAF);
        ASSERT_FALSE(leaves.empty());
        const NodeId leaf = leaves[leaves.size() / 2];
        downNode(g, leaf);
        downNicCableAwayFrom(g, leaf);
    }
    expectAllPairsMatchReference(g);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ShortestPathsGolden,
    ::testing::Combine(
        ::testing::Values(
            GoldenTopology{"MPFT16",
                           [] { return clusterGraph(Fabric::MPFT, 16); }},
            GoldenTopology{"MPFT32",
                           [] { return clusterGraph(Fabric::MPFT, 32); }},
            GoldenTopology{"MRFT16",
                           [] { return clusterGraph(Fabric::MRFT, 16); }},
            GoldenTopology{"MRFT32",
                           [] { return clusterGraph(Fabric::MRFT, 32); }},
            GoldenTopology{"SlimFly", [] { return buildSlimFly(5, 3); }},
            GoldenTopology{"Dragonfly",
                           [] { return buildDragonfly({}); }}),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<GoldenParam> &info) {
        return std::string(std::get<0>(info.param).name) +
               (std::get<1>(info.param) ? "Faulted" : "Healthy");
    });

TEST(ShortestPaths, SlotKeyTracksSourceGraphAndTopology)
{
    // The per-thread DAG slot is keyed by (graph, fingerprint, src);
    // each access pattern below would serve a stale DAG if one part
    // of that key were missing.
    Graph g1 = clusterGraph(Fabric::MRFT, 16);
    Graph g2 = clusterGraph(Fabric::MRFT, 16);
    ASSERT_EQ(g1.fingerprint(), g2.fingerprint());
    const std::vector<NodeId> gpus = g1.nodesOfKind(NodeKind::GPU);
    const NodeId a = gpus[0], b = gpus[gpus.size() - 1];

    // Interleaved sources.
    for (NodeId dst : gpus) {
        ASSERT_TRUE(matchesReference(g1, a, dst, 512));
        ASSERT_TRUE(matchesReference(g1, b, dst, 512));
    }

    // Two structurally identical graphs, one with a leaf down, from
    // the same source.
    downNode(g2, g2.nodesOfKind(NodeKind::LEAF)[0]);
    for (NodeId dst : gpus) {
        ASSERT_TRUE(matchesReference(g1, a, dst, 512));
        ASSERT_TRUE(matchesReference(g2, a, dst, 512));
    }

    // An edge on the first route goes down and comes back up between
    // calls from the same source.
    const PathBuffer healthy = shortestPaths(g1, a, b);
    ASSERT_GT(healthy.size(), 1u);
    const EdgeId cut = healthy[0][1];
    const double cap = g1.edge(cut).capacity;
    g1.setEdgeCapacity(cut, 0.0);
    ASSERT_TRUE(matchesReference(g1, a, b, 512));
    EXPECT_LT(shortestPaths(g1, a, b).size(), healthy.size());
    g1.setEdgeCapacity(cut, cap);
    EXPECT_EQ(shortestPaths(g1, a, b), healthy);

    // A structural change between calls from the same source.
    Graph d = diamond();
    EXPECT_EQ(shortestPaths(d, 0, 3).size(), 2u);
    d.addEdge(0, 3, 1.0, 1e-6);
    ASSERT_EQ(shortestPaths(d, 0, 3).size(), 1u);
    EXPECT_TRUE(matchesReference(d, 0, 3, 512));
}

TEST(Graph, NodeAndEdgeBookkeeping)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a", 2, 3);
    NodeId b = g.addNode(NodeKind::LEAF, "b");
    EdgeId e = g.addEdge(a, b, 5.0, 1e-6);
    EXPECT_EQ(g.nodeCount(), 2u);
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.node(a).plane, 2);
    EXPECT_EQ(g.node(a).host, 3);
    EXPECT_EQ(g.edge(e).from, a);
    EXPECT_EQ(g.edge(e).to, b);
    EXPECT_EQ(g.outEdges(a).size(), 1u);
    EXPECT_TRUE(g.outEdges(b).empty());
}

TEST(Graph, DuplexAddsBothDirections)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::GPU, "b");
    g.addDuplex(a, b, 5.0, 1e-6);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_EQ(g.outEdges(a).size(), 1u);
    EXPECT_EQ(g.outEdges(b).size(), 1u);
}

TEST(Graph, NodesOfKind)
{
    Graph g = diamond();
    EXPECT_EQ(g.nodesOfKind(NodeKind::GPU).size(), 2u);
    EXPECT_EQ(g.nodesOfKind(NodeKind::LEAF).size(), 2u);
    EXPECT_TRUE(g.nodesOfKind(NodeKind::SPINE).empty());
}

TEST(ShortestPaths, FindsAllEqualCostPaths)
{
    Graph g = diamond();
    auto paths = shortestPaths(g, 0, 3);
    EXPECT_EQ(paths.size(), 2u);
    for (const auto &p : paths)
        EXPECT_EQ(p.size(), 2u);
}

TEST(ShortestPaths, PrefersShorterOverLonger)
{
    // Diamond plus a direct s->t edge: only the 1-hop path returns.
    Graph g = diamond();
    g.addEdge(0, 3, 1.0, 1e-6);
    auto paths = shortestPaths(g, 0, 3);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].size(), 1u);
}

TEST(ShortestPaths, SelfPathIsEmpty)
{
    Graph g = diamond();
    auto paths = shortestPaths(g, 1, 1);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_TRUE(paths[0].empty());
}

TEST(ShortestPaths, UnreachableReturnsEmpty)
{
    Graph g;
    g.addNode(NodeKind::GPU, "a");
    g.addNode(NodeKind::GPU, "b");
    EXPECT_TRUE(shortestPaths(g, 0, 1).empty());
}

TEST(ShortestPaths, PathsAreValidChains)
{
    Graph g = diamond();
    for (const auto &p : shortestPaths(g, 0, 3)) {
        NodeId at = 0;
        for (EdgeId e : p) {
            EXPECT_EQ(g.edge(e).from, at);
            at = g.edge(e).to;
        }
        EXPECT_EQ(at, 3u);
    }
}

TEST(ShortestPaths, MaxPathsBounds)
{
    // Wide diamond: 6 middle nodes -> 6 equal paths, capped at 4.
    Graph g;
    NodeId s = g.addNode(NodeKind::GPU, "s");
    NodeId t = g.addNode(NodeKind::GPU, "t");
    for (int i = 0; i < 6; ++i) {
        NodeId m = g.addNode(NodeKind::SPINE, "m");
        g.addEdge(s, m, 1.0, 1e-6);
        g.addEdge(m, t, 1.0, 1e-6);
    }
    EXPECT_EQ(shortestPaths(g, s, t).size(), 6u);
    EXPECT_EQ(shortestPaths(g, s, t, 4).size(), 4u);
    // The truncation flag fires exactly when the cap bites, and the
    // clipped enumeration is deterministic: same DFS prefix each time.
    bool truncated = false;
    auto a = shortestPaths(g, s, t, 4, &truncated);
    EXPECT_TRUE(truncated);
    truncated = false;
    auto b = shortestPaths(g, s, t, 4, &truncated);
    EXPECT_TRUE(truncated);
    EXPECT_EQ(a, b);
    // The flag is conservative: it fires whenever the bound is
    // reached, so proving completeness needs bound > path count.
    truncated = false;
    (void)shortestPaths(g, s, t, 7, &truncated);
    EXPECT_FALSE(truncated);
}

TEST(ShortestPathsDeathTest, RejectsZeroBound)
{
    // A zero bound cannot hold a single path. Left unchecked it
    // returned one path flagged as clipped, which the route cache
    // would then have kept as an incomplete set.
    Graph g = diamond();
    EXPECT_DEATH((void)shortestPaths(g, 0, 3, 0), "max_paths >= 1");
    EXPECT_DEATH((void)shortestPaths(g, 1, 1, 0), "max_paths >= 1");
}

TEST(Graph, CsrAdjacencyMatchesInsertionOrder)
{
    // outEdges() must list a node's edges in ascending global edge id
    // (== per-node insertion order), before and after freeze(), and
    // keep working across post-freeze additions.
    Graph g = diamond();
    EdgeSpan span = g.outEdges(0);
    ASSERT_EQ(span.size(), 2u);
    EXPECT_EQ(span[0], 0u); // s->a added first
    EXPECT_EQ(span[1], 2u); // s->b added third
    g.freeze();
    EdgeSpan frozen = g.outEdges(0);
    ASSERT_EQ(frozen.size(), 2u);
    EXPECT_EQ(frozen[0], 0u);
    EXPECT_EQ(frozen[1], 2u);

    // Adding an edge re-dirties the CSR; the new edge shows up last.
    EdgeId extra = g.addEdge(0, 2, 1.0, 1e-6);
    EdgeSpan grown = g.outEdges(0);
    ASSERT_EQ(grown.size(), 3u);
    EXPECT_EQ(grown[2], extra);
}

TEST(Graph, FingerprintFoldsDownedEdges)
{
    Graph g1 = diamond();
    Graph g2 = diamond();
    const std::uint64_t fp = g1.fingerprint();
    EXPECT_EQ(fp, g2.fingerprint());

    // Downing different edges separates fingerprints; the fold is
    // order-independent and self-inverse.
    g1.setEdgeCapacity(0, 0.0);
    g2.setEdgeCapacity(1, 0.0);
    EXPECT_NE(g1.fingerprint(), fp);
    EXPECT_NE(g1.fingerprint(), g2.fingerprint());
    g1.setEdgeCapacity(1, 0.0);
    g2.setEdgeCapacity(0, 0.0);
    EXPECT_EQ(g1.fingerprint(), g2.fingerprint());
    g1.setEdgeCapacity(0, 5.0);
    g1.setEdgeCapacity(1, 5.0);
    EXPECT_EQ(g1.fingerprint(), fp);
}

TEST(PathMetrics, LatencyAndCapacity)
{
    Graph g;
    NodeId a = g.addNode(NodeKind::GPU, "a");
    NodeId b = g.addNode(NodeKind::LEAF, "b");
    NodeId c = g.addNode(NodeKind::GPU, "c");
    EdgeId e1 = g.addEdge(a, b, 10.0, 1e-6);
    EdgeId e2 = g.addEdge(b, c, 4.0, 2e-6);
    std::vector<EdgeId> p = {e1, e2};
    EXPECT_DOUBLE_EQ(pathLatency(g, p), 3e-6);
    EXPECT_DOUBLE_EQ(pathCapacity(g, p), 4.0);
}

TEST(Graph, KindNames)
{
    EXPECT_STREQ(nodeKindName(NodeKind::GPU), "gpu");
    EXPECT_STREQ(nodeKindName(NodeKind::NVSWITCH), "nvswitch");
    EXPECT_STREQ(nodeKindName(NodeKind::LEAF), "leaf");
    EXPECT_STREQ(nodeKindName(NodeKind::SPINE), "spine");
    EXPECT_STREQ(nodeKindName(NodeKind::CORE), "core");
}

} // namespace
} // namespace dsv3::net
