#include "net/cluster.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "net/route_cache.hh"

namespace dsv3::net {

const char *
fabricName(Fabric fabric)
{
    switch (fabric) {
      case Fabric::MRFT:
        return "MRFT";
      case Fabric::MPFT:
        return "MPFT";
    }
    return "?";
}

Cluster
buildCluster(const ClusterConfig &config)
{
    DSV3_ASSERT(config.planes == config.gpusPerHost,
                "one NIC per GPU: planes must equal gpusPerHost");
    DSV3_ASSERT(config.hosts >= 1);
    DSV3_ASSERT(config.switchRadix >= 2);

    Cluster cluster;
    cluster.config = config;
    Graph &g = cluster.graph;

    // Hosts: GPUs + NVSwitch crossbar.
    for (std::size_t h = 0; h < config.hosts; ++h) {
        NodeId nvsw = g.addNode(NodeKind::NVSWITCH,
                                "nvsw" + std::to_string(h), -1,
                                (std::int32_t)h);
        cluster.nvswitches.push_back(nvsw);
        for (std::size_t i = 0; i < config.gpusPerHost; ++i) {
            NodeId gpu = g.addNode(
                NodeKind::GPU,
                "gpu" + std::to_string(h) + "." + std::to_string(i),
                (std::int32_t)i, (std::int32_t)h);
            cluster.gpus.push_back(gpu);
            // Switch latency is folded into switch-ingress edges.
            g.addEdge(gpu, nvsw, config.nvlink.bandwidth,
                      config.nvlink.wireLatency +
                          config.nvswitchLatency);
            g.addEdge(nvsw, gpu, config.nvlink.bandwidth,
                      config.nvlink.wireLatency);
        }
    }

    // Scale-out network: leaves per plane, spines per fabric style.
    const std::size_t down_ports = config.switchRadix / 2;
    const std::size_t leaves_per_plane =
        (config.hosts + down_ports - 1) / down_ports;
    const std::size_t spine_count =
        std::min(config.hosts, down_ports);

    std::vector<std::vector<NodeId>> leaf(config.planes);
    for (std::size_t p = 0; p < config.planes; ++p) {
        for (std::size_t l = 0; l < leaves_per_plane; ++l) {
            leaf[p].push_back(g.addNode(
                NodeKind::LEAF,
                "leaf" + std::to_string(p) + "." + std::to_string(l),
                (std::int32_t)p));
        }
    }

    // NIC links: GPU i of host h connects to its plane's leaf.
    for (std::size_t h = 0; h < config.hosts; ++h) {
        std::size_t l = h / down_ports;
        for (std::size_t p = 0; p < config.planes; ++p) {
            NodeId gpu = cluster.gpu(h, p);
            g.addEdge(gpu, leaf[p][l], config.nic.bandwidth,
                      config.nic.wireLatency + config.switchLatency);
            g.addEdge(leaf[p][l], gpu, config.nic.bandwidth,
                      config.nic.wireLatency);
        }
    }

    // Spine layer. MRFT: one shared spine set reachable from every
    // plane's leaves. MPFT: an isolated spine set per plane.
    auto add_spines = [&](const std::vector<NodeId> &leaves,
                          std::int32_t plane, std::size_t count,
                          const std::string &prefix) {
        std::vector<NodeId> spines;
        for (std::size_t s = 0; s < count; ++s) {
            spines.push_back(g.addNode(NodeKind::SPINE,
                                       prefix + std::to_string(s),
                                       plane));
        }
        for (NodeId lf : leaves) {
            for (NodeId sp : spines) {
                g.addEdge(lf, sp, config.leafSpine.bandwidth,
                          config.leafSpine.wireLatency +
                              config.switchLatency);
                g.addEdge(sp, lf, config.leafSpine.bandwidth,
                          config.leafSpine.wireLatency +
                              config.switchLatency);
            }
        }
    };

    // A single leaf per plane needs no spine layer (MPFT), but MRFT
    // still needs spines for cross-rail reachability.
    if (config.fabric == Fabric::MRFT) {
        std::vector<NodeId> all_leaves;
        for (auto &v : leaf)
            all_leaves.insert(all_leaves.end(), v.begin(), v.end());
        add_spines(all_leaves, -1, spine_count, "spine");
    } else {
        if (leaves_per_plane > 1) {
            for (std::size_t p = 0; p < config.planes; ++p) {
                add_spines(leaf[p], (std::int32_t)p, spine_count,
                           "spine" + std::to_string(p) + ".");
            }
        }
    }
    // Materialize the CSR adjacency and structure hash while the
    // graph is still single-threaded; sweeps may traverse it from the
    // pool right away.
    g.freeze();
    return cluster;
}

Cluster
buildSingleRail(std::size_t hosts, std::size_t hosts_per_leaf,
                std::size_t spines, const LinkSpec &nic,
                const LinkSpec &leaf_spine, double switch_latency,
                double host_overhead)
{
    DSV3_ASSERT(hosts >= 1 && hosts_per_leaf >= 1 && spines >= 1);
    Cluster cluster;
    cluster.config.fabric = Fabric::MRFT;
    cluster.config.hosts = hosts;
    cluster.config.gpusPerHost = 1;
    cluster.config.planes = 1;
    cluster.config.nic = nic;
    cluster.config.leafSpine = leaf_spine;
    cluster.config.switchLatency = switch_latency;
    cluster.config.hostOverhead = host_overhead;

    Graph &g = cluster.graph;
    const std::size_t num_leaves =
        (hosts + hosts_per_leaf - 1) / hosts_per_leaf;

    std::vector<NodeId> leaves;
    for (std::size_t l = 0; l < num_leaves; ++l)
        leaves.push_back(g.addNode(NodeKind::LEAF,
                                   "leaf" + std::to_string(l), 0));
    std::vector<NodeId> spine_ids;
    if (num_leaves > 1) {
        for (std::size_t s = 0; s < spines; ++s)
            spine_ids.push_back(g.addNode(NodeKind::SPINE,
                                          "spine" + std::to_string(s),
                                          0));
        for (NodeId lf : leaves) {
            for (NodeId sp : spine_ids) {
                g.addEdge(lf, sp, leaf_spine.bandwidth,
                          leaf_spine.wireLatency + switch_latency);
                g.addEdge(sp, lf, leaf_spine.bandwidth,
                          leaf_spine.wireLatency + switch_latency);
            }
        }
    }
    for (std::size_t h = 0; h < hosts; ++h) {
        NodeId gpu = g.addNode(NodeKind::GPU,
                               "host" + std::to_string(h), 0,
                               (std::int32_t)h);
        cluster.gpus.push_back(gpu);
        NodeId lf = leaves[h / hosts_per_leaf];
        g.addEdge(gpu, lf, nic.bandwidth,
                  nic.wireLatency + switch_latency);
        g.addEdge(lf, gpu, nic.bandwidth, nic.wireLatency);
    }
    g.freeze();
    return cluster;
}

void
Cluster::ensureFaultState()
{
    if (faultStateActive())
        return;
    const std::size_t edges = graph.edgeCount();
    baseCapacity.resize(edges);
    for (EdgeId e = 0; e < edges; ++e)
        baseCapacity[e] = graph.edge(e).capacity;
    linkFactor.assign(edges, 1.0);
    linkDownRef.assign(edges, 0);
    nodeDownRef.assign(graph.nodeCount(), 0);
}

void
Cluster::refreshEdge(EdgeId e)
{
    const Edge &edge = graph.edge(e);
    double cap = 0.0;
    if (linkDownRef[e] == 0 && nodeDownRef[edge.from] == 0 &&
        nodeDownRef[edge.to] == 0) {
        cap = baseCapacity[e] * linkFactor[e];
    }
    graph.setEdgeCapacity(e, cap);
}

void
Cluster::setLinkUp(NodeId a, NodeId b, bool up)
{
    ensureFaultState();
    for (EdgeId e : {graph.findEdge(a, b), graph.findEdge(b, a)}) {
        DSV3_ASSERT(e != kInvalidEdge, "no cable between nodes ", a,
                    " and ", b);
        if (up) {
            DSV3_ASSERT(linkDownRef[e] > 0,
                        "repairing a link that is not down");
            --linkDownRef[e];
        } else {
            ++linkDownRef[e];
        }
        refreshEdge(e);
    }
}

void
Cluster::degradeLink(NodeId a, NodeId b, double factor)
{
    DSV3_ASSERT(factor >= 0.0 && factor <= 1.0,
                "degrade factor must be in [0, 1], got ", factor);
    ensureFaultState();
    for (EdgeId e : {graph.findEdge(a, b), graph.findEdge(b, a)}) {
        DSV3_ASSERT(e != kInvalidEdge, "no cable between nodes ", a,
                    " and ", b);
        linkFactor[e] = factor;
        refreshEdge(e);
    }
}

void
Cluster::setNodeUp(NodeId node, bool up)
{
    ensureFaultState();
    DSV3_ASSERT(node < graph.nodeCount());
    if (up) {
        DSV3_ASSERT(nodeDownRef[node] > 0,
                    "repairing a node that is not down");
        --nodeDownRef[node];
    } else {
        ++nodeDownRef[node];
    }
    // Refresh every edge touching the node (out-edges directly, the
    // reverse directions via a full scan: node outages are rare events
    // so the O(edges) sweep is not worth an extra index).
    for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
        const Edge &edge = graph.edge(e);
        if (edge.from == node || edge.to == node)
            refreshEdge(e);
    }
}

void
Cluster::setPlaneUp(std::int32_t plane, bool up)
{
    bool any = false;
    for (NodeId n = 0; n < graph.nodeCount(); ++n) {
        const Node &node = graph.node(n);
        if (node.plane != plane)
            continue;
        if (node.kind != NodeKind::LEAF &&
            node.kind != NodeKind::SPINE && node.kind != NodeKind::CORE)
            continue;
        setNodeUp(n, up);
        any = true;
    }
    DSV3_ASSERT(any, "plane ", plane, " has no switches");
}

bool
Cluster::nodeUp(NodeId node) const
{
    if (!faultStateActive())
        return true;
    DSV3_ASSERT(node < nodeDownRef.size());
    return nodeDownRef[node] == 0;
}

std::size_t
Cluster::edgesDown() const
{
    if (!faultStateActive())
        return 0;
    std::size_t down = 0;
    for (EdgeId e = 0; e < graph.edgeCount(); ++e)
        if (graph.edge(e).capacity <= 0.0)
            ++down;
    return down;
}

double
endToEndLatency(const Cluster &cluster, std::size_t src_rank,
                std::size_t dst_rank, double bytes)
{
    DSV3_ASSERT(src_rank < cluster.gpus.size());
    DSV3_ASSERT(dst_rank < cluster.gpus.size());
    if (src_rank == dst_rank)
        return 0.0;
    // Candidate routes through the process cache, or filled into a
    // call-local arena when the cache is off.
    const NodeId src = cluster.gpus[src_rank];
    const NodeId dst = cluster.gpus[dst_rank];
    PathArena local;
    const PathSetRef cached =
        RouteCache::enabled()
            ? RouteCache::global().paths(cluster.graph, src, dst)
            : nullptr;
    const PathSet &routes =
        cached ? *cached : local.fill(cluster.graph, src, dst);
    DSV3_ASSERT(!routes.paths.empty(), "no route between ranks ",
                src_rank, " and ", dst_rank);
    double best = std::numeric_limits<double>::infinity();
    for (Path p : routes.paths) {
        double lat = pathLatency(cluster.graph, p) +
                     bytes / pathCapacity(cluster.graph, p);
        best = std::min(best, lat);
    }
    return cluster.config.hostOverhead + best;
}

} // namespace dsv3::net
