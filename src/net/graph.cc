#include "net/graph.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/registry.hh"

namespace dsv3::net {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::GPU:
        return "gpu";
      case NodeKind::NVSWITCH:
        return "nvswitch";
      case NodeKind::LEAF:
        return "leaf";
      case NodeKind::SPINE:
        return "spine";
      case NodeKind::CORE:
        return "core";
    }
    return "?";
}

NodeId
Graph::addNode(NodeKind kind, std::string label, std::int32_t plane,
               std::int32_t host)
{
    nodes_.push_back({kind, std::move(label), plane, host});
    csr_dirty_ = true;
    structure_hash_dirty_ = true;
    return (NodeId)(nodes_.size() - 1);
}

EdgeId
Graph::addEdge(NodeId from, NodeId to, double capacity, double latency)
{
    DSV3_ASSERT(from < nodes_.size() && to < nodes_.size());
    DSV3_ASSERT(capacity > 0.0);
    edges_.push_back({from, to, capacity, latency});
    csr_dirty_ = true;
    structure_hash_dirty_ = true;
    return (EdgeId)(edges_.size() - 1);
}

void
Graph::addDuplex(NodeId a, NodeId b, double capacity, double latency)
{
    addEdge(a, b, capacity, latency);
    addEdge(b, a, capacity, latency);
}

void
Graph::setEdgeCapacity(EdgeId id, double capacity)
{
    DSV3_ASSERT(id < edges_.size());
    DSV3_ASSERT(capacity >= 0.0);
    const bool was_down = edges_[id].capacity <= 0.0;
    const bool now_down = capacity <= 0.0;
    edges_[id].capacity = capacity;
    if (was_down != now_down)
        down_fold_ ^= hashU64(id); // capacity-only changes keep the key
}

void
Graph::freeze() const
{
    if (csr_dirty_) {
        // Counting sort of edge ids by source node. Within a node the
        // old per-node push_back order was ascending edge id (addEdge
        // appends monotonically), which is exactly what placing ids in
        // ascending order into per-from buckets reproduces.
        csr_offsets_.assign(nodes_.size() + 1, 0);
        for (const Edge &e : edges_)
            ++csr_offsets_[e.from + 1];
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            csr_offsets_[n + 1] += csr_offsets_[n];
        csr_edges_.resize(edges_.size());
        std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                          csr_offsets_.end() - 1);
        for (EdgeId id = 0; id < edges_.size(); ++id)
            csr_edges_[cursor[edges_[id].from]++] = id;
        csr_dirty_ = false;
    }
    structureHash();
}

std::uint64_t
Graph::structureHash() const
{
    if (structure_hash_dirty_) {
        std::uint64_t h = hashCombine(0x6473763376313030ull, // "dsv3v100"
                                      nodes_.size());
        h = hashCombine(h, edges_.size());
        for (const Node &n : nodes_) {
            h = hashCombine(h, (std::uint64_t)n.kind);
            h = hashCombine(h, (std::uint64_t)(std::int64_t)n.plane);
            h = hashCombine(h, (std::uint64_t)(std::int64_t)n.host);
        }
        for (const Edge &e : edges_)
            h = hashCombine(h, ((std::uint64_t)e.from << 32) | e.to);
        structure_hash_ = h;
        structure_hash_dirty_ = false;
    }
    return structure_hash_;
}

EdgeId
Graph::findEdge(NodeId from, NodeId to) const
{
    DSV3_ASSERT(from < nodes_.size() && to < nodes_.size());
    for (EdgeId e : outEdges(from))
        if (edges_[e].to == to)
            return e;
    return kInvalidEdge;
}

std::vector<NodeId>
Graph::nodesOfKind(NodeKind kind) const
{
    std::vector<NodeId> out;
    for (NodeId id = 0; id < nodes_.size(); ++id)
        if (nodes_[id].kind == kind)
            out.push_back(id);
    return out;
}

double
pathLatency(const Graph &graph, Path path)
{
    double total = 0.0;
    for (EdgeId e : path)
        total += graph.edge(e).latency;
    return total;
}

double
pathCapacity(const Graph &graph, Path path)
{
    double cap = std::numeric_limits<double>::infinity();
    for (EdgeId e : path)
        cap = std::min(cap, graph.edge(e).capacity);
    return cap;
}

namespace {

constexpr std::uint32_t kUnreached = 0xffffffffu;

/**
 * Shortest-path DAG rooted at one source: BFS hop distances plus, per
 * node, the incoming edges that lie on some shortest path, as one
 * flat CSR. Parents are listed in BFS queue order, then CSR edge
 * order -- the order a per-pair BFS appends them in.
 */
struct SourceDag
{
    const Graph *graph = nullptr;
    std::uint64_t fingerprint = 0;
    NodeId src = kInvalidNode;
    std::vector<std::uint32_t> dist;
    std::vector<NodeId> order;          //!< BFS queue order
    std::vector<std::uint32_t> offsets; //!< nodes+1, into parents
    std::vector<std::uint32_t> cursor;  //!< fill scratch
    std::vector<EdgeId> parents;

    EdgeSpan parentsOf(NodeId v) const
    {
        return {parents.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }
};

/**
 * The DAG from @p src, rebuilt only when the slot's key moves. BFS
 * reads the structure and which edges are down, both folded into the
 * fingerprint, so (graph, fingerprint, src) keys it exactly; traffic
 * grouped by source pays one BFS per source.
 */
const SourceDag &
sourceDag(const Graph &graph, NodeId src)
{
    thread_local SourceDag dag;
    const std::uint64_t fp = graph.fingerprint();
    if (dag.graph == &graph && dag.fingerprint == fp && dag.src == src)
        return dag;
    dag.graph = &graph;
    dag.fingerprint = fp;
    dag.src = src;

    // BFS over up edges, counting each node's DAG parents.
    const std::size_t n = graph.nodeCount();
    dag.dist.assign(n, kUnreached);
    dag.offsets.assign(n + 1, 0);
    dag.order.clear();
    dag.dist[src] = 0;
    dag.order.push_back(src);
    for (std::size_t head = 0; head < dag.order.size(); ++head) {
        const NodeId u = dag.order[head];
        for (EdgeId e : graph.outEdges(u)) {
            const Edge &edge = graph.edge(e);
            if (edge.capacity <= 0.0)
                continue; // faulted edge
            if (dag.dist[edge.to] == kUnreached) {
                dag.dist[edge.to] = dag.dist[u] + 1;
                dag.order.push_back(edge.to);
            }
            if (dag.dist[edge.to] == dag.dist[u] + 1)
                ++dag.offsets[edge.to + 1];
        }
    }
    for (std::size_t v = 0; v < n; ++v)
        dag.offsets[v + 1] += dag.offsets[v];

    // Fill pass in the same queue and edge order.
    dag.parents.resize(dag.offsets[n]);
    dag.cursor.assign(dag.offsets.begin(), dag.offsets.end() - 1);
    for (NodeId u : dag.order)
        for (EdgeId e : graph.outEdges(u)) {
            const Edge &edge = graph.edge(e);
            if (edge.capacity > 0.0 && dag.dist[edge.to] == dag.dist[u] + 1)
                dag.parents[dag.cursor[edge.to]++] = e;
        }
    return dag;
}

} // namespace

void
shortestPaths(const Graph &graph, NodeId src, NodeId dst, PathBuffer &out,
              std::size_t max_paths, bool *truncated)
{
    DSV3_ASSERT(src < graph.nodeCount() && dst < graph.nodeCount());
    DSV3_ASSERT(max_paths > 0, "shortestPaths needs max_paths >= 1");
    if (truncated)
        *truncated = false;
    out.edges.clear();
    out.count = src == dst ? 1 : 0; // the self pair: one empty path
    out.hops = 0;
    if (src == dst)
        return;

    const SourceDag &dag = sourceDag(graph, src);
    if (dag.dist[dst] == kUnreached)
        return;

    // Expand the DAG from dst backwards (DFS), bounded by max_paths.
    // Every path has dist[dst] hops, so the edge taken at DFS depth d
    // is hop (hops - 1 - d) of the path being built.
    const std::uint32_t hops = dag.dist[dst];
    out.hops = hops;
    struct Frame { NodeId node; std::size_t idx; };
    thread_local std::vector<Frame> stack;
    thread_local std::vector<EdgeId> current;
    stack.assign(1, {dst, 0});
    current.resize(hops);
    while (!stack.empty()) {
        Frame &top = stack.back();
        if (top.node == src) {
            out.edges.insert(out.edges.end(), current.begin(),
                             current.end());
            if (++out.count >= max_paths) {
                static obs::Counter &c_truncated =
                    obs::Registry::global().counter(
                        "net.graph.paths_truncated");
                c_truncated.inc();
                DSV3_WARN_ONCE(
                    "shortestPaths hit the max_paths bound (",
                    max_paths, " paths, ", src, "->", dst,
                    "); the route set is clipped deterministically "
                    "(see net.graph.paths_truncated)");
                if (truncated)
                    *truncated = true;
                break;
            }
            stack.pop_back();
            continue;
        }
        const EdgeSpan parents = dag.parentsOf(top.node);
        if (top.idx >= parents.size()) {
            stack.pop_back();
            continue;
        }
        const EdgeId e = parents[top.idx++];
        current[hops - stack.size()] = e;
        stack.push_back({graph.edge(e).from, 0});
    }
}

} // namespace dsv3::net
