/**
 * @file
 * Directed capacity graph underlying the cluster network simulator.
 *
 * Vertices are GPUs, NVSwitches, and network switches; every physical
 * full-duplex cable is represented as two directed edges with
 * independent capacities. Flow-level simulation (max-min fairness) and
 * per-hop latency accumulation both operate on this graph.
 *
 * Adjacency is stored in CSR (compressed sparse row) form: one flat
 * edge-id array ordered by source node plus an offsets table, rebuilt
 * lazily after structural mutation. Per-node insertion order equals
 * ascending global edge id (addEdge appends monotonically), so a
 * counting sort by `from` reproduces the exact traversal order the old
 * per-node vectors had -- BFS and path enumeration stay byte-identical
 * while the hot loops walk contiguous memory.
 *
 * Each graph also exposes a topology fingerprint for route caching
 * (see net/route_cache.hh): a structural hash over nodes and edge
 * endpoints XOR-ed with a self-inverse fold of the currently-downed
 * edge set. Capacities and latencies are deliberately excluded --
 * shortest-path enumeration only cares about which edges exist and
 * which are down, so degrading a link's bandwidth does not move the
 * fingerprint, and repairing a downed link returns the fingerprint to
 * its previous value exactly.
 *
 * Paths are views, never owned vectors: a Path is a std::span of edge
 * ids, and a PathList is equal-length paths back to back in one flat
 * run, which is all a shortest-path set needs. shortestPaths() fills
 * a reusable PathBuffer; the route cache's arenas hold the lists that
 * flows and the flow engine view.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsv3::net {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

constexpr NodeId kInvalidNode = 0xffffffffu;
constexpr EdgeId kInvalidEdge = 0xffffffffu;

enum class NodeKind : std::uint8_t
{
    GPU,      //!< endpoint (GPU with its NIC)
    NVSWITCH, //!< intra-node scale-up switch
    LEAF,     //!< first-layer network switch
    SPINE,    //!< second-layer network switch
    CORE,     //!< third-layer network switch (FT3)
};

const char *nodeKindName(NodeKind kind);

struct Node
{
    NodeKind kind;
    std::string label;
    std::int32_t plane = -1; //!< network plane/rail id; -1 = n/a
    std::int32_t host = -1;  //!< server index for GPUs/NVSwitches
};

struct Edge
{
    NodeId from;
    NodeId to;
    double capacity;  //!< bytes/s
    double latency;   //!< propagation+forwarding seconds for this hop
};

/** A run of edge ids viewed in place, such as one node's CSR row. */
using EdgeSpan = std::span<const EdgeId>;

/** A path: its edge ids from src to dst, viewed in place. */
using Path = EdgeSpan;

class Graph
{
  public:
    NodeId addNode(NodeKind kind, std::string label,
                   std::int32_t plane = -1, std::int32_t host = -1);

    /** Add one directed edge. */
    EdgeId addEdge(NodeId from, NodeId to, double capacity,
                   double latency);

    /** Add both directions of a full-duplex cable. */
    void addDuplex(NodeId a, NodeId b, double capacity, double latency);

    /**
     * Overwrite an edge's capacity (fault injection). Zero means the
     * edge is down: path enumeration skips it and max-min sharing
     * gives its subflows no rate. Restoring the original value heals
     * the edge byte-identically (including the fingerprint, whose
     * downed-edge fold is self-inverse).
     */
    void setEdgeCapacity(EdgeId id, double capacity);

    /** First edge from -> to, or kInvalidEdge when none exists. */
    EdgeId findEdge(NodeId from, NodeId to) const;

    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t edgeCount() const { return edges_.size(); }

    const Node &node(NodeId id) const { return nodes_[id]; }
    const Edge &edge(EdgeId id) const { return edges_[id]; }

    /** Outgoing edge ids of @p node, ascending (CSR row view). */
    EdgeSpan outEdges(NodeId node) const
    {
        if (csr_dirty_)
            freeze();
        return {csr_edges_.data() + csr_offsets_[node],
                csr_offsets_[node + 1] - csr_offsets_[node]};
    }

    /**
     * Materialize the CSR arrays and the structural hash now. Lazy
     * materialization mutates the (mutable) cache fields, so call this
     * after building a graph that will be traversed from multiple
     * threads. Idempotent and cheap when already clean.
     */
    void freeze() const;

    /**
     * Hash of the graph's structure: node count/kinds/planes/hosts and
     * edge endpoints. Excludes capacities, latencies, and labels.
     */
    std::uint64_t structureHash() const;

    /**
     * Content-addressed topology key for route caching: the structure
     * hash XOR-ed with a fold of every currently-downed edge id. Two
     * graphs with the same structure and the same downed edge set
     * share a fingerprint; repairing all faults restores the healthy
     * fingerprint exactly.
     */
    std::uint64_t fingerprint() const
    {
        return structureHash() ^ down_fold_;
    }

    /** All node ids of a given kind. */
    std::vector<NodeId> nodesOfKind(NodeKind kind) const;

  private:
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;

    // CSR adjacency, rebuilt lazily after addNode/addEdge.
    mutable std::vector<std::uint32_t> csr_offsets_; //!< nodes+1
    mutable std::vector<EdgeId> csr_edges_;          //!< by from, asc
    mutable bool csr_dirty_ = true;

    mutable std::uint64_t structure_hash_ = 0;
    mutable bool structure_hash_dirty_ = true;

    /** XOR fold of hashU64(edge id) over downed edges (self-inverse). */
    std::uint64_t down_fold_ = 0;
};

/**
 * Equal-length paths stored back to back: path p is
 * first[p * hops, (p + 1) * hops). Every path of one shortest-path
 * set has the same hop count, so a set needs no per-path offsets. A
 * view: whoever hands one out keeps its edges alive.
 */
struct PathList
{
    struct Iterator
    {
        const EdgeId *first;
        std::size_t hops;
        std::size_t index;

        Path operator*() const { return {first + index * hops, hops}; }
        Iterator &operator++() { ++index; return *this; }
        bool operator==(const Iterator &o) const { return index == o.index; }
    };

    const EdgeId *first = nullptr;
    std::uint32_t count = 0;
    std::uint32_t hops = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    Path operator[](std::size_t p) const { return {first + p * hops, hops}; }
    Path edges() const { return {first, (std::size_t)count * hops}; }
    Iterator begin() const { return {first, hops, 0}; }
    Iterator end() const { return {first, hops, count}; }
};

/** shortestPaths()' result: a PathList over storage it owns. */
struct PathBuffer
{
    std::vector<EdgeId> edges;
    std::uint32_t count = 0;
    std::uint32_t hops = 0;

    PathList list() const { return {edges.data(), count, hops}; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    Path operator[](std::size_t p) const { return list()[p]; }
    PathList::Iterator begin() const { return list().begin(); }
    PathList::Iterator end() const { return list().end(); }
    bool operator==(const PathBuffer &) const = default;
};

/** Sum of per-hop latencies along a path. */
double pathLatency(const Graph &graph, Path path);

/** Minimum capacity along a path. */
double pathCapacity(const Graph &graph, Path path);

/**
 * Enumerate all shortest paths (by hop count) from @p src to @p dst
 * into @p out, in DFS order, reusing its storage. Edges with zero
 * capacity (faulted, see Graph::setEdgeCapacity) are treated as
 * absent, so the result is the shortest *surviving* route set; an
 * empty result means src and dst are partitioned, and src == dst
 * yields one empty path.
 * @p max_paths (at least 1) bounds the expansion for safety; hitting
 * the bound warns once, bumps `net.graph.paths_truncated`, and sets
 * @p truncated (when non-null) so callers/caches can tell a complete
 * enumeration from a clipped one. Truncation is deterministic: the
 * DAG expansion order is fixed, so the same graph yields the same
 * clipped set every time.
 *
 * One BFS from @p src builds the whole shortest-path DAG (hop
 * distances plus each node's on-path parent edges); each destination
 * is then a DFS over it. The last DAG is kept in one per-thread slot
 * keyed by (&graph, fingerprint(), src), so consecutive calls from the
 * same source on an unchanged topology share one BFS. The key covers
 * everything BFS reads: up/down flips move the fingerprint and
 * capacity-only changes do not matter to it.
 */
void shortestPaths(const Graph &graph, NodeId src, NodeId dst,
                   PathBuffer &out, std::size_t max_paths,
                   bool *truncated);

/** The same enumeration into a fresh buffer. */
inline PathBuffer
shortestPaths(const Graph &graph, NodeId src, NodeId dst,
              std::size_t max_paths = 512, bool *truncated = nullptr)
{
    PathBuffer out;
    shortestPaths(graph, src, dst, out, max_paths, truncated);
    return out;
}

} // namespace dsv3::net
