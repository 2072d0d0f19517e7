/**
 * @file
 * Process-level cache of canonicalized shortest-path sets, keyed by
 * topology fingerprint (see Graph::fingerprint()), with one
 * append-only PathArena per fingerprint's table.
 *
 * Every headline sweep (Fig 5 all-to-all, Fig 8 RoCE routing, the
 * Sec 6.1 fault sweep) rebuilds structurally identical clusters and
 * re-enumerates the same (src, dst) shortest-path sets hundreds of
 * times. The cache persists those sets across assignPaths() /
 * failoverReroute() calls, across engine rebuilds, and across whole
 * bench iterations: path sets are content-addressed by what the
 * enumeration actually depends on (graph structure + the downed edge
 * set), so two different Cluster objects with the same shape share
 * entries, and results are byte-identical to uncached enumeration by
 * construction.
 *
 * A topology change needs no invalidation. Taking an edge down moves
 * the fingerprint, so later lookups land in a new table and miss into
 * shortestPaths(), which serves a whole source's misses from one
 * shortest-path DAG. Repairs return the fingerprint to an
 * already-cached value, because the downed-edge fold is self-inverse.
 * Degrading a link to a non-zero capacity does not move the
 * fingerprint at all -- capacity is not part of shortest-path keying.
 *
 * Caching a *truncated* enumeration (max_paths hit) records the bound
 * it was clipped at; such an entry only serves requests with the same
 * bound, because uncached truncation happens in DFS order before the
 * canonical sort and cannot be emulated from a differently-bounded
 * set. Complete entries serve any request whose bound admits them.
 *
 * A miss enumerates into per-thread scratch outside the cache lock,
 * then appends the sorted set to its table's arena under the lock: a
 * few appends instead of a heap vector per path. A PathSet is a
 * record of views into the arena, and a PathSetRef pins the whole
 * arena, so clear(), an LRU eviction or a topology change frees a
 * table's few blocks once the last flow, engine or caller viewing any
 * of its sets lets go. Sets are immutable once published, which is
 * what makes sharing them across flows, calls and threads safe.
 *
 * Counters: net.route_cache.{hits,misses,evictions}. The fill path
 * carries a trace span. Disable with DSV3_ROUTE_CACHE=0 (or
 * setEnabled(false)); the callers then fill one call-local arena with
 * the same sets, whose misses share the same per-source DAG.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/graph.hh"

namespace dsv3::net {

/** One (src, dst) shortest-path set, sorted, viewing its PathArena. */
struct PathSet
{
    PathList paths;
    /** 1/paths.size() per path: ADAPTIVE's even split, viewed by flows. */
    std::span<const double> weights;
    /** Enumeration finished without hitting max_paths. */
    bool complete = true;
    /** The bound the set was clipped at (meaningful when !complete). */
    std::uint32_t maxPaths = 0;
};

/**
 * Append-only, chunked storage for path sets: records, edges and
 * weights. Nothing it hands out ever moves, and it is all freed at
 * once. Chunks start small and grow geometrically, so small tables
 * stay small. Edges fill chunks of their own, so sets filled in flow
 * order lie back to back for the solver. Appends are not
 * synchronized; the route cache makes them under its lock.
 */
class PathArena
{
  public:
    /**
     * Enumerate (src, dst)'s shortest paths on @p graph, bounded by
     * @p max_paths, into per-thread scratch and append() them. The
     * route cache runs the two steps apart, outside and inside its
     * lock.
     */
    const PathSet &fill(const Graph &graph, NodeId src, NodeId dst,
                        std::size_t max_paths = 512);

    /**
     * Append @p found, shortestPaths()' answer under @p max_paths, as
     * one canonical set; @p complete is false when it was clipped.
     */
    const PathSet &append(const PathBuffer &found, bool complete,
                          std::size_t max_paths);

  private:
    std::pmr::monotonic_buffer_resource edges_;
    std::pmr::monotonic_buffer_resource sets_; //!< records and weights
};

/** A set, as an aliasing pointer that pins its whole arena. */
using PathSetRef = std::shared_ptr<const PathSet>;

class RouteCache
{
  public:
    /** Process-wide cache, created on first use. */
    static RouteCache &global();

    /** Cache switch; defaults on, DSV3_ROUTE_CACHE=0 disables. */
    static bool enabled();
    static void setEnabled(bool enabled);

    /**
     * The canonical shortest-path set for (src, dst) on @p graph,
     * served from cache or enumerated fresh. Byte-identical to
     * PathArena::fill() with the same bound. The returned set is
     * immutable and safe to hold across later topology mutation.
     */
    PathSetRef paths(const Graph &graph, NodeId src, NodeId dst,
                     std::size_t max_paths = 512);

    /** Drop every table (cold-cache runs, tests). */
    void clear();

    /** Number of per-fingerprint tables currently cached. */
    std::size_t tableCount() const;

  private:
    struct Table
    {
        std::unordered_map<std::uint64_t, const PathSet *> entries;
        std::shared_ptr<PathArena> arena = std::make_shared<PathArena>();
        std::uint64_t touch = 0; //!< LRU stamp
    };

    static std::uint64_t tableKey(const Graph &graph,
                                  std::uint64_t fingerprint);
    static std::uint64_t pairKey(NodeId src, NodeId dst)
    {
        return ((std::uint64_t)src << 32) | dst;
    }

    Table &tableFor(std::uint64_t key); //!< get-or-create + LRU evict

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Table> tables_;
    std::uint64_t touch_counter_ = 0;

    static constexpr std::size_t kMaxTables = 64;
};

} // namespace dsv3::net
