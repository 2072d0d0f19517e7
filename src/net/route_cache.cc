#include "net/route_cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/rng.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::net {

namespace {

struct RouteCacheStats
{
    obs::Counter &hits =
        obs::Registry::global().counter("net.route_cache.hits");
    obs::Counter &misses =
        obs::Registry::global().counter("net.route_cache.misses");
    obs::Counter &evictions =
        obs::Registry::global().counter("net.route_cache.evictions");
};

RouteCacheStats &
cacheStats()
{
    static RouteCacheStats *stats = new RouteCacheStats();
    return *stats;
}

/** A cached entry can stand in for enumeration bounded by @p bound. */
bool
usableFor(const PathSet &ps, std::size_t bound)
{
    if (ps.complete)
        return ps.paths.size() <= bound;
    return ps.maxPaths == bound;
}

std::atomic<int> g_enabled{-1}; // -1 = read env on first use

} // namespace

const PathSet &
PathArena::append(const PathBuffer &found, bool complete,
                  std::size_t max_paths)
{
    // Canonical order: sort views of the DFS-order paths, copy them in.
    thread_local std::vector<Path> order;
    order.clear();
    for (Path p : found)
        order.push_back(p);
    std::ranges::sort(order, std::ranges::lexicographical_compare);
    auto *edges = static_cast<EdgeId *>(edges_.allocate(
        found.edges.size() * sizeof(EdgeId), alignof(EdgeId)));
    EdgeId *at = edges;
    for (Path p : order)
        at = std::copy(p.begin(), p.end(), at);
    const std::size_t n = found.size();
    auto *weights = static_cast<double *>(
        sets_.allocate(n * sizeof(double), alignof(double)));
    std::fill_n(weights, n, 1.0 / (double)n);
    return *new (sets_.allocate(sizeof(PathSet), alignof(PathSet)))
        PathSet{{edges, found.count, found.hops},
                {weights, n},
                complete,
                (std::uint32_t)max_paths};
}

const PathSet &
PathArena::fill(const Graph &graph, NodeId src, NodeId dst,
                std::size_t max_paths)
{
    thread_local PathBuffer found;
    bool truncated = false;
    shortestPaths(graph, src, dst, found, max_paths, &truncated);
    return append(found, !truncated, max_paths);
}

RouteCache &
RouteCache::global()
{
    static RouteCache *cache = new RouteCache();
    return *cache;
}

bool
RouteCache::enabled()
{
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        // Register the counters with the switch, so a run with the
        // cache off reports them as 0 instead of leaving them out.
        cacheStats();
        const char *env = std::getenv("DSV3_ROUTE_CACHE");
        state = (env && (std::strcmp(env, "0") == 0 ||
                         std::strcmp(env, "off") == 0))
                    ? 0
                    : 1;
        g_enabled.store(state, std::memory_order_relaxed);
    }
    return state != 0;
}

void
RouteCache::setEnabled(bool enabled)
{
    cacheStats();
    g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t
RouteCache::tableKey(const Graph &graph, std::uint64_t fingerprint)
{
    // Fold the counts in as a guard against structure-hash collisions
    // between graphs of different sizes.
    return hashCombine(hashCombine(fingerprint, graph.nodeCount()),
                       graph.edgeCount());
}

RouteCache::Table &
RouteCache::tableFor(std::uint64_t key)
{
    auto it = tables_.find(key);
    if (it == tables_.end()) {
        if (tables_.size() >= kMaxTables) {
            auto victim = tables_.begin();
            for (auto t = tables_.begin(); t != tables_.end(); ++t)
                if (t->second.touch < victim->second.touch)
                    victim = t;
            tables_.erase(victim);
            cacheStats().evictions.inc();
        }
        it = tables_.emplace(key, Table{}).first;
    }
    it->second.touch = ++touch_counter_;
    return it->second;
}

void
RouteCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    tables_.clear();
}

std::size_t
RouteCache::tableCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tables_.size();
}

PathSetRef
RouteCache::paths(const Graph &graph, NodeId src, NodeId dst,
                  std::size_t max_paths)
{
    const std::uint64_t key = tableKey(graph, graph.fingerprint());
    const std::uint64_t pk = pairKey(src, dst);
    RouteCacheStats &stats = cacheStats();

    // Hit: the fingerprint's table already has a usable entry.
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tables_.find(key);
        if (it != tables_.end()) {
            it->second.touch = ++touch_counter_;
            auto entry = it->second.entries.find(pk);
            if (entry != it->second.entries.end() &&
                usableFor(*entry->second, max_paths)) {
                stats.hits.inc();
                return {it->second.arena, entry->second};
            }
        }
    }

    // Miss: enumerate outside the lock into per-thread scratch, then
    // append to the table's arena under it.
    stats.misses.inc();
    DSV3_TRACE_SPAN("net.route_cache.fill", "pair", pk);
    thread_local PathBuffer found;
    bool truncated = false;
    shortestPaths(graph, src, dst, found, max_paths, &truncated);
    std::lock_guard<std::mutex> lock(mu_);
    Table &table = tableFor(key);
    // A racing fill of the same pair published identical bytes. An
    // entry with a *different* truncation bound is neither clobbered
    // nor returned: this set answers the caller's bound.
    auto entry = table.entries.find(pk);
    if (entry != table.entries.end() && usableFor(*entry->second, max_paths))
        return {table.arena, entry->second};
    const PathSet &set = table.arena->append(found, !truncated, max_paths);
    table.entries.emplace(pk, &set);
    return {table.arena, &set};
}

} // namespace dsv3::net
