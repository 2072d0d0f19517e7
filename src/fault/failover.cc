#include "fault/failover.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "net/route_cache.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::fault {

bool
flowBroken(const net::Graph &graph, const net::Flow &flow)
{
    for (const net::Path &p : flow.paths)
        for (net::EdgeId e : p)
            if (graph.edge(e).capacity <= 0.0)
                return true;
    return false;
}

FailoverResult
failoverReroute(const net::Cluster &cluster,
                std::vector<net::Flow> &flows,
                net::FlowSimEngine &engine, net::RoutePolicy policy,
                std::uint64_t seed)
{
    DSV3_TRACE_SPAN("fault.failover", "flows", flows.size());
    static obs::Counter &c_rerouted =
        obs::Registry::global().counter("fault.failover.rerouted");
    static obs::Counter &c_stalled =
        obs::Registry::global().counter("fault.failover.stalled");

    const net::Graph &graph = cluster.graph;
    FailoverResult res;

    // The engine's edge->subflow index finds the broken set by
    // walking only the downed edges; the result is the same ascending
    // flow list a per-flow flowBroken() sweep would produce, at a
    // fraction of the cost when faults are sparse.
    std::vector<std::size_t> broken;
    engine.collectBrokenFlows(broken);
    res.checked = engine.activeFlows();
    if (broken.empty())
        return res;

    // Release the engine's subflows before rewriting flows[i].paths
    // (the rebinding protocol: detach, mutate, attach).
    for (std::size_t i : broken)
        engine.detachFlow(i);

    // Surviving route sets come from the process RouteCache, keyed by
    // the degraded fingerprint; with the cache off, a call-local
    // flat-hash store reproduces the same sets. The broken list is
    // ascending, so misses arrive grouped by source and share one
    // shortest-path DAG each.
    const bool use_cache = net::RouteCache::enabled();
    std::unordered_map<std::uint64_t, std::vector<net::Path>> local;
    for (std::size_t i : broken) {
        net::Flow &flow = flows[i];
        net::PathSetRef cached;
        const std::vector<net::Path> *pair_paths;
        if (use_cache) {
            cached = net::RouteCache::global().paths(graph, flow.src,
                                                     flow.dst);
            pair_paths = &cached->paths;
        } else {
            std::uint64_t key =
                ((std::uint64_t)flow.src << 32) | flow.dst;
            auto it = local.find(key);
            if (it == local.end()) {
                auto found =
                    net::shortestPaths(graph, flow.src, flow.dst);
                std::sort(found.begin(), found.end());
                it = local.emplace(key, std::move(found)).first;
            }
            pair_paths = &it->second;
        }
        const std::vector<net::Path> &paths = *pair_paths;

        flow.paths.clear();
        flow.weights.clear();
        if (paths.empty()) {
            // Partitioned: no route survives the faults. Retire it so
            // the completion loop doesn't deadlock on a rate-0 flow.
            engine.removeFlow(i);
            res.stalled.push_back(i);
            c_stalled.inc();
            continue;
        }

        switch (policy) {
          case net::RoutePolicy::ECMP: {
            std::uint64_t h = hashCombine(seed, flow.src);
            h = hashCombine(h, flow.dst);
            h = hashCombine(h, flow.qp);
            flow.paths.push_back(paths[h % paths.size()]);
            flow.weights.push_back(1.0);
            break;
          }
          case net::RoutePolicy::ADAPTIVE: {
            double w = 1.0 / (double)paths.size();
            flow.paths.reserve(paths.size());
            flow.weights.reserve(paths.size());
            for (const net::Path &p : paths) {
                flow.paths.push_back(p);
                flow.weights.push_back(w);
            }
            break;
          }
          case net::RoutePolicy::STATIC:
            flow.paths.push_back(paths[0]);
            flow.weights.push_back(1.0);
            break;
        }
        engine.attachFlow(i);
        ++res.rerouted;
        c_rerouted.inc();
    }
    return res;
}

} // namespace dsv3::fault
