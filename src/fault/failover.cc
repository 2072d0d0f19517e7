#include "fault/failover.hh"

#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::fault {

bool
flowBroken(const net::Graph &graph, const net::Flow &flow)
{
    for (net::EdgeId e : flow.paths.edges())
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

    // Release the engine's subflows before rebinding flows[i] (the
    // rebinding protocol: detach, rebind, attach).
    for (std::size_t i : broken)
        engine.detachFlow(i);

    // Surviving route sets come from the process RouteCache, keyed by
    // the degraded fingerprint (or the binder's call-local store with
    // the cache off). The broken list is ascending, so misses arrive
    // grouped by source and share one shortest-path DAG each.
    net::PathBinder binder(cluster.graph, policy, seed,
                           /*static_table=*/false);
    for (std::size_t i : broken) {
        if (!binder.bind(flows[i])) {
            // Partitioned: no route survives the faults. Retire it so
            // the completion loop doesn't deadlock on a rate-0 flow.
            engine.removeFlow(i);
            res.stalled.push_back(i);
            c_stalled.inc();
            continue;
        }
        engine.attachFlow(i);
        ++res.rerouted;
        c_rerouted.inc();
    }
    return res;
}

} // namespace dsv3::fault
