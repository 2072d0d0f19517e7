/**
 * @file
 * Failover routing after topology mutation.
 *
 * When the injector takes links, switches, or planes down, some live
 * flows are left holding paths that cross zero-capacity edges. This
 * pass finds them and re-resolves their routes on the degraded graph
 * -- the MPFT failover the paper describes falls out naturally,
 * because the cluster graph still contains the intra-node NVLink hop
 * to a sibling GPU whose NIC lives on a healthy plane (the PXN relay
 * pattern), so shortestPaths() discovers cross-plane detours without
 * any plane-aware logic here.
 *
 * Rerouting goes through FlowSimEngine's detach/attach protocol, so
 * the solver stays incremental: untouched flows keep their subflow
 * order and the re-solve is bit-identical to rebuilding the engine
 * from scratch over the same routed flow set.
 *
 * Flows whose endpoints are partitioned by the faults (no surviving
 * route at all) cannot make progress; they are retired from the
 * engine and reported as stalled so callers can account for the lost
 * traffic instead of deadlocking the completion loop.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/cluster.hh"
#include "net/flow.hh"

namespace dsv3::fault {

struct FailoverResult
{
    std::size_t checked = 0;   //!< live flows inspected
    std::size_t rerouted = 0;  //!< flows given a new path set
    /** Flows with no surviving route; retired from the engine. */
    std::vector<std::size_t> stalled;
};

/** True if any of the flow's paths crosses a zero-capacity edge. */
bool flowBroken(const net::Graph &graph, const net::Flow &flow);

/**
 * Re-route every live flow broken by the current fault state.
 *
 * Re-runs path selection (same policy/seed semantics as
 * assignPaths()) on the degraded graph for the broken flows only;
 * healthy flows keep their routes byte-identically. STATIC flows fall
 * back to the first canonical surviving path -- a static table has no
 * planner at failover time, which is exactly the inflexibility the
 * paper notes.
 *
 * Rebinds flows[i] (through a net::PathBinder) for rerouted flows
 * and updates the engine in place. Call after every injector batch
 * that changed the topology epoch, before the next solve()/run().
 */
FailoverResult failoverReroute(const net::Cluster &cluster,
                               std::vector<net::Flow> &flows,
                               net::FlowSimEngine &engine,
                               net::RoutePolicy policy,
                               std::uint64_t seed = 0);

} // namespace dsv3::fault
