#include "fault/injector.hh"

#include "common/logging.hh"
#include "obs/registry.hh"

namespace dsv3::fault {

FaultInjector::FaultInjector(net::Cluster &cluster)
    : cluster_(cluster), rank_dead_(cluster.gpus.size(), false)
{
}

void
FaultInjector::apply(const FaultEvent &ev)
{
    static obs::Counter &events =
        obs::Registry::global().counter("fault.injector.events");
    static obs::Gauge &g_links =
        obs::Registry::global().gauge("fault.injector.links_down");
    static obs::Gauge &g_ranks =
        obs::Registry::global().gauge("fault.injector.ranks_down");
    static obs::Gauge &g_switches =
        obs::Registry::global().gauge("fault.injector.switches_down");

    switch (ev.kind) {
      case FaultKind::LINK_DOWN:
        cluster_.setLinkUp(ev.nodeA, ev.nodeB, false);
        ++links_down_;
        break;
      case FaultKind::LINK_UP:
        DSV3_ASSERT(links_down_ > 0);
        cluster_.setLinkUp(ev.nodeA, ev.nodeB, true);
        --links_down_;
        break;
      case FaultKind::LINK_DEGRADED:
        cluster_.degradeLink(ev.nodeA, ev.nodeB, ev.factor);
        if (ev.factor < 1.0)
            ++links_degraded_;
        else if (links_degraded_ > 0)
            --links_degraded_;
        break;
      case FaultKind::SWITCH_DOWN:
        cluster_.setNodeUp(ev.nodeA, false);
        ++switches_down_;
        break;
      case FaultKind::SWITCH_UP:
        DSV3_ASSERT(switches_down_ > 0);
        cluster_.setNodeUp(ev.nodeA, true);
        --switches_down_;
        break;
      case FaultKind::PLANE_DOWN:
        cluster_.setPlaneUp(ev.plane, false);
        ++planes_down_;
        break;
      case FaultKind::PLANE_UP:
        DSV3_ASSERT(planes_down_ > 0);
        cluster_.setPlaneUp(ev.plane, true);
        --planes_down_;
        break;
      case FaultKind::RANK_DOWN:
        DSV3_ASSERT(ev.rank < rank_dead_.size());
        DSV3_ASSERT(!rank_dead_[ev.rank]);
        rank_dead_[ev.rank] = true;
        ++ranks_down_;
        cluster_.setNodeUp(cluster_.gpus[ev.rank], false);
        break;
      case FaultKind::RANK_UP:
        DSV3_ASSERT(ev.rank < rank_dead_.size());
        DSV3_ASSERT(rank_dead_[ev.rank]);
        rank_dead_[ev.rank] = false;
        --ranks_down_;
        cluster_.setNodeUp(cluster_.gpus[ev.rank], true);
        break;
      case FaultKind::SDC:
        ++sdc_seen_;
        break;
    }

    if (ev.kind != FaultKind::SDC) {
        // Route invalidation is driven by the topology change itself:
        // the cluster mutators above funnel every edge flip through
        // Graph::setEdgeCapacity(), which moves the fingerprint the
        // RouteCache keys on (repairs move it back to an
        // already-cached value). The epoch gauge lets snapshots
        // correlate route_cache misses with injector activity.
        static obs::Gauge &g_epoch = obs::Registry::global().gauge(
            "fault.injector.topology_epoch");
        ++topology_epoch_;
        g_epoch.set((double)topology_epoch_);
    }
    ++events_applied_;
    events.inc();
    g_links.set(double(links_down_));
    g_ranks.set(double(ranks_down_));
    g_switches.set(double(switches_down_));
}

std::size_t
FaultInjector::advanceTo(const FaultSchedule &schedule, double t)
{
    const std::vector<FaultEvent> &evs = schedule.events();
    std::size_t applied = 0;
    while (cursor_ < evs.size() && evs[cursor_].time <= t) {
        apply(evs[cursor_]);
        ++cursor_;
        ++applied;
    }
    return applied;
}

} // namespace dsv3::fault
