/**
 * @file
 * Golden tests for FlowSimEngine: the incremental solver must produce
 * rates bit-identical to the classic full-rescan water-fill it
 * replaced. The reference implementation below is a verbatim copy of
 * the seed solver (rebuild subflows per call, rescan every edge per
 * bottleneck iteration). Solves that resume the last schedule are held
 * to a fresh engine, whose first solve always starts at round 0.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "net/cluster.hh"
#include "net/flow.hh"
#include "obs/registry.hh"

namespace dsv3::net {
namespace {

// ---- Reference solver: the seed implementation, kept verbatim. ----

struct RefSubflow
{
    std::size_t flow;
    Path path;
    double rate = 0.0;
    bool frozen = false;
};

void
referenceWaterFill(const Graph &graph,
                   std::vector<RefSubflow> &subflows,
                   std::vector<double> residual)
{
    std::vector<std::uint32_t> active_on_edge(graph.edgeCount(), 0);
    std::size_t unfrozen = 0;
    for (auto &sf : subflows) {
        if (sf.frozen)
            continue;
        ++unfrozen;
        for (EdgeId e : sf.path)
            ++active_on_edge[e];
    }

    std::vector<bool> done(subflows.size(), false);
    while (unfrozen > 0) {
        double best_share = std::numeric_limits<double>::infinity();
        EdgeId best_edge = 0;
        bool found = false;
        for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
            if (active_on_edge[e] == 0)
                continue;
            double share = residual[e] / (double)active_on_edge[e];
            if (share < best_share) {
                best_share = share;
                best_edge = e;
                found = true;
            }
        }
        ASSERT_TRUE(found);

        for (std::size_t i = 0; i < subflows.size(); ++i) {
            RefSubflow &sf = subflows[i];
            if (sf.frozen || done[i])
                continue;
            bool crosses = false;
            for (EdgeId e : sf.path) {
                if (e == best_edge) {
                    crosses = true;
                    break;
                }
            }
            if (!crosses)
                continue;
            sf.rate = best_share;
            done[i] = true;
            --unfrozen;
            for (EdgeId e : sf.path) {
                residual[e] -= best_share;
                if (residual[e] < 0.0)
                    residual[e] = 0.0;
                --active_on_edge[e];
            }
        }
    }
    for (std::size_t i = 0; i < subflows.size(); ++i)
        if (done[i])
            subflows[i].frozen = true;
}

std::vector<double>
referenceMaxMinRates(const Graph &graph, const std::vector<Flow> &flows)
{
    std::vector<RefSubflow> subflows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        for (const Path &p : flows[i].paths) {
            if (p.empty())
                continue;
            subflows.push_back({i, p, 0.0, false});
        }
    }
    std::vector<double> residual(graph.edgeCount());
    for (EdgeId e = 0; e < graph.edgeCount(); ++e)
        residual[e] = graph.edge(e).capacity;
    referenceWaterFill(graph, subflows, std::move(residual));

    std::vector<double> rates(flows.size(), 0.0);
    for (const RefSubflow &sf : subflows)
        rates[sf.flow] += sf.rate;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        bool local = true;
        for (const Path &p : flows[i].paths)
            if (!p.empty())
                local = false;
        if (local)
            rates[i] = std::numeric_limits<double>::infinity();
    }
    return rates;
}

// ---- Shared topology / traffic builders. ----

/** Leaf-spine fabric: `leaves` leaves x `per_leaf` hosts, `spines`. */
struct Fabric
{
    Graph g;
    std::vector<NodeId> hosts;
};

Fabric
makeFabric(std::size_t leaves, std::size_t per_leaf,
           std::size_t spines, double nic = 10.0, double trunk = 7.0)
{
    Fabric f;
    std::vector<NodeId> leaf_ids, spine_ids;
    for (std::size_t l = 0; l < leaves; ++l)
        leaf_ids.push_back(
            f.g.addNode(NodeKind::LEAF, "leaf" + std::to_string(l)));
    for (std::size_t s = 0; s < spines; ++s)
        spine_ids.push_back(
            f.g.addNode(NodeKind::SPINE, "sp" + std::to_string(s)));
    for (NodeId leaf : leaf_ids)
        for (NodeId sp : spine_ids)
            f.g.addDuplex(leaf, sp, trunk, 1e-6);
    for (std::size_t l = 0; l < leaves; ++l) {
        for (std::size_t h = 0; h < per_leaf; ++h) {
            NodeId host = f.g.addNode(
                NodeKind::GPU,
                "h" + std::to_string(l * per_leaf + h));
            f.g.addDuplex(host, leaf_ids[l], nic, 1e-6);
            f.hosts.push_back(host);
        }
    }
    return f;
}

std::vector<Flow>
allToAll(const Fabric &f, double bytes = 100.0)
{
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (NodeId src : f.hosts)
        for (NodeId dst : f.hosts)
            if (src != dst)
                flows.push_back({src, dst, bytes, qp++, {}, {}});
    return flows;
}

class GoldenRatesTest : public ::testing::TestWithParam<RoutePolicy>
{};

TEST_P(GoldenRatesTest, EngineMatchesReferenceBitExact)
{
    Fabric f = makeFabric(4, 4, 4);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, GetParam(), 7);

    auto expected = referenceMaxMinRates(f.g, flows);
    auto actual = maxMinRates(f.g, flows);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "flow " << i;
}

TEST_P(GoldenRatesTest, IncrementalRemovalMatchesRebuild)
{
    // Retiring flows through the engine must give the same rates as
    // rebuilding the reference solver on the surviving subset.
    Fabric f = makeFabric(4, 4, 4);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, GetParam(), 3);

    FlowSimEngine engine(f.g, flows);
    std::vector<Flow> survivors;
    std::vector<std::size_t> survivor_ids;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        if (i % 3 == 0) {
            engine.removeFlow(i);
        } else {
            survivors.push_back(flows[i]);
            survivor_ids.push_back(i);
        }
    }
    EXPECT_EQ(engine.activeFlows(), survivors.size());

    auto expected = referenceMaxMinRates(f.g, survivors);
    const auto &actual = engine.solve();
    for (std::size_t s = 0; s < survivor_ids.size(); ++s)
        EXPECT_EQ(actual[survivor_ids[s]], expected[s])
            << "flow " << survivor_ids[s];
    for (std::size_t i = 0; i < flows.size(); ++i) {
        if (i % 3 == 0) {
            EXPECT_EQ(actual[i], 0.0);
        }
    }
}

TEST_P(GoldenRatesTest, EverySuccessiveEpochMatchesReference)
{
    // Walk a whole completion schedule: after each epoch's finisher
    // set is retired, the incremental rates must still equal a fresh
    // reference solve on the remaining flows.
    Fabric f = makeFabric(2, 3, 2);
    auto flows = allToAll(f);
    // Vary sizes so completions are staggered.
    Rng rng(11);
    for (auto &fl : flows)
        fl.bytes = 50.0 + 200.0 * rng.nextDouble();
    assignPaths(f.g, flows, GetParam(), 5);

    FlowSimEngine engine(f.g, flows);
    std::vector<double> remaining(flows.size());
    std::vector<bool> alive(flows.size(), true);
    for (std::size_t i = 0; i < flows.size(); ++i)
        remaining[i] = flows[i].bytes;

    std::size_t left = flows.size();
    int guard = 0;
    while (left > 0 && ++guard < 1000) {
        std::vector<Flow> active;
        std::vector<std::size_t> ids;
        for (std::size_t i = 0; i < flows.size(); ++i) {
            if (alive[i]) {
                active.push_back(flows[i]);
                ids.push_back(i);
            }
        }
        auto expected = referenceMaxMinRates(f.g, active);
        const auto &actual = engine.solve();
        for (std::size_t a = 0; a < ids.size(); ++a)
            ASSERT_EQ(actual[ids[a]], expected[a])
                << "epoch " << guard << " flow " << ids[a];

        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < ids.size(); ++a)
            if (expected[a] > 0.0)
                dt = std::min(dt, remaining[ids[a]] / expected[a]);
        ASSERT_TRUE(std::isfinite(dt));
        for (std::size_t a = 0; a < ids.size(); ++a) {
            std::size_t i = ids[a];
            remaining[i] -= expected[a] * dt;
            if (remaining[i] <= flows[i].bytes * 1e-9) {
                alive[i] = false;
                engine.removeFlow(i);
                --left;
            }
        }
    }
    EXPECT_EQ(left, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, GoldenRatesTest,
                         ::testing::Values(RoutePolicy::ECMP,
                                           RoutePolicy::ADAPTIVE,
                                           RoutePolicy::STATIC),
                         [](const auto &info) {
                             return routePolicyName(info.param);
                         });

TEST(FlowSimEngine, ObservabilityCounters)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    Rng rng(13);
    for (auto &fl : flows)
        fl.bytes = 10.0 + 90.0 * rng.nextDouble();
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    obs::Counter &iters =
        obs::Registry::global().counter("net.flow.solver_iterations");
    obs::Counter &reused =
        obs::Registry::global().counter("net.flow.rounds_reused");
    const std::uint64_t iters_before = iters.value();
    const std::uint64_t reused_before = reused.value();
    auto sim = simulateFlows(f.g, flows);
    // Staggered sizes force multiple completion epochs, each running
    // at least one bottleneck-freeze iteration.
    EXPECT_GT(sim.epochs, 1u);
    EXPECT_GE(sim.solverIterations, (std::uint64_t)sim.epochs);
    // The counter sums each solve's schedule length, reused rounds
    // included; later epochs resume the last schedule past round 0.
    EXPECT_EQ(iters.value() - iters_before, sim.solverIterations);
    EXPECT_GT(reused.value() - reused_before, 0u);
    EXPECT_LT(reused.value() - reused_before, sim.solverIterations);
}

/** A graph and the endpoints flows run between. */
struct Topology
{
    Graph g;
    std::vector<NodeId> hosts;
};

/**
 * Trial @p trial's topology: a random leaf-spine fabric, every other
 * one with uniform capacities so that many fair shares tie, and an
 * 8-GPU MPFT and MRFT cluster at the end of each cycle of 8.
 */
Topology
trialTopology(std::uint64_t trial, Rng &rng)
{
    if (trial % 8 >= 6) {
        ClusterConfig cfg;
        cfg.fabric = trial % 8 == 6 ? net::Fabric::MPFT : net::Fabric::MRFT;
        cfg.hosts = 4;
        cfg.gpusPerHost = 2;
        cfg.planes = 2;
        cfg.switchRadix = 8;
        Cluster c = buildCluster(cfg);
        return {std::move(c.graph), c.gpus};
    }
    const bool uniform = trial % 2 == 0;
    Fabric f = makeFabric(1 + rng.nextBounded(4), 1 + rng.nextBounded(4),
                          1 + rng.nextBounded(3), 10.0,
                          uniform ? 10.0 : rng.uniform(2.0, 12.0));
    return {std::move(f.g), std::move(f.hosts)};
}

/** Random pairs over @p hosts, some local, some of zero bytes. */
std::vector<Flow>
trialFlows(const std::vector<NodeId> &hosts, Rng &rng)
{
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (NodeId src : hosts) {
        for (NodeId dst : hosts) {
            if (src == dst ? !rng.bernoulli(0.2) : !rng.bernoulli(0.6))
                continue;
            const double bytes =
                rng.bernoulli(0.1) ? 0.0 : rng.uniform(1.0, 100.0);
            flows.push_back({src, dst, bytes, qp++, {}, {}});
        }
    }
    return flows;
}

TEST(FlowSimEngine, ResumedSolvesMatchFreshEngine)
{
    // Random retirements, capacity changes and reroutes between
    // solves. After every step each rate must equal, bit for bit, a
    // fresh engine's over the same live flows, and the solve must
    // count the fresh engine's iterations.
    obs::Counter &reused_counter =
        obs::Registry::global().counter("net.flow.rounds_reused");
    const std::uint64_t reused_at_start = reused_counter.value();
    std::size_t resumed_inside = 0; // 0 < reused < last schedule
    std::size_t solves = 0;
    const RoutePolicy policies[] = {RoutePolicy::ECMP,
                                    RoutePolicy::ADAPTIVE,
                                    RoutePolicy::STATIC};

    for (std::uint64_t trial = 0; trial < 96; ++trial) {
        Rng rng(trial + 1);
        Topology topo = trialTopology(trial, rng);
        Graph &g = topo.g;
        std::vector<Flow> flows = trialFlows(topo.hosts, rng);
        if (flows.empty())
            continue;
        assignPaths(g, flows, policies[trial % 3], trial);
        std::vector<double> healthy(g.edgeCount());
        for (EdgeId e = 0; e < g.edgeCount(); ++e)
            healthy[e] = g.edge(e).capacity;

        FlowSimEngine engine(g, flows);
        std::uint64_t last_schedule = 0;
        for (int step = 0; step < 24 && engine.activeFlows() > 0;
             ++step) {
            const std::uint64_t iters = engine.solverIterations();
            const std::uint64_t reused = reused_counter.value();
            const std::vector<double> rates = engine.solve();
            const std::uint64_t schedule = engine.solverIterations() - iters;
            const std::uint64_t resume = reused_counter.value() - reused;
            ++solves;
            if (resume > 0 && resume < last_schedule)
                ++resumed_inside;
            last_schedule = schedule;

            std::vector<Flow> live;
            std::vector<std::size_t> ids;
            for (std::size_t i = 0; i < flows.size(); ++i) {
                if (engine.flowActive(i)) {
                    live.push_back(flows[i]);
                    ids.push_back(i);
                } else {
                    ASSERT_EQ(rates[i], 0.0) << "retired flow " << i;
                }
            }
            FlowSimEngine fresh(g, live);
            const std::vector<double> &want = fresh.solve();
            ASSERT_EQ(schedule, fresh.solverIterations())
                << "trial " << trial << " step " << step;
            for (std::size_t k = 0; k < ids.size(); ++k)
                ASSERT_EQ(std::memcmp(&rates[ids[k]], &want[k],
                                      sizeof(double)),
                          0)
                    << "trial " << trial << " step " << step << " flow "
                    << ids[k] << ": " << rates[ids[k]] << " vs "
                    << want[k];

            switch (rng.nextBounded(5)) {
              case 0: // retire a random subset
                for (std::size_t i : ids)
                    if (rng.bernoulli(0.2))
                        engine.removeFlow(i);
                break;
              case 1: { // retire the fastest flows, as run() does
                double fastest = 0.0;
                for (std::size_t i : ids)
                    if (std::isfinite(rates[i]))
                        fastest = std::max(fastest, rates[i]);
                for (std::size_t i : ids)
                    if (rates[i] == fastest)
                        engine.removeFlow(i);
                break;
              }
              case 2: { // take a link down, restore it, or degrade it
                const EdgeId e = (EdgeId)rng.nextBounded(g.edgeCount());
                switch (rng.nextBounded(4)) {
                  case 0: // down, as +0 or -0
                    g.setEdgeCapacity(e, rng.bernoulli(0.5) ? 0.0 : -0.0);
                    break;
                  case 1:
                    g.setEdgeCapacity(e, healthy[e]);
                    break;
                  default:
                    g.setEdgeCapacity(e, g.edge(e).capacity *
                                             rng.uniform(0.25, 1.0));
                }
                break;
              }
              case 3: { // detach, rebind and attach (failover)
                PathBinder binder(g, policies[rng.nextBounded(3)],
                                  rng.nextU64(), rng.bernoulli(0.5));
                for (std::size_t i : ids) {
                    if (!rng.bernoulli(0.25))
                        continue;
                    engine.detachFlow(i);
                    if (binder.bind(flows[i]))
                        engine.attachFlow(i);
                    else
                        engine.removeFlow(i); // partitioned
                }
                break;
              }
              default: // nothing changed
                break;
            }
        }
    }
    EXPECT_GT(solves, 1000u);
    EXPECT_GT(reused_counter.value(), reused_at_start);
    EXPECT_GT(resumed_inside, 0u);
}

TEST(FlowSimEngine, RemoveFlowIsIdempotent)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    FlowSimEngine engine(f.g, flows);
    engine.removeFlow(0);
    engine.removeFlow(0);
    EXPECT_EQ(engine.activeFlows(), flows.size() - 1);
    EXPECT_FALSE(engine.flowActive(0));
    EXPECT_TRUE(engine.flowActive(1));
}

/** Route one pair on each of @p n new fingerprints. */
void
fillOtherTables(std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        Fabric other = makeFabric(1, k + 2, 1);
        (void)RouteCache::global().paths(other.g, other.hosts[0],
                                         other.hosts[1]);
    }
}

TEST(FlowSimEngine, ViewsOutliveCacheClearAndEviction)
{
    // The engine views the edges of the sets its flows pin. Dropping
    // the cache's references between construction and run(), by
    // clear() or by LRU eviction, must not move a bit of the result,
    // which must equal a cache-off engine's.
    const bool cache_was = RouteCache::enabled();
    obs::Counter &evictions =
        obs::Registry::global().counter("net.route_cache.evictions");
    obs::Counter &misses =
        obs::Registry::global().counter("net.route_cache.misses");
    Fabric f = makeFabric(4, 4, 4);
    RouteCache::setEnabled(false);
    auto off = allToAll(f);
    assignPaths(f.g, off, RoutePolicy::ADAPTIVE);
    const FlowSimResult want = simulateFlows(f.g, off);
    RouteCache::setEnabled(true);

    for (bool evict : {false, true}) {
        RouteCache::global().clear();
        auto flows = allToAll(f);
        assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
        FlowSimEngine engine(f.g, flows);
        const std::uint64_t evicted = evictions.value();
        if (evict)
            fillOtherTables(64); // 65 tables: this one is the LRU
        else
            RouteCache::global().clear();
        const FlowSimResult got = engine.run();
        EXPECT_EQ(got.rates, want.rates) << "evict " << evict;
        EXPECT_EQ(got.finishTimes, want.finishTimes) << "evict " << evict;
        EXPECT_EQ(got.makespan, want.makespan);
        EXPECT_EQ(got.peakUtilization, want.peakUtilization);
        EXPECT_EQ(got.epochs, want.epochs);
        if (evict) {
            EXPECT_GT(evictions.value(), evicted);
            const std::uint64_t missed = misses.value();
            (void)RouteCache::global().paths(f.g, f.hosts[0], f.hosts[1]);
            EXPECT_EQ(misses.value(), missed + 1); // the table was gone
        }
    }
    RouteCache::global().clear();
    RouteCache::setEnabled(cache_was);
}

TEST(FlowSimEngine, SimulateMatchesWrapperPath)
{
    // simulateFlows() is a thin wrapper over FlowSimEngine::run();
    // an engine built and run by hand must agree with it exactly.
    Fabric f = makeFabric(2, 3, 2);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto a = simulateFlows(f.g, flows);
    FlowSimEngine engine(f.g, flows);
    auto b = engine.run();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.peakUtilization, b.peakUtilization);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_EQ(a.rates[i], b.rates[i]);
        EXPECT_EQ(a.finishTimes[i], b.finishTimes[i]);
    }
}

} // namespace
} // namespace dsv3::net
