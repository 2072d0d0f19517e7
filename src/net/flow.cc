#include "net/flow.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::net {

namespace {

/**
 * Registry handles for the flow engine, created once. Hot loops
 * accumulate into locals and flush here at solve()/run() granularity
 * so the instrumented path costs nothing measurable.
 */
struct FlowStats
{
    obs::Counter &enginesBuilt =
        obs::Registry::global().counter("net.flow.engines_built");
    obs::Counter &solves =
        obs::Registry::global().counter("net.flow.solves");
    obs::Counter &solverIterations = obs::Registry::global().counter(
        "net.flow.solver_iterations");
    obs::Counter &roundsReused =
        obs::Registry::global().counter("net.flow.rounds_reused");
    obs::Counter &epochs =
        obs::Registry::global().counter("net.flow.epochs");
    obs::Counter &flowsRetired =
        obs::Registry::global().counter("net.flow.flows_retired");
    obs::Gauge &peakUtilization =
        obs::Registry::global().gauge("net.flow.peak_utilization");
    obs::Distribution &epochActiveFlows =
        obs::Registry::global().distribution(
            "net.flow.epoch_active_flows", 0.0, 4096.0, 32);
};

FlowStats &
flowStats()
{
    static FlowStats *stats = new FlowStats();
    return *stats;
}

} // namespace

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::ECMP:
        return "ECMP";
      case RoutePolicy::ADAPTIVE:
        return "AR";
      case RoutePolicy::STATIC:
        return "Static";
    }
    return "?";
}

namespace {

/** The weight ECMP and STATIC flows view for their one path. */
constexpr double kWholeFlow = 1.0;

} // namespace

PathBinder::PathBinder(const Graph &graph, RoutePolicy policy,
                       std::uint64_t seed, bool static_table)
    : graph_(graph), policy_(policy), seed_(seed),
      static_table_(policy == RoutePolicy::STATIC && static_table)
{
    if (static_table_)
        static_load_.assign(graph.edgeCount(), 0);
    if (!RouteCache::enabled())
        local_arena_ = std::make_shared<PathArena>();
}

bool
PathBinder::bind(Flow &flow)
{
    PathSetRef set =
        local_arena_
            ? PathSetRef(local_arena_,
                         &local_arena_->fill(graph_, flow.src, flow.dst))
            : RouteCache::global().paths(graph_, flow.src, flow.dst);
    const PathList paths = set->paths;
    if (paths.empty()) {
        flow.paths = {};
        flow.weights = {};
        flow.pathSet = nullptr;
        return false;
    }

    std::size_t pick = 0;
    switch (policy_) {
      case RoutePolicy::ECMP: {
        std::uint64_t h = hashCombine(seed_, flow.src);
        h = hashCombine(h, flow.dst);
        h = hashCombine(h, flow.qp);
        pick = h % paths.size();
        break;
      }
      case RoutePolicy::ADAPTIVE:
        flow.paths = paths;
        flow.weights = set->weights;
        flow.pathSet = std::move(set);
        return true;
      case RoutePolicy::STATIC: {
        if (!static_table_)
            break; // first canonical path
        // Manually configured route tables, tuned offline for the
        // known traffic pattern (Sec 5.2.2): modeled as a greedy
        // conflict-minimizing assignment in flow order. Each flow
        // takes the candidate path whose most-loaded link carries
        // the fewest already-assigned flows. Deterministic, and
        // conflict-free when a conflict-free table exists for the
        // pattern -- but it cannot adapt once traffic changes,
        // which is the inflexibility the paper notes.
        std::uint64_t best_cost = ~0ull;
        for (std::size_t p = 0; p < paths.size(); ++p) {
            std::uint32_t worst = 0;
            std::uint64_t sum = 0;
            for (EdgeId e : paths[p]) {
                worst = std::max(worst, static_load_[e]);
                sum += static_load_[e];
            }
            std::uint64_t cost = ((std::uint64_t)worst << 32) + sum;
            if (cost < best_cost) {
                best_cost = cost;
                pick = p;
            }
        }
        for (EdgeId e : paths[pick])
            ++static_load_[e];
        break;
      }
    }
    flow.paths = {paths[pick].data(), 1, paths.hops};
    flow.weights = {&kWholeFlow, 1};
    flow.pathSet = std::move(set);
    return true;
}

void
assignPaths(const Graph &graph, std::vector<Flow> &flows,
            RoutePolicy policy, std::uint64_t seed,
            std::vector<std::size_t> *unrouted)
{
    PathBinder binder(graph, policy, seed);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        if (binder.bind(flows[i]))
            continue;
        DSV3_ASSERT(unrouted, "no route ", flows[i].src, "->",
                    flows[i].dst);
        unrouted->push_back(i);
    }
}

FlowSimEngine::FlowSimEngine(const Graph &graph,
                             const std::vector<Flow> &flows)
    : graph_(graph), flows_(flows)
{
    DSV3_TRACE_SPAN("net.flow.build", "flows", flows.size());
    flowStats().enginesBuilt.inc();
    const std::size_t n = flows.size();
    flow_sub_begin_.assign(n, 0);
    flow_sub_end_.assign(n, 0);
    alive_.assign(n, true);
    local_.assign(n, false);
    rates_.assign(n, 0.0);
    active_flows_ = n;

    active_on_edge_.assign(graph.edgeCount(), 0);
    residual_.assign(graph.edgeCount(), 0.0);
    frozen_on_edge_.assign(graph.edgeCount(), 0);
    schedule_capacity_.assign(graph.edgeCount(), 0.0);
    crossings_.assign(graph.edgeCount(), 0);
    bottleneck_.reset(graph.edgeCount());

    edge_sub_begin_.resize(graph.edgeCount());
    edge_sub_count_.resize(graph.edgeCount());

    // Subflows in flow order, then one scatter into the edge index
    // (the pass attachFlow() defers to solve()).
    std::size_t paths = 0;
    for (const Flow &f : flows)
        paths += f.paths.size();
    sub_flow_.reserve(paths);
    sub_path_.reserve(paths);
    for (std::size_t i = 0; i < n; ++i)
        addSubflows(i);
    sub_alive_.assign(sub_flow_.size(), true);
    sub_rate_.assign(sub_flow_.size(), 0.0);
    frozen_round_.assign(sub_flow_.size(), 0);
    rebuildEdgeIndex();
    undo_ = std::move(spareUndo());
    spareUndo() = {};
}

FlowSimEngine::~FlowSimEngine()
{
    UndoLog &spare = spareUndo();
    if (undo_.capacity > spare.capacity)
        spare = std::move(undo_);
}

FlowSimEngine::UndoLog &
FlowSimEngine::spareUndo()
{
    thread_local UndoLog spare;
    return spare;
}

void
FlowSimEngine::addSubflows(std::size_t flow)
{
    DSV3_ASSERT(!flows_[flow].paths.empty(),
                "call assignPaths() before maxMinRates()");
    flow_sub_begin_[flow] = (std::uint32_t)sub_flow_.size();
    for (Path p : flows_[flow].paths) {
        if (p.empty())
            continue; // src == dst: local, infinite rate
        sub_flow_.push_back((std::uint32_t)flow);
        sub_path_.push_back(p);
        for (EdgeId e : p)
            ++active_on_edge_[e];
    }
    flow_sub_end_[flow] = (std::uint32_t)sub_flow_.size();
    local_[flow] = flow_sub_begin_[flow] == flow_sub_end_[flow];
    active_subflows_ += flow_sub_end_[flow] - flow_sub_begin_[flow];
}

void
FlowSimEngine::releaseSubflows(std::size_t flow)
{
    for (std::uint32_t s = flow_sub_begin_[flow];
         s < flow_sub_end_[flow]; ++s) {
        sub_alive_[s] = false;
        for (EdgeId e : sub_path_[s])
            --active_on_edge_[e];
        --active_subflows_;
        // Unfrozen (0) only when no schedule holds s yet; then the
        // next solve() starts at round 0 anyway.
        if (frozen_round_[s] != 0)
            resume_round_ = std::min(resume_round_, frozen_round_[s] - 1);
    }
}

void
FlowSimEngine::removeFlow(std::size_t flow)
{
    DSV3_ASSERT(flow < flows_.size());
    if (!alive_[flow])
        return;
    alive_[flow] = false;
    --active_flows_;
    releaseSubflows(flow);
    flowStats().flowsRetired.inc();
}

void
FlowSimEngine::detachFlow(std::size_t flow)
{
    DSV3_ASSERT(flow < flows_.size());
    DSV3_ASSERT(alive_[flow], "cannot detach a retired flow");
    releaseSubflows(flow);
    flow_sub_begin_[flow] = 0;
    flow_sub_end_[flow] = 0;
    local_[flow] = false;
}

void
FlowSimEngine::attachFlow(std::size_t flow)
{
    DSV3_ASSERT(flow < flows_.size());
    DSV3_ASSERT(alive_[flow], "cannot attach a retired flow");
    DSV3_ASSERT(flow_sub_begin_[flow] == flow_sub_end_[flow],
                "attachFlow() without a matching detachFlow()");
    addSubflows(flow);
    sub_alive_.resize(sub_flow_.size(), true);
    sub_rate_.resize(sub_flow_.size(), 0.0);
    frozen_round_.resize(sub_flow_.size(), 0);
    // New subflows can bottleneck any round of the last schedule.
    resume_round_ = 0;
    // Splicing the new subflows into each edge's CSR segment would
    // relocate (copy) whole segments -- quadratic under a failover
    // wave that reattaches hundreds of flows. Instead leave the index
    // stale and let the next solve()/collectBrokenFlows() rebuild it
    // in one O(live) pass.
    if (!local_[flow])
        edge_index_dirty_ = true;
}

void
FlowSimEngine::rebuildEdgeIndex()
{
    // active_on_edge_ is kept current by detach/remove/attach, so it
    // already holds every edge's final live-subflow count: lay out
    // the CSR offsets from it, then scatter live subflows by cursor
    // (edge_sub_count_ doubles as the cursor and finishes equal to
    // active_on_edge_). Ascending-id fill order reproduces exactly
    // the live subsequence an incremental edge list would hold, so
    // solve()'s freeze order -- and every downstream double -- is
    // unchanged.
    std::uint32_t off = 0;
    used_edges_.clear();
    for (std::size_t e = 0; e < edge_sub_begin_.size(); ++e) {
        edge_sub_begin_[e] = off;
        edge_sub_count_[e] = 0;
        off += active_on_edge_[e];
        if (active_on_edge_[e] > 0)
            used_edges_.push_back((EdgeId)e);
    }
    edge_sub_pool_.resize(off);
    for (std::uint32_t s = 0; s < (std::uint32_t)sub_flow_.size();
         ++s) {
        if (!sub_alive_[s])
            continue;
        for (EdgeId e : sub_path_[s])
            edge_sub_pool_[edge_sub_begin_[e] +
                           edge_sub_count_[e]++] = s;
    }
    edge_index_dirty_ = false;
}

void
FlowSimEngine::collectBrokenFlows(std::vector<std::size_t> &out)
{
    if (edge_index_dirty_)
        rebuildEdgeIndex();
    out.clear();
    // Walk only the downed edges' subflow lists: after a fault burst
    // the downed set is tiny next to flows x paths x hops, which is
    // what the per-flow flowBroken() rescan costs. Dead subflow ids
    // linger in the lists until the next solve() compacts them; the
    // sub_alive_ check skips them.
    std::vector<char> hit(flows_.size(), 0);
    bool any = false;
    for (EdgeId e : used_edges_) {
        if (graph_.edge(e).capacity > 0.0)
            continue;
        const std::uint32_t seg = edge_sub_begin_[e];
        const std::uint32_t seg_count = edge_sub_count_[e];
        for (std::uint32_t k = 0; k < seg_count; ++k) {
            const std::uint32_t s = edge_sub_pool_[seg + k];
            if (sub_alive_[s]) {
                hit[sub_flow_[s]] = 1;
                any = true;
            }
        }
    }
    if (!any)
        return;
    for (std::size_t i = 0; i < flows_.size(); ++i)
        if (hit[i])
            out.push_back(i);
}

std::uint32_t
FlowSimEngine::resumeRound() const
{
    if (resume_round_ == 0)
        return 0;
    // Bit patterns, so that even a +0 -> -0 change restarts.
    for (EdgeId e : used_edges_) {
        if (active_on_edge_[e] > 0 &&
            std::bit_cast<std::uint64_t>(graph_.edge(e).capacity) !=
                std::bit_cast<std::uint64_t>(schedule_capacity_[e]))
            return 0;
    }
    return resume_round_;
}

const std::vector<double> &
FlowSimEngine::solve()
{
    const std::uint32_t resume = resumeRound();
    DSV3_TRACE_SPAN("net.flow.solve", "active_subflows",
                    active_subflows_, "resume_round", resume);
    if (edge_index_dirty_)
        rebuildEdgeIndex();
    std::fill(rates_.begin(), rates_.end(), 0.0);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (alive_[i] && local_[i])
            rates_[i] = std::numeric_limits<double>::infinity();
    }

    // Rewind the last schedule to round `resume`. No subflow removed
    // since froze before it, so those rounds are the ones a fresh
    // solve would repeat (DESIGN.md "Flow engine internals"). Undo
    // the later rounds' edge updates, latest first, so every edge
    // ends in its state before round `resume`, and unfreeze their
    // subflows. A restart (resume 0) re-seeds every edge below.
    std::size_t cursor = 0;
    if (resume > 0) {
        cursor = round_end_[resume - 1];
        for (std::size_t i = round_end_.back(); i-- > cursor;) {
            const UndoEntry &u = undo_.entries[i];
            residual_[u.edge] = u.residual;
            frozen_on_edge_[u.edge] = u.frozen;
        }
    }
    round_end_.resize(resume);
    // Branch-free, so it vectorizes. Every subflow retired since
    // froze after `resume`, so the ones still frozen are all live.
    std::size_t still_frozen = 0;
    for (std::uint32_t &round : frozen_round_) {
        round = round > resume ? 0 : round;
        still_frozen += round != 0;
    }
    std::size_t unfrozen = active_subflows_ - still_frozen;

    // Bottleneck candidates keyed by fair share: the tree's top is the
    // least share, lowest edge id on ties -- exactly the edge a full
    // rescan selects. Edges drained by removeFlow() never refill:
    // compact them out of used_edges_ (ascending order preserved)
    // while seeding the tree.
    std::size_t used_out = 0;
    for (EdgeId e : used_edges_) {
        if (active_on_edge_[e] == 0)
            continue;
        used_edges_[used_out++] = e;
        if (resume == 0) {
            residual_[e] = schedule_capacity_[e] = graph_.edge(e).capacity;
            frozen_on_edge_[e] = 0;
        }
        const std::uint32_t left = active_on_edge_[e] - frozen_on_edge_[e];
        if (left > 0)
            bottleneck_.set(e, residual_[e] / (double)left);
    }
    used_edges_.resize(used_out);

    while (unfrozen > 0) {
        const std::size_t top = bottleneck_.top();
        DSV3_ASSERT(top != WinnerTree<double>::kNone,
                    "active subflow crosses no edge");
        const EdgeId best_edge = (EdgeId)top;
        const double best_share = bottleneck_.key(best_edge);
        const std::uint32_t stamp = (std::uint32_t)round_end_.size() + 1;

        // Freeze every unfrozen subflow crossing the bottleneck, in
        // subflow-id order (the order the full rescan froze them in),
        // counting how many frozen subflows cross each edge. Subflows
        // of retired flows never come back: compact them out of the
        // edge list as it is scanned (stable, so the order survives).
        touched_.clear();
        const std::uint32_t seg = edge_sub_begin_[best_edge];
        const std::uint32_t seg_count = edge_sub_count_[best_edge];
        std::uint32_t w = 0;
        for (std::uint32_t idx = 0; idx < seg_count; ++idx) {
            const std::uint32_t s = edge_sub_pool_[seg + idx];
            if (!sub_alive_[s])
                continue; // retired or rebound away
            edge_sub_pool_[seg + w++] = s;
            if (frozen_round_[s] != 0)
                continue;
            sub_rate_[s] = best_share;
            frozen_round_[s] = stamp;
            --unfrozen;
            for (EdgeId e : sub_path_[s])
                if (crossings_[e]++ == 0)
                    touched_.push_back(e);
        }
        edge_sub_count_[best_edge] = w;
        // Room for this round's undo entries, grown geometrically and
        // never zero-filled, so the update loop below writes through a
        // bare cursor.
        if (cursor + touched_.size() > undo_.capacity) {
            UndoLog grown;
            grown.capacity =
                std::max(2 * undo_.capacity, cursor + touched_.size());
            grown.entries =
                std::make_unique_for_overwrite<UndoEntry[]>(grown.capacity);
            std::copy_n(undo_.entries.get(), cursor, grown.entries.get());
            undo_ = std::move(grown);
        }
        UndoEntry *const undo = undo_.entries.get();
        // Each touched edge takes its k crossings as k sequential
        // clamped subtractions -- the floating-point sequence freezing
        // one subflow at a time produces -- then one tree update. Its
        // prior state goes to the undo log first.
        for (EdgeId e : touched_) {
            const std::uint32_t k = crossings_[e];
            crossings_[e] = 0;
            double r = residual_[e];
            undo[cursor++] = {e, frozen_on_edge_[e], r};
            for (std::uint32_t j = 0; j < k; ++j) {
                r -= best_share;
                if (r < 0.0)
                    r = 0.0;
            }
            residual_[e] = r;
            frozen_on_edge_[e] += k;
            const std::uint32_t left = active_on_edge_[e] - frozen_on_edge_[e];
            if (left == 0)
                bottleneck_.clear(e);
            else
                bottleneck_.set(e, r / (double)left);
        }
        round_end_.push_back(cursor);
        // The bottleneck edge must now be drained of active subflows.
        DSV3_ASSERT(active_on_edge_[best_edge] == frozen_on_edge_[best_edge]);
    }
    // Every live edge drained: the unfrozen count was exact.
    DSV3_ASSERT(bottleneck_.top() == WinnerTree<double>::kNone);

    // Sum per-flow in subflow-id order, matching the reference
    // accumulation order bit for bit. Subflows frozen before `resume`
    // kept their rates.
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (!alive_[i])
            continue;
        for (std::uint32_t s = flow_sub_begin_[i];
             s < flow_sub_end_[i]; ++s)
            rates_[i] += sub_rate_[s];
    }

    // The count is the schedule's length, as a fresh solve's would be.
    resume_round_ = (std::uint32_t)round_end_.size();
    iterations_ += resume_round_;
    FlowStats &stats = flowStats();
    stats.solves.inc();
    stats.solverIterations.inc(resume_round_);
    stats.roundsReused.inc(resume);
    return rates_;
}

FlowSimResult
FlowSimEngine::run()
{
    DSV3_TRACE_SPAN("net.flow.run", "flows", flows_.size());
    const std::size_t n = flows_.size();
    FlowSimResult result;
    result.finishTimes.assign(n, 0.0);
    result.rates.assign(n, 0.0);

    std::vector<double> remaining(n, 0.0);
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < n; ++i) {
        if (!alive_[i])
            continue;
        remaining[i] = flows_[i].bytes;
        // Zero-byte flows are already done; local flows (src == dst,
        // infinite rate) finish instantly. Retiring both up front
        // keeps infinite rates out of the epoch loop, where
        // `remaining -= inf * 0` would manufacture a NaN.
        if (remaining[i] <= 0.0 || local_[i]) {
            if (local_[i] && remaining[i] > 0.0)
                result.rates[i] =
                    std::numeric_limits<double>::infinity();
            removeFlow(i);
            continue;
        }
        active.push_back(i);
    }

    // Finish threshold relative to each flow's size: an absolute
    // cutoff (the old 1e-6 B) silently finished sub-microbyte flows a
    // whole epoch early.
    constexpr double kFinishEps = 1e-9;

    FlowStats &stats = flowStats();
    double now = 0.0;
    bool first_epoch = true;
    while (!active.empty()) {
        stats.epochActiveFlows.add((double)active.size());
        const std::vector<double> &rates = solve();
        ++result.epochs;

        if (first_epoch) {
            first_epoch = false;
            std::vector<double> edge_load(graph_.edgeCount(), 0.0);
            for (std::size_t i : active) {
                result.rates[i] = rates[i];
                const Flow &f = flows_[i];
                for (std::size_t p = 0; p < f.paths.size(); ++p) {
                    // Approximation: per-path share follows weights.
                    double r = rates[i] * f.weights[p];
                    for (EdgeId e : f.paths[p])
                        edge_load[e] += r;
                }
            }
            for (EdgeId e = 0; e < graph_.edgeCount(); ++e) {
                result.peakUtilization =
                    std::max(result.peakUtilization,
                             edge_load[e] / graph_.edge(e).capacity);
            }
        }

        // Advance to the next completion.
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t i : active) {
            if (rates[i] <= 0.0)
                continue;
            dt = std::min(dt, remaining[i] / rates[i]);
        }
        DSV3_ASSERT(std::isfinite(dt), "deadlocked flows");
        now += dt;

        std::size_t out = 0;
        for (std::size_t i : active) {
            remaining[i] -= rates[i] * dt;
            if (remaining[i] <= flows_[i].bytes * kFinishEps) {
                remaining[i] = 0.0;
                result.finishTimes[i] = now;
                removeFlow(i);
            } else {
                active[out++] = i;
            }
        }
        active.resize(out);
    }
    result.makespan = now;
    result.solverIterations = iterations_;
    // FlowSimResult keeps its hand-carried public fields (callers rely
    // on them); the registry gets the same quantities under net.flow.*.
    stats.epochs.inc(result.epochs);
    stats.peakUtilization.max(result.peakUtilization);
    return result;
}

std::vector<double>
maxMinRates(const Graph &graph, const std::vector<Flow> &flows)
{
    FlowSimEngine engine(graph, flows);
    return engine.solve();
}

FlowSimResult
simulateFlows(const Graph &graph, const std::vector<Flow> &flows)
{
    FlowSimEngine engine(graph, flows);
    return engine.run();
}

} // namespace dsv3::net
