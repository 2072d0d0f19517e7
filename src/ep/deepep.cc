#include "ep/deepep.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "moe/placement.hh"
#include "moe/token_gen.hh"
#include "net/flow.hh"
#include "obs/trace.hh"

namespace dsv3::ep {

double
degradedRetryPenalty(const EpFaultModel &fm, double worst_factor,
                     std::uint64_t stream)
{
    Rng rng(hashCombine(fm.seed, stream));
    double penalty = 0.0, timeout = fm.timeoutSec;
    for (std::size_t r = 0; r < fm.maxRetries; ++r) {
        if (rng.bernoulli(worst_factor))
            break; // attempt got through
        penalty += timeout;
        timeout *= fm.backoff;
    }
    return penalty;
}

std::size_t
chooseRelayRank(const net::Cluster &cluster, std::size_t dst_host,
                std::size_t src_plane, const std::vector<bool> *dead)
{
    const std::size_t per_host = cluster.config.gpusPerHost;
    auto usable = [&](std::size_t r) {
        return r < cluster.gpus.size() &&
               cluster.hostOf(r) == dst_host &&
               (!dead || dead->empty() || !(*dead)[r]);
    };
    // k == 0 is DeepEP's same-plane choice; higher k walks the other
    // planes of the destination host in plane-affine order.
    for (std::size_t k = 0; k < per_host; ++k) {
        std::size_t r =
            dst_host * per_host + (src_plane + k) % per_host;
        if (usable(r))
            return r;
    }
    return kNoRelay;
}

namespace {

/** One source rank's traffic: its rows of the count matrices and
 *  its scalar sums. */
struct RankTraffic
{
    std::vector<double> interHostCopies; //!< [dst_host] IB copies
    std::vector<double> deliveries;      //!< [dst_gpu] expert deliveries
    double nodesTouched = 0.0;
    double gpusTouched = 0.0;
    double tokens = 0.0;
    double droppedDeliveries = 0.0;
};

/**
 * Count every live rank's routed tokens. Rank s's task writes only
 * traffic[s], and every count is an integer-valued double, so the
 * result is the same at any parallelFor width.
 */
std::vector<RankTraffic>
countTraffic(const net::Cluster &cluster, const EpWorkload &w,
             std::span<const std::uint32_t> routed,
             const std::vector<bool> *dead)
{
    const std::size_t gpus = cluster.gpus.size();
    const std::size_t k = w.gate.topK;
    const std::size_t per_rank = w.tokensPerGpu * k;
    moe::ExpertPlacement placement(w.gate.experts, cluster.config.hosts,
                                   cluster.config.gpusPerHost);
    std::vector<RankTraffic> traffic(gpus);
    parallelFor(gpus, [&](std::size_t src) {
        RankTraffic &rt = traffic[src];
        rt.interHostCopies.assign(cluster.config.hosts, 0.0);
        rt.deliveries.assign(gpus, 0.0);
        if (dead && !dead->empty() && (*dead)[src])
            return; // crashed rank: emits no tokens
        // Deliveries to crashed expert GPUs are lost; hosts with no
        // surviving delivery get no IB copy either.
        std::vector<std::uint32_t> dst_gpus(k), dst_hosts(k);
        for (std::size_t t = 0; t < per_rank; t += k) {
            auto [n_gpus, n_hosts, dropped] = placement.footprint(
                routed.subspan(src * per_rank + t, k), dst_gpus,
                dst_hosts, dead);
            rt.nodesTouched += (double)n_hosts;
            rt.gpusTouched += (double)n_gpus;
            rt.tokens += 1.0;
            rt.droppedDeliveries += (double)dropped;
            for (std::size_t i = 0; i < n_hosts; ++i) {
                if (dst_hosts[i] != cluster.hostOf(src))
                    rt.interHostCopies[dst_hosts[i]] += 1.0;
            }
            for (std::size_t i = 0; i < n_gpus; ++i)
                rt.deliveries[dst_gpus[i]] += 1.0;
        }
    });
    return traffic;
}

/** One phase (dispatch or combine) timed via the fluid model. */
struct PhaseResult
{
    double seconds = 0.0;
    double worstNicBytes = 0.0;
    double retrySeconds = 0.0;
    std::size_t relayFallbacks = 0;
    std::size_t stalled = 0;
};

PhaseResult
timePhase(const net::Cluster &cluster,
          const std::vector<RankTraffic> &traffic,
          double bytes_per_token, bool reverse,
          const EpFaultModel &fm)
{
    DSV3_TRACE_SPAN(reverse ? "ep.deepep.combine"
                            : "ep.deepep.dispatch");
    const std::size_t gpus = cluster.gpus.size();
    const std::size_t per_host = cluster.config.gpusPerHost;

    PhaseResult out;

    // Aggregate flows keyed by (graph src, graph dst).
    std::map<std::pair<net::NodeId, net::NodeId>, double> agg;
    std::vector<double> nic_bytes(gpus, 0.0);

    auto add = [&](std::size_t a_rank, std::size_t b_rank,
                   double bytes) {
        if (a_rank == b_rank || bytes <= 0.0)
            return;
        std::size_t s = reverse ? b_rank : a_rank;
        std::size_t d = reverse ? a_rank : b_rank;
        agg[{cluster.gpus[s], cluster.gpus[d]}] += bytes;
    };

    for (std::size_t src = 0; src < gpus; ++src) {
        const std::size_t src_host = cluster.hostOf(src);
        const std::size_t src_plane = cluster.planeOf(src);

        // Inter-host copies: src -> same-plane relay on dst host
        // (validated; falls back cross-plane when that GPU is dead
        // or absent on a short host).
        for (std::size_t h = 0; h < cluster.config.hosts; ++h) {
            double copies = traffic[src].interHostCopies[h];
            if (copies <= 0.0)
                continue;
            std::size_t relay =
                chooseRelayRank(cluster, h, src_plane, fm.deadRanks);
            if (relay == kNoRelay) {
                ++out.stalled; // no live GPU on the destination host
                continue;
            }
            if (relay != h * per_host + src_plane)
                ++out.relayFallbacks;
            double bytes = copies * bytes_per_token;
            add(src, relay, bytes);
            nic_bytes[reverse ? relay : src] += bytes;

            // Relay fans copies out over NVLink to expert GPUs.
            for (std::size_t g = h * per_host;
                 g < (h + 1) * per_host; ++g) {
                double deliv = traffic[src].deliveries[g];
                if (deliv <= 0.0 || g == relay)
                    continue;
                add(relay, g, deliv * bytes_per_token);
            }
        }
        // Intra-host deliveries go straight over NVLink.
        for (std::size_t g = src_host * per_host;
             g < (src_host + 1) * per_host; ++g) {
            double deliv = traffic[src].deliveries[g];
            if (deliv <= 0.0)
                continue;
            add(src, g, deliv * bytes_per_token);
        }
    }

    std::vector<net::Flow> flows;
    flows.reserve(agg.size());
    std::uint64_t qp = 0;
    for (const auto &[key, bytes] : agg) {
        net::Flow f;
        f.src = key.first;
        f.dst = key.second;
        f.bytes = bytes;
        f.qp = qp++;
        flows.push_back(f);
    }
    // Route every relay/delivery transfer, spread evenly over its
    // canonical shortest paths. The dispatch and combine phases (and
    // repeated simulateDeepEp calls over one topology) look up the
    // same (src, dst) pairs, so the sets come warm from the RouteCache.
    std::vector<std::size_t> unrouted;
    assignPaths(cluster.graph, flows, net::RoutePolicy::ADAPTIVE, 0,
                &unrouted);
    if (!unrouted.empty()) {
        // Faults partitioned these transfers: account and drop them
        // so the fluid loop doesn't deadlock on rate-0 flows.
        out.stalled += unrouted.size();
        for (auto it = unrouted.rbegin(); it != unrouted.rend(); ++it)
            flows.erase(flows.begin() + (std::ptrdiff_t)*it);
    }

    // Timeout/retry economics on degraded links: each transfer whose
    // worst path link is below its built bandwidth retries with
    // exponential backoff; concurrent transfers overlap, so the phase
    // pays the worst transfer's penalty.
    if (cluster.faultStateActive()) {
        for (const net::Flow &f : flows) {
            double worst = 1.0;
            for (net::EdgeId e : f.paths.edges())
                worst = std::min(worst, cluster.graph.edge(e).capacity /
                                            cluster.baseCapacity[e]);
            if (worst >= fm.degradedThreshold)
                continue;
            out.retrySeconds =
                std::max(out.retrySeconds,
                         degradedRetryPenalty(fm, worst, f.qp));
        }
    }

    net::FlowSimResult sim = simulateFlows(cluster.graph, flows);

    out.seconds = sim.makespan + out.retrySeconds;
    out.worstNicBytes =
        *std::max_element(nic_bytes.begin(), nic_bytes.end());
    return out;
}

} // namespace

std::vector<std::uint32_t>
routeTokens(const EpWorkload &w, std::size_t ranks)
{
    const std::size_t per_rank = w.tokensPerGpu * w.gate.topK;
    std::vector<std::uint32_t> table(ranks * per_rank);
    moe::TopKGate gate(w.gate);
    parallelFor(ranks, [&](std::size_t s) {
        moe::TokenScoreGenerator gen(w.gate.experts, w.popularitySkew,
                                     w.seed + s);
        gate.routeStream(gen, std::span(table).subspan(s * per_rank,
                                                       per_rank));
    });
    return table;
}

EpResult
simulateDeepEp(const net::Cluster &cluster, const EpWorkload &w,
               const EpFaultModel &fm)
{
    return simulateDeepEp(cluster, w,
                          routeTokens(w, cluster.gpus.size()), fm);
}

EpResult
simulateDeepEp(const net::Cluster &cluster, const EpWorkload &w,
               std::span<const std::uint32_t> routed,
               const EpFaultModel &fm)
{
    DSV3_ASSERT(w.gate.experts % cluster.gpus.size() == 0,
                "experts must divide evenly over GPUs");
    DSV3_ASSERT(routed.size() >= cluster.gpus.size() * w.tokensPerGpu *
                                     w.gate.topK,
                "routed table has fewer ranks than the cluster");
    if (fm.deadRanks && !fm.deadRanks->empty())
        DSV3_ASSERT(fm.deadRanks->size() == cluster.gpus.size());
    DSV3_TRACE_SPAN("ep.deepep.simulate", "tokens_per_gpu",
                    w.tokensPerGpu, "experts", w.gate.experts);
    const std::vector<RankTraffic> traffic =
        countTraffic(cluster, w, routed, fm.deadRanks);
    RankTraffic sum; // scalar sums, added in rank order
    for (const RankTraffic &rt : traffic) {
        sum.nodesTouched += rt.nodesTouched;
        sum.gpusTouched += rt.gpusTouched;
        sum.tokens += rt.tokens;
        sum.droppedDeliveries += rt.droppedDeliveries;
    }

    const double dispatch_bytes =
        (double)w.hidden *
        (w.dispatchBytesPerElem * (1.0 + w.dispatchScaleOverhead));
    const double combine_bytes =
        (double)w.hidden * w.combineBytesPerElem;

    PhaseResult dispatch = timePhase(cluster, traffic, dispatch_bytes,
                                     /*reverse=*/false, fm);
    PhaseResult combine = timePhase(cluster, traffic, combine_bytes,
                                    /*reverse=*/true, fm);

    EpResult out;
    out.dispatchSeconds = dispatch.seconds;
    out.combineSeconds = combine.seconds;
    out.dispatchRetrySeconds = dispatch.retrySeconds;
    out.combineRetrySeconds = combine.retrySeconds;
    out.droppedDeliveries = sum.droppedDeliveries;
    out.relayFallbacks = dispatch.relayFallbacks + combine.relayFallbacks;
    out.stalledTransfers = dispatch.stalled + combine.stalled;
    out.dispatchNicBytesPerGpu = dispatch.worstNicBytes;
    out.combineNicBytesPerGpu = combine.worstNicBytes;
    out.dispatchGBsPerGpu = dispatch.seconds > 0.0
        ? dispatch.worstNicBytes / dispatch.seconds : 0.0;
    out.combineGBsPerGpu = combine.seconds > 0.0
        ? combine.worstNicBytes / combine.seconds : 0.0;
    out.meanNodesTouched = sum.tokens > 0.0
        ? sum.nodesTouched / sum.tokens : 0.0;
    out.meanGpusTouched = sum.tokens > 0.0
        ? sum.gpusTouched / sum.tokens : 0.0;
    return out;
}

} // namespace dsv3::ep
