#include "ep/deepep.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/rng.hh"
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

/** Aggregated traffic matrices produced by routing all tokens. */
struct TrafficCounts
{
    // copies[src_gpu][dst_host]: IB token copies (deduplicated).
    std::vector<std::vector<double>> interHostCopies;
    // deliveries[src_gpu][dst_gpu]: expert deliveries.
    std::vector<std::vector<double>> deliveries;
    double sumNodesTouched = 0.0;
    double sumGpusTouched = 0.0;
    double tokens = 0.0;
    double droppedDeliveries = 0.0;
};

TrafficCounts
routeAllTokens(const net::Cluster &cluster, const EpWorkload &w,
               const std::vector<bool> *dead)
{
    const std::size_t gpus = cluster.gpus.size();
    const std::size_t hosts = cluster.config.hosts;
    moe::ExpertPlacement placement(w.gate.experts, hosts,
                                   cluster.config.gpusPerHost);
    moe::TopKGate gate(w.gate);

    TrafficCounts tc;
    tc.interHostCopies.assign(gpus, std::vector<double>(hosts, 0.0));
    tc.deliveries.assign(gpus, std::vector<double>(gpus, 0.0));

    const bool masking = dead && !dead->empty();
    for (std::size_t src = 0; src < gpus; ++src) {
        if (masking && (*dead)[src])
            continue; // crashed rank: emits no tokens
        moe::TokenScoreGenerator gen(w.gate.experts, w.popularitySkew,
                                     w.seed + src);
        for (std::size_t t = 0; t < w.tokensPerGpu; ++t) {
            auto decision = gate.route(gen.next());
            std::vector<std::uint32_t> dst_hosts, dst_gpus;
            for (std::uint32_t e : decision.experts) {
                dst_hosts.push_back(placement.node(e));
                dst_gpus.push_back(placement.gpu(e));
            }
            auto dedup = [](std::vector<std::uint32_t> &v) {
                std::sort(v.begin(), v.end());
                v.erase(std::unique(v.begin(), v.end()), v.end());
            };
            dedup(dst_hosts);
            dedup(dst_gpus);
            if (masking) {
                // Deliveries to crashed expert hosts are lost; hosts
                // with no surviving delivery get no IB copy either.
                std::vector<std::uint32_t> live;
                for (std::uint32_t g : dst_gpus) {
                    if ((*dead)[g])
                        tc.droppedDeliveries += 1.0;
                    else
                        live.push_back(g);
                }
                dst_gpus = std::move(live);
                dst_hosts.clear();
                for (std::uint32_t g : dst_gpus)
                    dst_hosts.push_back(
                        (std::uint32_t)cluster.hostOf(g));
                dedup(dst_hosts);
            }
            tc.sumNodesTouched += (double)dst_hosts.size();
            tc.sumGpusTouched += (double)dst_gpus.size();
            tc.tokens += 1.0;
            for (std::uint32_t h : dst_hosts) {
                if (h != cluster.hostOf(src))
                    tc.interHostCopies[src][h] += 1.0;
            }
            for (std::uint32_t g : dst_gpus)
                tc.deliveries[src][g] += 1.0;
        }
    }
    return tc;
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
timePhase(const net::Cluster &cluster, const TrafficCounts &tc,
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
            double copies = tc.interHostCopies[src][h];
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
                double deliv = tc.deliveries[src][g];
                if (deliv <= 0.0 || g == relay)
                    continue;
                add(relay, g, deliv * bytes_per_token);
            }
        }
        // Intra-host deliveries go straight over NVLink.
        for (std::size_t g = src_host * per_host;
             g < (src_host + 1) * per_host; ++g) {
            double deliv = tc.deliveries[src][g];
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

EpResult
simulateDeepEp(const net::Cluster &cluster, const EpWorkload &w)
{
    return simulateDeepEp(cluster, w, EpFaultModel{});
}

EpResult
simulateDeepEp(const net::Cluster &cluster, const EpWorkload &w,
               const EpFaultModel &fm)
{
    DSV3_ASSERT(w.gate.experts % cluster.gpus.size() == 0,
                "experts must divide evenly over GPUs");
    if (fm.deadRanks && !fm.deadRanks->empty())
        DSV3_ASSERT(fm.deadRanks->size() == cluster.gpus.size());
    DSV3_TRACE_SPAN("ep.deepep.simulate", "tokens_per_gpu",
                    w.tokensPerGpu, "experts", w.gate.experts);
    TrafficCounts tc = routeAllTokens(cluster, w, fm.deadRanks);

    const double dispatch_bytes =
        (double)w.hidden *
        (w.dispatchBytesPerElem * (1.0 + w.dispatchScaleOverhead));
    const double combine_bytes =
        (double)w.hidden * w.combineBytesPerElem;

    PhaseResult dispatch = timePhase(cluster, tc, dispatch_bytes,
                                     /*reverse=*/false, fm);
    PhaseResult combine = timePhase(cluster, tc, combine_bytes,
                                    /*reverse=*/true, fm);

    EpResult out;
    out.dispatchSeconds = dispatch.seconds;
    out.combineSeconds = combine.seconds;
    out.dispatchRetrySeconds = dispatch.retrySeconds;
    out.combineRetrySeconds = combine.retrySeconds;
    out.droppedDeliveries = tc.droppedDeliveries;
    out.relayFallbacks = dispatch.relayFallbacks + combine.relayFallbacks;
    out.stalledTransfers = dispatch.stalled + combine.stalled;
    out.dispatchNicBytesPerGpu = dispatch.worstNicBytes;
    out.combineNicBytesPerGpu = combine.worstNicBytes;
    out.dispatchGBsPerGpu = dispatch.seconds > 0.0
        ? dispatch.worstNicBytes / dispatch.seconds : 0.0;
    out.combineGBsPerGpu = combine.seconds > 0.0
        ? combine.worstNicBytes / combine.seconds : 0.0;
    out.meanNodesTouched = tc.tokens > 0.0
        ? tc.sumNodesTouched / tc.tokens : 0.0;
    out.meanGpusTouched = tc.tokens > 0.0
        ? tc.sumGpusTouched / tc.tokens : 0.0;
    return out;
}

} // namespace dsv3::ep
