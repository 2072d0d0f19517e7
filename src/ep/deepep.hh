/**
 * @file
 * Flow-level model of DeepEP-style expert-parallel all-to-all
 * (dispatch and combine) over an H800 cluster.
 *
 * Token routing comes from the real gate (moe::TopKGate, optionally
 * node-limited). Traffic follows DeepEP's transport scheme:
 *
 *  - dispatch: for every destination host, a token crosses IB once
 *    (FP8 payload + per-128 scales), landing on the *same-plane* GPU
 *    of the destination host; NVLink then forwards the copy to the
 *    GPUs hosting the selected experts (traffic deduplication,
 *    Sec 4.3). Intra-host deliveries use NVLink directly.
 *  - combine: the reverse traffic in BF16.
 *
 * Both segments of a relayed transfer run concurrently in the fluid
 * model, matching the steady-state pipelining of the real kernels.
 *
 * Fault degradation (Sec 6.1): an optional EpFaultModel marks crashed
 * ranks and adds timeout/retry economics on degraded links. Dead
 * source ranks emit no tokens; deliveries to dead expert GPUs are
 * dropped (and counted); inter-host copies whose same-plane relay GPU
 * is dead fall back to a live sibling on another plane of the
 * destination host, which pushes the traffic cross-plane. Transfers
 * crossing links below full bandwidth pay a deterministic
 * exponential-backoff retry penalty per phase.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "moe/gate.hh"
#include "net/cluster.hh"

namespace dsv3::ep {

struct EpWorkload
{
    std::size_t tokensPerGpu = 4096; //!< Figure 7 uses 4096
    std::size_t hidden = 7168;
    moe::GateConfig gate;            //!< experts / topK / node limits
    double dispatchBytesPerElem = 1.0; //!< FP8
    double combineBytesPerElem = 2.0;  //!< BF16
    /** FP8 scale overhead: one float per 128 elements. */
    double dispatchScaleOverhead = 4.0 / 128.0;
    double popularitySkew = 0.3;     //!< token synthesis skew
    std::uint64_t seed = 42;
};

/** Fault state and timeout/retry knobs for a degraded round. */
struct EpFaultModel
{
    /** Per-rank crash mask (nullptr / empty: all ranks alive). Sized
     *  to cluster.gpus.size(); FaultInjector::deadRanks() plugs in. */
    const std::vector<bool> *deadRanks = nullptr;

    double timeoutSec = 2e-3;  //!< first retransmission timeout
    double backoff = 2.0;      //!< timeout multiplier per retry
    std::size_t maxRetries = 3;
    /** Transfers whose worst path link is below this fraction of its
     *  built bandwidth run the retry lottery. */
    double degradedThreshold = 0.99;
    std::uint64_t seed = 1234; //!< retry lottery stream
};

/**
 * Timeout/retry penalty for one transfer whose worst path link runs
 * at @p worst_factor of its built bandwidth: each attempt gets
 * through with probability worst_factor, each miss pays the current
 * timeout and doubles it (fm.backoff), capped at fm.maxRetries
 * attempts. The lottery draws from Rng(hashCombine(fm.seed, stream))
 * only, so the penalty is a pure function of (fm, worst_factor,
 * stream) -- the degraded-round phase cost and the serving
 * simulator's degraded-engine step cost share it.
 */
double degradedRetryPenalty(const EpFaultModel &fm,
                            double worst_factor,
                            std::uint64_t stream);

/** chooseRelayRank(): no live GPU on the destination host. */
constexpr std::size_t kNoRelay = (std::size_t)-1;

/**
 * Pick the rank that receives inter-host IB traffic for @p dst_host
 * from a sender whose NIC lives on @p src_plane. Prefers the
 * same-plane GPU (DeepEP's scheme); validates it exists on that host
 * (heterogeneous per-host GPU counts) and is alive, else falls back
 * to the nearest live plane on the destination host (cross-plane
 * relay). Returns kNoRelay when the host has no live GPU at all.
 */
std::size_t chooseRelayRank(const net::Cluster &cluster,
                            std::size_t dst_host,
                            std::size_t src_plane,
                            const std::vector<bool> *dead = nullptr);

struct EpResult
{
    double dispatchSeconds = 0.0;
    double combineSeconds = 0.0;
    /** Worst per-GPU NIC bytes sent during dispatch / rate achieved. */
    double dispatchNicBytesPerGpu = 0.0;
    double dispatchGBsPerGpu = 0.0;
    double combineNicBytesPerGpu = 0.0;
    double combineGBsPerGpu = 0.0;
    /** Mean distinct destination hosts per token (E[M]). */
    double meanNodesTouched = 0.0;
    /** Mean distinct destination GPUs per token. */
    double meanGpusTouched = 0.0;

    // Degradation accounting (zero on a healthy round):
    double dispatchRetrySeconds = 0.0; //!< included in dispatchSeconds
    double combineRetrySeconds = 0.0;  //!< included in combineSeconds
    /** Token deliveries lost because the expert's GPU is dead. */
    double droppedDeliveries = 0.0;
    /** Inter-host copies relayed through a different plane's GPU. */
    std::size_t relayFallbacks = 0;
    /** Aggregated transfers with no surviving route (partitioned). */
    std::size_t stalledTransfers = 0;
};

/**
 * Route ranks 0 .. @p ranks - 1 through w.gate: rank s draws
 * w.tokensPerGpu tokens from seed w.seed + s, and its tokensPerGpu x
 * topK experts fill the table from (s * tokensPerGpu * topK). Nothing
 * here depends on the cluster, so one table serves every cluster of
 * at most @p ranks GPUs. Ranks route in parallel.
 */
std::vector<std::uint32_t> routeTokens(const EpWorkload &workload,
                                       std::size_t ranks);

/**
 * Simulate one dispatch+combine round on @p cluster. The gate's
 * expert count must divide evenly over the cluster's GPUs. @p fault
 * marks dead ranks and sets the retry economics; the default model
 * is a healthy round.
 */
EpResult simulateDeepEp(const net::Cluster &cluster,
                        const EpWorkload &workload,
                        const EpFaultModel &fault = {});

/** The same round from a routeTokens() table of at least
 *  cluster.gpus.size() ranks. */
EpResult simulateDeepEp(const net::Cluster &cluster,
                        const EpWorkload &workload,
                        std::span<const std::uint32_t> routed,
                        const EpFaultModel &fault = {});

} // namespace dsv3::ep
