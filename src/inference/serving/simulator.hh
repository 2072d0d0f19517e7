/**
 * @file
 * Discrete-event inference-serving fleet simulator (ROADMAP item 1).
 *
 * Composes the repo's analytic serving models into an event loop
 * driven by live traffic, the way ASTRA-sim-style workload simulators
 * drive their compute/comm cost models:
 *
 *  - per-step decode latency comes from the decodeEstimate() roofline
 *    (weights + KV bytes vs batch/context) combined with the Sec 2.3.2
 *    epSpeedLimit() all-to-all floor, optionally interleaved as two
 *    micro-batches via dualMicroBatchOverlap() (Sec 2.3.1);
 *  - KV residency is managed by a paged KvPager priced with
 *    model::kvCacheBytesPerToken() (Table 1), with admission control
 *    and preemption-on-OOM (preempted sequences recompute);
 *  - prefill runs either on a disaggregated pool with a KV-handoff
 *    delay to the decode engines (the evaluateDisaggregation()
 *    deployment) or colocated as chunks interleaved between decode
 *    steps (TPOT inflation emerges from the event loop);
 *  - MTP speculative decode samples the mtpSimulate() acceptance
 *    chain per sequence per step (Sec 2.3.3).
 *
 * One simulation run is strictly serial and seed-deterministic; fleet
 * sweeps parallelize across scenarios via runSweepGrid(), so every
 * table built on this simulator is byte-identical at any thread
 * width. In the closed-loop, no-contention limit the simulated TPOT
 * and MTP speedup reproduce epSpeedLimit()/mtpAnalytic() (asserted by
 * tests to <1% on every fabric and acceptance rate bench_serving
 * tabulates).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ep/speed_limit.hh"
#include "inference/mtp.hh"
#include "model/config.hh"
#include "inference/serving/chaos.hh"
#include "inference/serving/traffic.hh"

namespace dsv3::obs {
class FlightRecorder;
class Timeline;
} // namespace dsv3::obs

namespace dsv3::inference::serving {

/** Decode-engine step schedule. */
enum class Schedule
{
    SEQUENTIAL,      //!< one batch; compute then comm, no overlap
    DUAL_MICROBATCH, //!< two interleaved micro-batches (Sec 2.3.1)
};

/** Where prefill runs relative to decode. */
enum class Deployment
{
    COLOCATED,     //!< prefill chunks interleave with decode steps
    DISAGGREGATED, //!< separate prefill pool + KV handoff delay
};

const char *scheduleName(Schedule schedule);
const char *deploymentName(Deployment deployment);

/**
 * Per-request lifecycle states for time-in-state attribution. At any
 * sim time between arrival and completion a request is in exactly one
 * state, so the per-state times of a completed request sum to its
 * total latency (tests pin this).
 *
 * STALLED collects rework- and contention-induced waiting: everything
 * a request waits for after it has been preempted (its recompute
 * prefill queue time included), plus time spent resident on an engine
 * that is not advancing it (e.g. interleaved prefill chunks).
 *
 * The last two states exist only under chaos (see chaos.hh):
 * RETRY_BACKOFF is the jittered wait between losing an engine and the
 * re-dispatch; FAILOVER is all queueing of a request after it has
 * failed over at least once (the post-failover analogue of STALLED).
 * Both are exactly 0 on every request of a fault-free run.
 */
enum class RequestState : int
{
    QUEUE_WAIT = 0,     //!< pre-preemption queueing (prefill + ready)
    PREFILL = 1,        //!< prefill actually executing
    KV_HANDOFF = 2,     //!< prefill->decode KV transfer (disaggregated)
    DECODE_COMPUTE = 3, //!< decode step, compute share
    DECODE_COMM = 4,    //!< decode step, EP all-to-all share
    STALLED = 5,        //!< post-preemption waits + resident idle
    FAILOVER = 6,       //!< post-failover queueing/recompute waits
    RETRY_BACKOFF = 7,  //!< capped-exponential wait before re-dispatch
};

constexpr std::size_t kNumRequestStates = 8;
/** States a fault-free run can enter (FAILOVER/RETRY_BACKOFF excluded). */
constexpr std::size_t kNumCoreRequestStates = 6;

const char *requestStateName(RequestState state);

/** Which resource the fleet is bound by, from summed state times. */
enum class Bottleneck
{
    QUEUE,   //!< queue wait + KV handoff dominate
    COMPUTE, //!< prefill + decode compute dominate
    COMM,    //!< decode all-to-all dominates
    KV,      //!< preemption/stall time dominates (KV pressure)
    FAULT,   //!< failover/retry-backoff time dominates (chaos)
};

const char *bottleneckName(Bottleneck bottleneck);

struct ServingFleetConfig
{
    model::ModelConfig modelConfig;

    // Decode-engine roofline inputs (decodeEstimate()).
    double memBytesPerSec = 3.35e12; //!< H800 HBM
    double computeFlopsPerSec = 0.0; //!< 0 = ignore compute roof
    double weightBytesPerParam = 1.0;
    std::size_t kvBytesPerElem = 2;

    // EP all-to-all floor (epSpeedLimit(); batchPerDevice and layers
    // are overridden per step from the live batch and model).
    ep::SpeedLimitParams comm;
    Schedule schedule = Schedule::DUAL_MICROBATCH;

    // Fleet shape.
    Deployment deployment = Deployment::DISAGGREGATED;
    std::size_t decodeEngines = 1;
    std::size_t maxBatchPerEngine = 64; //!< resident sequences cap

    // KV paging per engine; 0 budget = unlimited.
    double kvBudgetBytesPerEngine = 0.0;
    std::size_t kvBlockTokens = 64;

    // Prefill side (wire from a ServingWorkload for the Sec 2.3.1
    // deployment comparison).
    std::size_t prefillServers = 4;
    double prefillTokensPerSecPerServer = 12000.0;
    double kvHandoffSeconds = 0.05; //!< DISAGGREGATED only
    std::size_t prefillChunkTokens = 512; //!< COLOCATED interleave

    // MTP speculative decode.
    bool mtpEnabled = false;
    MtpConfig mtp;

    // Goodput accounting.
    double sloTtftSeconds = 4.0;
    double sloTpotSeconds = 0.05;
    double goodputWindowSeconds = 1.0;

    // Chaos: fault schedule, health-check/retry/failover policy, and
    // admission control (see chaos.hh). Default-constructed (empty
    // schedule, shed cap off) the simulator is byte-identical to a
    // fleet that never breaks.
    ServingChaosConfig chaos;

    // Observability hooks (both optional; see DESIGN.md "Sim-time
    // observability"). A simulation run is strictly serial, so a
    // non-owning Timeline/FlightRecorder is fed in deterministic
    // event order and its exports are byte-stable. Neither hook may
    // be shared across concurrently-running simulations.
    obs::Timeline *timeline = nullptr;
    obs::FlightRecorder *recorder = nullptr;
    double recorderIntervalSeconds = 0.05; //!< gauge sampling cadence
};

struct PercentileSummary
{
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Count, mean, max and exact p50/p95/p99 of @p values (all zero when
 * empty). The percentiles come from selectPercentiles(), so they
 * equal percentile() over a sorted copy bit for bit.
 */
PercentileSummary summarize(std::vector<double> values);

struct ServingMetrics
{
    std::size_t requestsCompleted = 0;
    std::size_t requestsRejected = 0; //!< context can never fit KV
    std::size_t decodeSteps = 0;
    std::size_t decodeTokens = 0;
    std::size_t preemptions = 0;
    double simSeconds = 0.0;

    // Chaos outcomes. The three terminal non-completion outcomes are
    // deliberately distinct: REJECTED (context can never fit),
    // SHED (admission control turned the arrival away), FAILED
    // (retry budget exhausted after repeated engine losses). All
    // three are excluded from the ttft/tpot percentile digests, which
    // cover completed requests only. STRANDED counts requests still
    // in flight when the event queue drained (e.g. waiting out a
    // never-repaired outage).
    std::size_t requestsShed = 0;
    std::size_t requestsFailed = 0;
    std::size_t requestsStranded = 0;
    std::size_t retries = 0;       //!< re-dispatches scheduled
    std::size_t failovers = 0;     //!< requests evicted by a death
    std::size_t engineDeaths = 0;  //!< engine-unreachable transitions
    double engineDowntimeSeconds = 0.0; //!< summed over engines
    /** Time-weighted mean live-engine fraction over [0, simSeconds];
     *  1.0 on a fault-free run. */
    double availability = 1.0;
    std::size_t minLiveEngines = 0; //!< low-water live-engine count

    PercentileSummary ttft;    //!< seconds, per completed request
    PercentileSummary tpot;    //!< seconds/token, per completed request
    PercentileSummary goodput; //!< tokens/s over fixed windows

    double tokensPerSecond = 0.0;        //!< decode tokens / simSeconds
    double sloGoodputTokensPerSecond = 0.0; //!< SLO-meeting requests only

    std::size_t kvTotalBlocks = 0;     //!< 0 when paging disabled
    std::size_t kvHighWaterBlocks = 0; //!< max over all engines

    // Time-in-state attribution over completed requests.
    // stateSeconds[s] sums state s across all completed requests, and
    // the entries sum to totalLatencySeconds (arrival ->
    // completion, summed); statePerRequest[s] summarizes the
    // per-request seconds in state s. Every field is exact: count,
    // mean (Welford) and max stream, the percentiles are selected
    // over the per-request column.
    double stateSeconds[kNumRequestStates] = {};
    double totalLatencySeconds = 0.0;
    PercentileSummary statePerRequest[kNumRequestStates];
    Bottleneck bottleneck = Bottleneck::COMPUTE;
};

/** decodeStepSeconds() split into its compute and comm shares. */
struct DecodeStepBreakdown
{
    double totalSeconds = 0.0;   //!< == decodeStepSeconds()
    double computeSeconds = 0.0; //!< totalSeconds - commSeconds
    double commSeconds = 0.0;    //!< EP all-to-all share of the step
};

/**
 * Time for every resident sequence of a decode engine to advance one
 * token, for @p batch sequences at mean context @p avgContextTokens.
 * Exposed so tests can pin the closed-loop convergence argument.
 * @p commBandwidthScale scales the engine's all-to-all bandwidth (a
 * degraded NIC link under chaos); 1.0 leaves the arithmetic
 * bit-identical to the healthy path.
 */
double decodeStepSeconds(const ServingFleetConfig &fleet,
                         std::size_t batch, double avgContextTokens,
                         double commBandwidthScale = 1.0);

/**
 * decodeStepSeconds() with its comm share exposed: the sequential
 * schedule serializes layers * commTimePerStage of all-to-all after
 * compute, the dual-microbatch schedule hides compute behind comm up
 * to the comm floor. totalSeconds is bit-identical to
 * decodeStepSeconds() (same arithmetic), and computeSeconds +
 * commSeconds == totalSeconds exactly, so attribution built on the
 * split preserves step-time sums.
 */
DecodeStepBreakdown decodeStepBreakdown(const ServingFleetConfig &fleet,
                                        std::size_t batch,
                                        double avgContextTokens,
                                        double commBandwidthScale = 1.0);

/**
 * Run the fleet against a traffic trace generated from
 * (traffic, seed). Serial and deterministic: identical inputs give
 * bit-identical metrics on every rerun and at every thread width.
 */
ServingMetrics simulateServing(const ServingFleetConfig &fleet,
                               const TrafficConfig &traffic,
                               std::uint64_t seed);

} // namespace dsv3::inference::serving
