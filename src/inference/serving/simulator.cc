#include "inference/serving/simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/winner_tree.hh"
#include "ep/deepep.hh"
#include "inference/overlap.hh"
#include "inference/roofline.hh"
#include "inference/serving/kv_pager.hh"
#include "model/kv_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"

namespace dsv3::inference::serving {

const char *
scheduleName(Schedule schedule)
{
    switch (schedule) {
      case Schedule::SEQUENTIAL: return "sequential";
      case Schedule::DUAL_MICROBATCH: return "dual-microbatch";
    }
    DSV3_PANIC("unknown schedule");
}

const char *
deploymentName(Deployment deployment)
{
    switch (deployment) {
      case Deployment::COLOCATED: return "colocated";
      case Deployment::DISAGGREGATED: return "disaggregated";
    }
    DSV3_PANIC("unknown deployment");
}

const char *
requestStateName(RequestState state)
{
    switch (state) {
      case RequestState::QUEUE_WAIT: return "queue.wait";
      case RequestState::PREFILL: return "prefill";
      case RequestState::KV_HANDOFF: return "kv.handoff";
      case RequestState::DECODE_COMPUTE: return "decode.compute";
      case RequestState::DECODE_COMM: return "decode.comm";
      case RequestState::STALLED: return "stalled";
      case RequestState::FAILOVER: return "failover";
      case RequestState::RETRY_BACKOFF: return "retry.backoff";
    }
    DSV3_PANIC("unknown request state");
}

const char *
bottleneckName(Bottleneck bottleneck)
{
    switch (bottleneck) {
      case Bottleneck::QUEUE: return "queue-bound";
      case Bottleneck::COMPUTE: return "compute-bound";
      case Bottleneck::COMM: return "comm-bound";
      case Bottleneck::KV: return "kv-bound";
      case Bottleneck::FAULT: return "fault-bound";
    }
    DSV3_PANIC("unknown bottleneck");
}

DecodeStepBreakdown
decodeStepBreakdown(const ServingFleetConfig &fleet, std::size_t batch,
                    double avgContextTokens,
                    double commBandwidthScale)
{
    DSV3_ASSERT(batch >= 1);
    DSV3_ASSERT(commBandwidthScale > 0.0);
    const std::size_t layers =
        std::max<std::size_t>(fleet.modelConfig.layers, 1);

    DecodeScenario ds;
    ds.modelConfig = fleet.modelConfig;
    ds.memBytesPerSec = fleet.memBytesPerSec;
    ds.computeFlopsPerSec = fleet.computeFlopsPerSec;
    ds.weightBytesPerParam = fleet.weightBytesPerParam;
    ds.kvBytesPerElem = fleet.kvBytesPerElem;
    ds.context = (std::size_t)std::llround(
        std::max(avgContextTokens, 1.0));

    ep::SpeedLimitParams sp = fleet.comm;
    sp.layers = layers;
    // Guarded so the healthy path's arithmetic stays bit-identical.
    if (commBandwidthScale != 1.0)
        sp.bandwidthBytesPerSec *= commBandwidthScale;

    DecodeStepBreakdown bd;
    if (fleet.schedule == Schedule::SEQUENTIAL) {
        // One batch: every layer's compute then its dispatch+combine
        // pass serialize, so the comm share is the full all-to-all
        // time and the split is exact by construction.
        ds.batch = batch;
        DecodeEstimate est = decodeEstimate(ds);
        sp.batchPerDevice = batch;
        ep::SpeedLimit sl = ep::epSpeedLimit(sp);
        bd.commSeconds = (double)layers * sl.commTimePerStage;
        bd.totalSeconds = est.secondsPerStep + bd.commSeconds;
        bd.computeSeconds = bd.totalSeconds - bd.commSeconds;
        return bd;
    }

    // Dual micro-batch: split the batch in two; while one half
    // computes the other communicates. The full step (both halves
    // advance one token) takes 2 * layers * the per-micro-batch
    // steady-state layer time, which in the comm-bound limit is
    // exactly epSpeedLimit()'s layers * 2 * commTimePerStage.
    const std::size_t half = (batch + 1) / 2;
    ds.batch = half;
    DecodeEstimate est = decodeEstimate(ds);
    sp.batchPerDevice = half;
    ep::SpeedLimit sl = ep::epSpeedLimit(sp);

    LayerStageTimes st;
    st.mlaCompute = 0.5 * est.secondsPerStep / (double)layers;
    st.moeCompute = st.mlaCompute;
    const double total_bytes = sp.dispatchBytes + sp.combineBytes;
    st.dispatchComm = total_bytes > 0.0
        ? sl.commTimePerStage * sp.dispatchBytes / total_bytes
        : 0.0;
    st.combineComm = sl.commTimePerStage - st.dispatchComm;
    OverlapResult ov = dualMicroBatchOverlap(st);
    bd.totalSeconds = 2.0 * (double)layers * ov.overlappedLayerTime;
    // Overlap hides compute behind comm (and vice versa); the
    // unhidden all-to-all floor is the comm share, capped at the
    // total so the compute share never goes negative.
    bd.commSeconds = std::min(
        bd.totalSeconds, 2.0 * (double)layers * sl.commTimePerStage);
    bd.computeSeconds = bd.totalSeconds - bd.commSeconds;
    return bd;
}

double
decodeStepSeconds(const ServingFleetConfig &fleet, std::size_t batch,
                  double avgContextTokens, double commBandwidthScale)
{
    return decodeStepBreakdown(fleet, batch, avgContextTokens,
                               commBandwidthScale)
        .totalSeconds;
}

namespace {

/** Exact p50/p95/p99 of @p values into @p s; reorders @p values. */
void
setPercentiles(PercentileSummary &s, std::vector<double> &values)
{
    static const std::vector<double> kPs{50.0, 95.0, 99.0};
    double q[3];
    selectPercentiles(values, kPs, q);
    s.p50 = q[0];
    s.p95 = q[1];
    s.p99 = q[2];
}

} // namespace

PercentileSummary
summarize(std::vector<double> values)
{
    PercentileSummary s;
    s.count = values.size();
    if (values.empty())
        return s;
    s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
             (double)values.size();
    s.max = *std::max_element(values.begin(), values.end());
    setPercentiles(s, values);
    return s;
}

namespace {

constexpr std::size_t kNone = (std::size_t)-1;

enum class EventKind : int
{
    ARRIVAL = 0,
    PREFILL_DONE = 1,
    HANDOFF_DONE = 2,
    ENGINE_DONE = 3,
    ENGINE_KICK = 4,
    // Chaos events share the same event heap (empty schedule: none of
    // these are ever pushed and the loop is the fault-free loop).
    CHAOS = 5,          //!< apply FaultSchedule event [id]
    PROBE = 6,          //!< dispatcher health-check tick
    RETRY_DISPATCH = 7, //!< request id's backoff elapsed; re-dispatch
    RECOVERY_DONE = 8,  //!< engine id finished its recovery warmup
};

/** Event order: time, then the push sequence, so events at one
 *  instant pop FIFO. Every event gets a distinct `order`, which makes
 *  the pop sequence a pure function of the pushes. */
struct EventKey
{
    double time;
    std::uint64_t order;

    bool
    operator<(const EventKey &o) const
    {
        if (time != o.time)
            return time < o.time;
        return order < o.order;
    }
};

/** One entry of the event heap, packed to 32 bytes. */
struct Event
{
    EventKey key;
    std::uint32_t id;   //!< request id or engine index
    std::uint32_t kind; //!< EventKind
    std::uint64_t tag;  //!< engine epoch; voids stale ENGINE_DONE /
                        //!< RECOVERY_DONE after a death
};

/** Heap comparator: the least key on top. */
struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return b.key < a.key;
    }
};

enum class EngineWork
{
    IDLE,
    STEP,
    PREFILL_CHUNK,
};

struct PrefillJob
{
    std::size_t id = 0;
    std::size_t tokensLeft = 0;
};

struct Engine
{
    std::vector<std::size_t> resident; //!< admission order (oldest first)
    std::deque<std::size_t> ready;
    std::deque<PrefillJob> prefillQ; //!< COLOCATED only
    KvPager pager;
    EngineWork work = EngineWork::IDLE;
    bool lastWasPrefill = false;
    bool kickPending = false; //!< a same-instant ENGINE_KICK is queued
    std::size_t ctxSum = 0;   //!< sum of ctxTokens over resident
    std::size_t chunkInFlight = 0; //!< tokens of the running chunk
    double workStart = 0.0;        //!< start of the running step/chunk
    double stepCommFrac = 0.0;     //!< comm share of the running step

    // Chaos: actual component state (changes at fault instants) vs
    // the dispatcher-observed health (changes at probe ticks).
    bool actualUp = true;     //!< rank alive (RANK_DOWN/UP)
    bool linkDown = false;    //!< uplink hard-failed (LINK_DOWN/UP)
    bool reachable = true;    //!< actualUp && !linkDown
    double linkFactor = 1.0;  //!< uplink bandwidth fraction
    EngineHealth observed = EngineHealth::HEALTHY;
    std::uint64_t epoch = 0;  //!< bumped per death; voids in-flight

    explicit Engine(const KvPagerConfig &kv) : pager(kv) {}

    std::size_t
    load() const
    {
        return resident.size() + ready.size() + prefillQ.size();
    }
};

/**
 * Parked next engine event (ENGINE_DONE or ENGINE_KICK). An engine
 * has at most one of either live at a time (see slotPush()), so the
 * steady-state decode loop never touches the event heap: the
 * dispatcher compares the earliest slot's (time, order) against the
 * heap top instead. The (time, order) keys and liveness live in
 * a winner tree over the engines (Simulation::slotIndex_), which
 * names the earliest live slot without a scan. A voided ENGINE_DONE
 * (stale tag after a death) stays parked and still pops as the no-op
 * the seed's loop popped, preserving recorder sampling.
 */
struct EngineSlot
{
    std::uint64_t tag = 0;
    std::uint32_t kind = 0;
};

struct ReqState
{
    Request req;
    double firstTokenTime = -1.0;
    std::size_t decodeDone = 0;
    std::size_t decodeNeeded = 0;
    double completion = -1.0;
    /** Terminal without completing: REJECTED, SHED or FAILED. */
    bool dropped = false;

    // Time-in-state attribution: the current state, when it was
    // entered, and the accumulated seconds per state. The six
    // accumulators of a completed request sum to its total latency.
    RequestState state = RequestState::QUEUE_WAIT;
    double stateSince = 0.0;
    double stateSeconds[kNumRequestStates] = {};
    bool everPreempted = false;

    // Chaos state (all false / 0 on a fault-free run).
    bool everFailedOver = false;  //!< lost an engine at least once
    bool outstanding = false;     //!< counted toward the shed cap
    std::size_t attempts = 0;     //!< failovers consumed so far
};
// The commit loop walks ReqStates in resident order, and growing one
// past 160 bytes slowed it (DESIGN.md "Hot-loop containers").
static_assert(sizeof(ReqState) <= 160, "keep ReqState within 160 bytes");

/** Uniform [0, 1) from a hash key (no shared RNG state, so chaos
 *  jitter draws cannot perturb the MTP/trace streams). */
double
hash01(std::uint64_t key)
{
    return (double)(hashU64(key) >> 11) * 0x1.0p-53;
}

/** A finished decode step [start, end) and its compute/comm shares,
 *  computed as seg * frac and seg - seg * frac so the two sum to the
 *  step exactly. */
struct StepSpan
{
    double start;
    double end;
    double comp;
    double comm;
};

/** Credit a finished step to @p st: its current state up to the step
 *  start, then the compute and comm shares; it leaves STALLED at the
 *  step end. */
void
creditStep(ReqState &st, const StepSpan &span)
{
    st.stateSeconds[(int)st.state] += span.start - st.stateSince;
    st.stateSeconds[(int)RequestState::DECODE_COMPUTE] += span.comp;
    st.stateSeconds[(int)RequestState::DECODE_COMM] += span.comm;
    st.state = RequestState::STALLED;
    st.stateSince = span.end;
}

/** Timeline flow arrows a request can have pending, one of each. */
enum FlowKind : std::size_t
{
    PREEMPT_FLOW,
    HANDOFF_FLOW,
    RETRY_FLOW,
    kFlowKinds,
};

constexpr const char *kFlowNames[kFlowKinds] = {
    "preempt.recompute", "kv.handoff", "failover.recompute"};

/**
 * Reject malformed configs up front with a clear message instead of
 * undefined simulator behavior (division by a non-positive rate,
 * zero-block pagers, empty fleets, ...).
 */
void
validateConfig(const ServingFleetConfig &fleet,
               const TrafficConfig &traffic)
{
    DSV3_ASSERT(fleet.decodeEngines >= 1,
                "ServingFleetConfig: decodeEngines must be >= 1, got ",
                fleet.decodeEngines);
    DSV3_ASSERT(fleet.maxBatchPerEngine >= 1,
                "ServingFleetConfig: maxBatchPerEngine must be >= 1");
    DSV3_ASSERT(fleet.kvBlockTokens >= 1,
                "ServingFleetConfig: kvBlockTokens must be >= 1 "
                "(zero-token KV blocks hold nothing)");
    DSV3_ASSERT(fleet.kvBudgetBytesPerEngine >= 0.0,
                "ServingFleetConfig: kvBudgetBytesPerEngine must be "
                ">= 0, got ", fleet.kvBudgetBytesPerEngine);
    DSV3_ASSERT(fleet.memBytesPerSec > 0.0,
                "ServingFleetConfig: memBytesPerSec must be > 0");
    DSV3_ASSERT(fleet.comm.bandwidthBytesPerSec > 0.0,
                "ServingFleetConfig: comm.bandwidthBytesPerSec must "
                "be > 0");
    DSV3_ASSERT(fleet.prefillServers >= 1,
                "ServingFleetConfig: prefillServers must be >= 1");
    DSV3_ASSERT(fleet.prefillTokensPerSecPerServer > 0.0,
                "ServingFleetConfig: prefillTokensPerSecPerServer "
                "must be > 0, got ",
                fleet.prefillTokensPerSecPerServer);
    DSV3_ASSERT(fleet.prefillChunkTokens >= 1,
                "ServingFleetConfig: prefillChunkTokens must be >= 1");
    DSV3_ASSERT(fleet.kvHandoffSeconds >= 0.0,
                "ServingFleetConfig: kvHandoffSeconds must be >= 0");

    DSV3_ASSERT(traffic.requests >= 1,
                "TrafficConfig: requests must be >= 1");
    DSV3_ASSERT(traffic.promptTokensMin <= traffic.promptTokensMax,
                "TrafficConfig: promptTokensMin must be <= "
                "promptTokensMax");
    DSV3_ASSERT(traffic.genTokensMin <= traffic.genTokensMax,
                "TrafficConfig: genTokensMin must be <= genTokensMax");
    if (traffic.process == ArrivalProcess::CLOSED_LOOP) {
        DSV3_ASSERT(traffic.closedLoopConcurrency >= 1,
                    "TrafficConfig: closedLoopConcurrency must be "
                    ">= 1 for CLOSED_LOOP traffic");
    } else {
        DSV3_ASSERT(traffic.requestsPerSecond > 0.0,
                    "TrafficConfig: requestsPerSecond must be > 0 "
                    "for open-loop traffic, got ",
                    traffic.requestsPerSecond);
    }

    const ServingChaosConfig &chaos = fleet.chaos;
    if (chaos.enabled()) {
        DSV3_ASSERT(chaos.probeIntervalSeconds > 0.0,
                    "ServingChaosConfig: probeIntervalSeconds must "
                    "be > 0, got ", chaos.probeIntervalSeconds);
        DSV3_ASSERT(chaos.retryBudget >= 1,
                    "ServingChaosConfig: retryBudget must be >= 1");
        DSV3_ASSERT(chaos.backoffBaseSeconds >= 0.0,
                    "ServingChaosConfig: backoffBaseSeconds must be "
                    ">= 0");
        DSV3_ASSERT(chaos.backoffMultiplier >= 1.0,
                    "ServingChaosConfig: backoffMultiplier must be "
                    ">= 1");
        DSV3_ASSERT(chaos.backoffMaxSeconds >=
                        chaos.backoffBaseSeconds,
                    "ServingChaosConfig: backoffMaxSeconds must be "
                    ">= backoffBaseSeconds");
        DSV3_ASSERT(chaos.backoffJitter >= 0.0 &&
                        chaos.backoffJitter <= 1.0,
                    "ServingChaosConfig: backoffJitter must be in "
                    "[0, 1]");
        DSV3_ASSERT(chaos.recoverySeconds >= 0.0,
                    "ServingChaosConfig: recoverySeconds must be "
                    ">= 0");
        DSV3_ASSERT(chaos.drainBelowFactor >= 0.0 &&
                        chaos.drainBelowFactor <= 1.0,
                    "ServingChaosConfig: drainBelowFactor must be "
                    "in [0, 1]");
    }
}

// Timeline track layout: one "process" per concern so Perfetto groups
// the rows. Request tracks exist only for sampled requests.
constexpr std::uint32_t kFleetPid = 1;   //!< prefill pool + engines
constexpr std::uint32_t kRequestPid = 2; //!< one tid per request
constexpr std::uint32_t kGaugePid = 3;   //!< flight-recorder counters

class Simulation
{
  public:
    Simulation(const ServingFleetConfig &fleet,
               const TrafficConfig &traffic, std::uint64_t seed)
        : fleet_(fleet), timeline_(fleet.timeline),
          recorder_(fleet.recorder),
          rng_(hashCombine(hashU64(seed), 0x5e71f9u)),
          chaosSeed_(hashCombine(hashU64(seed), 0xc4a05u))
    {
        validateConfig(fleet, traffic);
        chaosEnabled_ = fleet.chaos.enabled();

        // Kill switch for the step-cost memo (a hit returns the exact
        // value a miss would compute, so this only trades speed; the
        // serving goldens' step_cache_off variants and the
        // StepCacheKillSwitch tests hold the results bitwise equal).
        const char *cache_env = std::getenv("DSV3_STEP_CACHE");
        stepCacheOn_ =
            !(cache_env && cache_env[0] == '0' && cache_env[1] == '\0');
        if (stepCacheOn_)
            stepCache_.assign(kStepCacheInitSlots, StepSlot{});

        KvPagerConfig kv;
        kv.budgetBytes = fleet.kvBudgetBytesPerEngine;
        kv.blockTokens = fleet.kvBlockTokens;
        kv.bytesPerToken = model::kvCacheBytesPerToken(
            fleet.modelConfig, fleet.kvBytesPerElem);
        engines_.assign(fleet.decodeEngines, Engine(kv));
        slots_.assign(fleet.decodeEngines, EngineSlot{});
        slotIndex_.reset(fleet.decodeEngines);
        dispatch_.reset(fleet.decodeEngines);
        for (std::size_t e = 0; e < engines_.size(); ++e)
            reindex(e);

        Rng trace_rng(hashCombine(hashU64(seed), 0x7a44ffu));
        std::vector<Request> trace =
            generateTrace(traffic, trace_rng);
        reqs_.reserve(trace.size());
        for (const Request &r : trace) {
            ReqState st;
            st.req = r;
            st.decodeNeeded = r.genTokens > 0 ? r.genTokens - 1 : 0;
            reqs_.push_back(st);
        }
        kvBlocks_.assign(reqs_.size(), 0);
        closedLoop_ = traffic.process == ArrivalProcess::CLOSED_LOOP;
        nextPending_ = reqs_.size();
        if (closedLoop_) {
            nextPending_ =
                std::min(traffic.closedLoopConcurrency, reqs_.size());
        }
        for (std::size_t i = 0; i < reqs_.size(); ++i) {
            if (std::isfinite(reqs_[i].req.arrivalSeconds))
                push(reqs_[i].req.arrivalSeconds, EventKind::ARRIVAL,
                     i);
        }

        liveNow_ = engines_.size();
        minLive_ = engines_.size();
        const auto &evs = fleet.chaos.schedule.events();
        for (std::size_t i = 0; i < evs.size(); ++i)
            push(evs[i].time, EventKind::CHAOS, i);

        windowTokens_.reserve(1024);
        if (timeline_) {
            // Per-request flow bookkeeping exists only when a timeline
            // consumer does; the hot loop never touches it otherwise.
            trackNamed_.assign(reqs_.size(), false);
            for (std::vector<std::uint64_t> &flows : pendingFlow_)
                flows.assign(reqs_.size(), 0);
            timeline_->setProcessName(kFleetPid, "fleet");
            timeline_->setThreadName(kFleetPid, 0, "prefill pool");
            for (std::size_t e = 0; e < engines_.size(); ++e) {
                timeline_->setThreadName(
                    kFleetPid, (std::uint32_t)(1 + e),
                    "engine " + std::to_string(e));
            }
            timeline_->setProcessName(kRequestPid, "requests");
            timeline_->setProcessName(kGaugePid, "gauges");
        }
    }

    ServingMetrics
    run()
    {
        // Once every request is terminal only chaos machinery (fault
        // replay, probes, recoveries) or same-instant kicks of idle
        // engines can remain; draining a multi-hour fault schedule
        // after the last request would pad deaths/downtime far past
        // the span the availability integral measures. The count
        // lives in a local: re-read per event it slowed batch-1 runs.
        const std::size_t requests = reqs_.size();
        while (completed_ + rejected_ + sheds_ + failed_ < requests) {
            // Next event: minimum (time, order) over the parked
            // per-engine slots (the top of slotIndex_) and the heap
            // top. Slots and heap entries are stamped from one order_
            // counter, so this comparison reproduces the
            // single-queue pop order bit-for-bit — including voided
            // slots, which pop as the same time-advancing no-ops the
            // seed loop popped.
            const std::size_t eng = slotIndex_.top();
#ifndef NDEBUG
            std::size_t scan = kNone;
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                if (slotIndex_.active(i) &&
                    (scan == kNone ||
                     slotIndex_.key(i) < slotIndex_.key(scan)))
                    scan = i;
            }
            DSV3_ASSERT(scan == eng,
                        "slot index disagrees with a scan of the slots");
#endif
            Event ev;
            if (eng != kNone && (events_.empty() ||
                                 slotIndex_.key(eng) < events_.top().key)) {
                ev = Event{slotIndex_.key(eng), (std::uint32_t)eng,
                           slots_[eng].kind, slots_[eng].tag};
                slotIndex_.clear(eng);
            } else if (!events_.empty()) {
                ev = events_.top();
                events_.pop();
            } else {
                break;
            }
            const double now = ev.key.time;
            sampleRecorderUpTo(now);
            switch ((EventKind)ev.kind) {
              case EventKind::ARRIVAL:
                routeArrival(ev.id, now);
                break;
              case EventKind::PREFILL_DONE:
                onPrefillDone(ev.id, now);
                break;
              case EventKind::HANDOFF_DONE:
                onHandoffDone(ev.id, now);
                break;
              case EventKind::ENGINE_DONE:
                // A death bumped the epoch: the work this announces
                // never finished.
                if (ev.tag == engines_[ev.id].epoch)
                    onEngineDone(ev.id, now);
                break;
              case EventKind::ENGINE_KICK:
                engines_[ev.id].kickPending = false;
                tryStartWork(ev.id, now);
                break;
              case EventKind::CHAOS:
                applyChaos(ev.id, now);
                break;
              case EventKind::PROBE:
                onProbe(now);
                break;
              case EventKind::RETRY_DISPATCH:
                onRetryDispatch(ev.id, now);
                break;
              case EventKind::RECOVERY_DONE:
                if (ev.tag == engines_[ev.id].epoch)
                    onRecoveryDone(ev.id, now);
                break;
            }
        }
        if (timeline_ && recorder_)
            recorder_->exportCounters(*timeline_, kGaugePid);
        // Registered (and therefore present in the stats snapshot)
        // only when a cascade actually happened, exactly like the
        // seed's per-cascade add.
        if (!preemptDepths_.empty()) {
            static obs::Distribution &d_depth =
                obs::Registry::global().distribution(
                    "inference.serving.preempt_depth", 0.0, 32.0, 16);
            for (double depth : preemptDepths_)
                d_depth.add(depth);
        }
        return collect();
    }

    /** One-shot flush of the step-cost memo counts (plain members;
     *  the hot loop never touches an atomic). */
    void
    flushCacheStats(obs::Counter &hits, obs::Counter &misses,
                    obs::Counter &entries)
    {
        hits.inc(cacheHits_);
        misses.inc(cacheMisses_);
        entries.inc(cacheEntries_);
    }

  private:
    // Event plumbing ---------------------------------------------------

    void
    push(double time, EventKind kind, std::size_t id,
         std::uint64_t tag = 0)
    {
        events_.push(Event{{time, order_++}, (std::uint32_t)id,
                           (std::uint32_t)kind, tag});
    }

    /**
     * Park an engine event (ENGINE_DONE or ENGINE_KICK) in the
     * engine's slot instead of the heap; the run() loop treats the
     * slot as a pop candidate with the order stamp a push would have
     * gotten. At most one such event is live per engine: a live
     * ENGINE_DONE implies the engine is working, so kick() generates
     * nothing, and work only starts from a kick pop, which frees the
     * slot first. The only possible occupant is a voided ENGINE_DONE
     * (death bumped the epoch while the done was parked); it must
     * still pop as a time-advancing no-op, so the new event spills to
     * the heap instead of overwriting it.
     */
    void
    slotPush(std::size_t eng, double time, EventKind kind,
             std::uint64_t tag = 0)
    {
        EngineSlot &s = slots_[eng];
        if (slotIndex_.active(eng)) {
            DSV3_DEBUG_ASSERT(
                (EventKind)s.kind == EventKind::ENGINE_DONE &&
                    s.tag != engines_[eng].epoch,
                "engine event slot occupied by a live event");
            push(time, kind, eng, tag);
            return;
        }
        s.tag = tag;
        s.kind = (std::uint32_t)kind;
        slotIndex_.set(eng, {time, order_++});
    }

    // Step-cost memoization --------------------------------------------

    /**
     * decodeStepBreakdown() is a pure function of (batch,
     * llround(max(avgContextTokens, 1)), commBandwidthScale) for a
     * fixed fleet — and the fleet (including the schedule) is fixed
     * for the lifetime of a Simulation. The memo stores the exact
     * DecodeStepBreakdown a miss computed, so a hit is bit-identical
     * to recomputing by construction.
     *
     * Direct-mapped on purpose: a decoding batch's mean context walks
     * forward ~+1 token per step, so stale keys rarely re-hit;
     * overwrite-on-collision keeps the recent keys that can. The key
     * packs (batch << 40) | ctx — batch >= 1 means a real key is
     * never 0, so 0 is the empty sentinel — and out-of-range inputs
     * bypass the cache entirely.
     */
    DecodeStepBreakdown
    stepCost(std::size_t batch, double avgContextTokens, double scale)
    {
        const long long ctx =
            std::llround(std::max(avgContextTokens, 1.0));
        if (!stepCacheOn_ || batch >= (std::size_t(1) << 24) ||
            ctx >= (1ll << 40)) {
            ++cacheMisses_;
            return decodeStepBreakdown(fleet_, batch,
                                       avgContextTokens, scale);
        }
        if (cacheEntries_ * 2 > stepCache_.size() &&
            stepCache_.size() < kStepCacheMaxSlots)
            growStepCache();
        const std::uint64_t key =
            ((std::uint64_t)batch << 40) | (std::uint64_t)ctx;
        std::uint64_t scale_bits;
        std::memcpy(&scale_bits, &scale, sizeof scale_bits);
        StepSlot &slot =
            stepCache_[hashCombine(hashU64(key), scale_bits) &
                       (stepCache_.size() - 1)];
        if (slot.key == key && slot.scaleBits == scale_bits) {
            ++cacheHits_;
            return slot.bd;
        }
        ++cacheMisses_;
        if (slot.key == 0)
            ++cacheEntries_;
        slot.key = key;
        slot.scaleBits = scale_bits;
        slot.bd = decodeStepBreakdown(fleet_, batch, avgContextTokens,
                                      scale);
        return slot.bd;
    }

    void
    growStepCache()
    {
        std::vector<StepSlot> old = std::move(stepCache_);
        stepCache_.assign(old.size() * 2, StepSlot{});
        cacheEntries_ = 0;
        for (const StepSlot &s : old) {
            if (s.key == 0)
                continue;
            StepSlot &slot =
                stepCache_[hashCombine(hashU64(s.key), s.scaleBits) &
                           (stepCache_.size() - 1)];
            if (slot.key == 0)
                ++cacheEntries_;
            slot = s;
        }
    }

    /** Least-loaded engine accepting new placements (lowest index on
     *  ties), or kNone when the whole fleet is
     *  dead/draining/recovering. On a fault-free run every engine is
     *  admitting, reproducing the original min-load choice exactly. */
    std::size_t
    chooseEngine() const
    {
#ifndef NDEBUG
        std::size_t scan = kNone;
        for (std::size_t e = 0; e < engines_.size(); ++e) {
            if (!admitting(engines_[e]))
                continue;
            if (scan == kNone ||
                engines_[e].load() < engines_[scan].load())
                scan = e;
        }
        DSV3_ASSERT(scan == dispatch_.top(),
                    "dispatch index disagrees with a scan of the "
                    "engines");
#endif
        return dispatch_.top();
    }

    /**
     * Refresh @p eng's dispatch-index entry. Called wherever its
     * load() or admitting() can change: ready / prefillQ pushes and
     * pops, the resident truncate after a commit (not complete():
     * until the truncate, load() still counts the finished residents,
     * and colocated routing inside commitStep must see that value),
     * the failover clears, reachability and every write to observed.
     * An admit() that moves a ready sequence into resident leaves
     * load() unchanged and needs none.
     */
    void
    reindex(std::size_t eng)
    {
        const Engine &e = engines_[eng];
        if (admitting(e))
            dispatch_.set(eng, e.load());
        else
            dispatch_.clear(eng);
    }

    std::size_t
    ctxTokens(const ReqState &st) const
    {
        // Prompt, the prefill-produced first token, and every decode
        // token so far all hold KV slots.
        return st.req.promptTokens + 1 + st.decodeDone;
    }

    std::size_t
    maxCtxTokens(const ReqState &st) const
    {
        return st.req.promptTokens + st.req.genTokens;
    }

    // Attribution / observability --------------------------------------

    bool
    reqSampled(std::size_t id) const
    {
        return timeline_ && timeline_->sampled(id);
    }

    void
    nameRequestTrack(std::size_t id)
    {
        if (trackNamed_[id])
            return;
        trackNamed_[id] = true;
        timeline_->setThreadName(kRequestPid, (std::uint32_t)id,
                                 "req " + std::to_string(id));
    }

    /** Instant marker @p name on @p id's track (sampled requests
     *  only); @p arg, when given, is a JSON member prefix such as
     *  "\"engine\":" that @p value completes. */
    void
    markRequest(std::size_t id, const char *name, double t,
                const char *arg = nullptr, std::size_t value = 0)
    {
        if (!reqSampled(id))
            return;
        nameRequestTrack(id);
        timeline_->instant(kRequestPid, (std::uint32_t)id, name, t,
                           arg ? arg + std::to_string(value)
                               : std::string());
    }

    /** Start @p id's @p kind flow arrow (sampled requests only). */
    void
    startFlow(FlowKind kind, std::size_t id, double t)
    {
        if (!reqSampled(id))
            return;
        pendingFlow_[kind][id] = ++flowSeq_;
        timeline_->flowStart(kRequestPid, (std::uint32_t)id,
                             kFlowNames[kind], flowSeq_, t);
    }

    /** Land @p id's pending @p kind flow arrow, if one was started. */
    void
    finishFlow(FlowKind kind, std::size_t id, double t)
    {
        if (!timeline_ || pendingFlow_[kind][id] == 0)
            return;
        timeline_->flowFinish(kRequestPid, (std::uint32_t)id,
                              kFlowNames[kind], pendingFlow_[kind][id],
                              t);
        pendingFlow_[kind][id] = 0;
    }

    /** Credit [from, to) to @p state (and emit its timeline slice). */
    void
    accrue(std::size_t id, RequestState state, double from, double to)
    {
        reqs_[id].stateSeconds[(int)state] += to - from;
        if (to > from && reqSampled(id)) {
            nameRequestTrack(id);
            timeline_->duration(kRequestPid, (std::uint32_t)id,
                                requestStateName(state), from, to);
        }
    }

    /** Flush the current state up to @p t, then enter @p next. */
    void
    setState(std::size_t id, RequestState next, double t)
    {
        ReqState &st = reqs_[id];
        accrue(id, st.state, st.stateSince, t);
        st.state = next;
        st.stateSince = t;
    }

    /** Queueing counts as rework once preempted (STALLED) or failed
     *  over (FAILOVER; takes precedence -- losing an engine is the
     *  rarer, more interesting signal). */
    RequestState
    waitState(const ReqState &st) const
    {
        if (st.everFailedOver)
            return RequestState::FAILOVER;
        return st.everPreempted ? RequestState::STALLED
                                : RequestState::QUEUE_WAIT;
    }

    // Chaos: health machine, failover, retry ---------------------------

    /** Accepts new placements (arrivals, handoffs, retries). */
    bool
    admitting(const Engine &e) const
    {
        return e.reachable &&
               (e.observed == EngineHealth::HEALTHY ||
                e.observed == EngineHealth::DEGRADED);
    }

    /** May run steps/chunks: up, and not known-dead or warming up.
     *  DRAINING engines keep stepping what they hold. */
    bool
    operational(const Engine &e) const
    {
        return e.reachable && e.observed != EngineHealth::DEAD &&
               e.observed != EngineHealth::RECOVERING;
    }

    void
    chaosInstant(std::size_t eng, const char *name, double t)
    {
        if (timeline_) {
            timeline_->instant(kFleetPid, (std::uint32_t)(1 + eng),
                               name, t);
        }
    }

    void
    applyChaos(std::size_t idx, double t)
    {
        const fault::FaultEvent &ev =
            fleet_.chaos.schedule.events()[idx];
        // Rank r is engine r, and link r's source endpoint is too.
        std::size_t eng;
        switch (ev.kind) {
          case fault::FaultKind::RANK_DOWN:
          case fault::FaultKind::RANK_UP:
            eng = ev.rank;
            break;
          case fault::FaultKind::LINK_DOWN:
          case fault::FaultKind::LINK_UP:
          case fault::FaultKind::LINK_DEGRADED:
            eng = ev.nodeA;
            break;
          default:
            DSV3_WARN_ONCE("serving chaos ignores fabric-level "
                           "fault kind ",
                           fault::faultKindName(ev.kind));
            return;
        }
        if (eng >= engines_.size()) {
            DSV3_WARN_ONCE("serving chaos: ",
                           fault::faultKindName(ev.kind), " on engine ",
                           eng, " outside the fleet; ignoring");
            return;
        }
        Engine &e = engines_[eng];
        if (ev.kind == fault::FaultKind::LINK_DEGRADED) {
            e.linkFactor = ev.factor;
            chaosInstant(eng,
                         ev.factor < 1.0 ? "fault.link_degraded"
                                         : "fault.link_repaired",
                         t);
            ensureProbe(t);
            return;
        }
        if (ev.kind == fault::FaultKind::RANK_DOWN ||
            ev.kind == fault::FaultKind::RANK_UP)
            e.actualUp = ev.kind == fault::FaultKind::RANK_UP;
        else
            e.linkDown = ev.kind == fault::FaultKind::LINK_DOWN;
        updateReachable(eng, t);
    }

    /** Recompute reachability after a rank/link transition; on loss,
     *  void the in-flight step and account downtime. The dispatcher
     *  notices at the next probe tick. */
    void
    updateReachable(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        const bool now = e.actualUp && !e.linkDown;
        if (now != e.reachable) {
            e.reachable = now;
            reindex(eng);
            liveLog_.push_back({t, now ? 1 : -1});
            if (now) {
                ++liveNow_;
                chaosInstant(eng, "engine.up", t);
            } else {
                --liveNow_;
                minLive_ = std::min(minLive_, liveNow_);
                ++deaths_;
                ++e.epoch; // voids the pending ENGINE_DONE
                e.work = EngineWork::IDLE;
                e.chunkInFlight = 0;
                chaosInstant(eng, "engine.down", t);
            }
        }
        ensureProbe(t);
    }

    /** Probes tick on the fixed probeIntervalSeconds grid; coalesce
     *  to at most one pending probe. */
    void
    ensureProbe(double t)
    {
        if (probePending_)
            return;
        probePending_ = true;
        const double p = fleet_.chaos.probeIntervalSeconds;
        push((std::floor(t / p) + 1.0) * p, EventKind::PROBE, 0);
    }

    /** A probe at @p t observes @p eng in @p health. */
    void
    observe(std::size_t eng, EngineHealth health, double t)
    {
        engines_[eng].observed = health;
        reindex(eng);
        if (timeline_) {
            timeline_->instant(kFleetPid, (std::uint32_t)(1 + eng),
                               std::string("health.") +
                                   engineHealthName(health),
                               t);
        }
    }

    /** Reconcile observed health with actual component state. */
    void
    onProbe(double t)
    {
        probePending_ = false;
        for (std::size_t eng = 0; eng < engines_.size(); ++eng) {
            Engine &e = engines_[eng];
            if (!e.reachable) {
                if (e.observed != EngineHealth::DEAD) {
                    observe(eng, EngineHealth::DEAD, t);
                    failoverEngine(eng, t);
                }
                continue;
            }
            if (e.observed == EngineHealth::DEAD) {
                observe(eng, EngineHealth::RECOVERING, t);
                push(t + fleet_.chaos.recoverySeconds,
                     EventKind::RECOVERY_DONE, eng, e.epoch);
                continue;
            }
            if (e.observed == EngineHealth::RECOVERING)
                continue; // RECOVERY_DONE finishes the warmup
            const EngineHealth want = healthFromFactor(e.linkFactor);
            if (want == e.observed)
                continue;
            const bool was_admitting = admitting(e);
            observe(eng, want, t);
            if (!was_admitting && admitting(e)) {
                drainWaiting(t);
                kick(eng, t);
            }
        }
    }

    EngineHealth
    healthFromFactor(double factor) const
    {
        if (factor >= 1.0)
            return EngineHealth::HEALTHY;
        return factor >= fleet_.chaos.drainBelowFactor
                   ? EngineHealth::DEGRADED
                   : EngineHealth::DRAINING;
    }

    void
    onRecoveryDone(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        // Dying again during warmup bumps the epoch (filtered at pop),
        // and probes leave RECOVERING engines alone, so a
        // current-epoch event finds the warmup it announced still
        // live.
        DSV3_DEBUG_ASSERT(e.reachable &&
                              e.observed == EngineHealth::RECOVERING,
                          "voided RECOVERY_DONE dispatched");
        e.observed = healthFromFactor(e.linkFactor);
        reindex(eng);
        chaosInstant(eng, "health.recovered", t);
        if (admitting(e))
            drainWaiting(t);
        kick(eng, t);
    }

    /** The engine is detected dead: its KvPager contents are gone, so
     *  every request it held (resident, ready-queued, or queued for a
     *  colocated prefill chunk) loses its KV and re-dispatches with
     *  backoff + prefill recomputation. */
    void
    failoverEngine(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        std::vector<std::size_t> &lost = lostScratch_;
        lost.clear();
        lost.reserve(e.resident.size() + e.ready.size() +
                     e.prefillQ.size());
        for (std::size_t id : e.resident) {
            e.pager.release(kvBlocks_[id]);
            lost.push_back(id);
        }
        lost.insert(lost.end(), e.ready.begin(), e.ready.end());
        for (const PrefillJob &job : e.prefillQ)
            lost.push_back(job.id);
        e.resident.clear();
        e.ctxSum = 0;
        e.ready.clear();
        e.prefillQ.clear();
        e.lastWasPrefill = false;
        reindex(eng);
        for (std::size_t id : lost) {
            ++failovers_;
            markRequest(id, "failover", t, "\"engine\":", eng);
            scheduleRetry(id, t);
        }
    }

    /** Capped exponential backoff with per-(request, attempt) hash
     *  jitter, then RETRY_DISPATCH -- or FAILED once over budget. */
    void
    scheduleRetry(std::size_t id, double t)
    {
        ReqState &st = reqs_[id];
        st.everFailedOver = true;
        ++st.attempts;
        if (st.attempts > fleet_.chaos.retryBudget) {
            failRequest(id, t);
            return;
        }
        ++retries_;
        const ServingChaosConfig &chaos = fleet_.chaos;
        double backoff = chaos.backoffBaseSeconds;
        for (std::size_t k = 1; k < st.attempts &&
                                backoff < chaos.backoffMaxSeconds;
             ++k)
            backoff *= chaos.backoffMultiplier;
        backoff = std::min(backoff, chaos.backoffMaxSeconds);
        const double u = hash01(
            hashCombine(hashCombine(chaosSeed_, id), st.attempts));
        backoff *= 1.0 - chaos.backoffJitter +
                   2.0 * chaos.backoffJitter * u;
        setState(id, RequestState::RETRY_BACKOFF, t);
        markRequest(id, "retry", t, "\"attempt\":", st.attempts);
        startFlow(RETRY_FLOW, id, t);
        push(t + backoff, EventKind::RETRY_DISPATCH, id);
    }

    /** Terminal FAILED outcome: excluded from the ttft/tpot digests
     *  (completion stays < 0), distinct from reject and shed. */
    void
    failRequest(std::size_t id, double t)
    {
        ReqState &st = reqs_[id];
        accrue(id, st.state, st.stateSince, t);
        st.stateSince = t;
        st.dropped = true;
        ++failed_;
        dropOutstanding(st);
        DSV3_WARN_ONCE("serving: retry budget (",
                       fleet_.chaos.retryBudget,
                       ") exhausted; failing request (excluded from "
                       "latency percentiles)");
        markRequest(id, "retry.exhausted", t);
        releaseNextClosedLoop(t);
    }

    /** Backoff elapsed: recompute the sequence from scratch on the
     *  survivors (prompt + tokens generated so far). */
    void
    onRetryDispatch(std::size_t id, double t)
    {
        setState(id, RequestState::FAILOVER, t);
        enqueuePrefill(id, t);
    }

    /** An engine re-entered rotation: place everything parked while
     *  the whole fleet was unavailable. */
    void
    drainWaiting(double t)
    {
        while (!waitingReady_.empty()) {
            const std::size_t eng = chooseEngine();
            if (eng == kNone)
                return;
            const std::size_t id = waitingReady_.front();
            waitingReady_.pop_front();
            sequenceReady(id, eng, t);
        }
        while (!waitingPrefill_.empty() && chooseEngine() != kNone) {
            const std::size_t id = waitingPrefill_.front();
            waitingPrefill_.pop_front();
            enqueuePrefill(id, t);
        }
    }

    /** Admission control: the arrival is turned away outright -- a
     *  deliberate outcome, never conflated with OOM preemption (the
     *  request ran) or fitsEver rejection (it never could run). */
    void
    shedRequest(std::size_t id, double t)
    {
        reqs_[id].dropped = true;
        ++sheds_;
        markRequest(id, "shed", t);
        releaseNextClosedLoop(t);
    }

    void
    sampleRecorderUpTo(double t)
    {
        if (!recorder_ || fleet_.recorderIntervalSeconds <= 0.0)
            return;
        while (nextSample_ <= t) {
            sampleRecorder(nextSample_);
            nextSample_ += fleet_.recorderIntervalSeconds;
        }
    }

    void
    sampleRecorder(double t)
    {
        std::size_t resident = 0, ready = 0;
        std::size_t prefill = prefillQ_.size();
        std::size_t free_blocks = 0;
        for (const Engine &e : engines_) {
            resident += e.resident.size();
            ready += e.ready.size();
            prefill += e.prefillQ.size();
            free_blocks += e.pager.freeBlocks();
        }
        recorder_->record("inference.serving.resident", t,
                          (double)resident);
        recorder_->record("inference.serving.ready_queue", t,
                          (double)ready);
        recorder_->record("inference.serving.prefill_queue", t,
                          (double)prefill);
        if (engines_[0].pager.totalBlocks() > 0) {
            recorder_->record("inference.serving.kv_free_blocks", t,
                              (double)free_blocks);
        }
        recorder_->record(
            "inference.serving.tokens_per_sec", t,
            (double)(decodeTokens_ - sampledTokens_) /
                fleet_.recorderIntervalSeconds);
        sampledTokens_ = decodeTokens_;
        // Chaos-only channel (absent on fault-free runs so their
        // timeseries exports stay byte-identical).
        if (chaosEnabled_) {
            recorder_->record("inference.serving.live_engines", t,
                              (double)liveNow_);
        }
    }

    // Prefill ----------------------------------------------------------

    void
    routeArrival(std::size_t id, double t)
    {
        ReqState &st = reqs_[id];
        st.state = RequestState::QUEUE_WAIT;
        st.stateSince = t;
        if (!engines_[0].pager.fitsEver(maxCtxTokens(st))) {
            reject(id, t);
            return;
        }
        const std::size_t cap = fleet_.chaos.shedMaxOutstanding;
        if (cap > 0 && outstanding_ >= cap) {
            shedRequest(id, t);
            return;
        }
        ++outstanding_;
        st.outstanding = true;
        enqueuePrefill(id, t);
    }

    /** Queue a prefill of @p id's prompt plus the tokens it decoded so
     *  far: on the disaggregated pool, or as chunks on the
     *  least-loaded admitting engine (parked while none admits). */
    void
    enqueuePrefill(std::size_t id, double t)
    {
        const ReqState &st = reqs_[id];
        const PrefillJob job{id, st.req.promptTokens + st.decodeDone};
        if (fleet_.deployment == Deployment::DISAGGREGATED) {
            prefillQ_.push_back(job);
            startPrefills(t);
            return;
        }
        const std::size_t eng = chooseEngine();
        if (eng == kNone) { // whole fleet down/draining
            waitingPrefill_.push_back(id);
            return;
        }
        engines_[eng].prefillQ.push_back(job);
        reindex(eng);
        kick(eng, t);
    }

    void
    startPrefills(double t)
    {
        while (prefillBusy_ < fleet_.prefillServers &&
               !prefillQ_.empty()) {
            PrefillJob job = prefillQ_.front();
            prefillQ_.pop_front();
            ++prefillBusy_;
            const double dur = (double)job.tokensLeft /
                               fleet_.prefillTokensPerSecPerServer;
            prefillStarted(job.id, t);
            if (reqSampled(job.id)) {
                timeline_->asyncBegin(kFleetPid, 0, "prefill",
                                      "prefill", job.id, t);
            }
            push(t + dur, EventKind::PREFILL_DONE, job.id);
        }
    }

    /** Shared disaggregated/colocated prefill-start bookkeeping. */
    void
    prefillStarted(std::size_t id, double t)
    {
        setState(id, RequestState::PREFILL, t);
        finishFlow(PREEMPT_FLOW, id, t);
        finishFlow(RETRY_FLOW, id, t);
    }

    void
    onPrefillDone(std::size_t id, double t)
    {
        DSV3_ASSERT(prefillBusy_ > 0);
        --prefillBusy_;
        setState(id, RequestState::KV_HANDOFF, t);
        if (reqSampled(id)) {
            timeline_->asyncEnd(kFleetPid, 0, "prefill", "prefill",
                                id, t);
        }
        startFlow(HANDOFF_FLOW, id, t);
        startPrefills(t);
        push(t + fleet_.kvHandoffSeconds, EventKind::HANDOFF_DONE,
             id);
    }

    void
    onHandoffDone(std::size_t id, double t)
    {
        const std::size_t eng = chooseEngine();
        if (eng == kNone) {
            // KV is staged but no engine will take it; park until a
            // recovery re-opens admission.
            setState(id, waitState(reqs_[id]), t);
            waitingReady_.push_back(id);
            return;
        }
        sequenceReady(id, eng, t);
    }

    /** A sequence's KV exists on @p eng; queue it for decode. */
    void
    sequenceReady(std::size_t id, std::size_t eng, double t)
    {
        ReqState &st = reqs_[id];
        if (st.firstTokenTime < 0.0)
            st.firstTokenTime = t;
        finishFlow(HANDOFF_FLOW, id, t);
        if (st.decodeDone >= st.decodeNeeded) {
            complete(id, t);
            return;
        }
        setState(id, waitState(st), t);
        engines_[eng].ready.push_back(id);
        reindex(eng);
        kick(eng, t);
    }

    // Decode engines ---------------------------------------------------

    /**
     * Defer the wake-up to a same-timestamp event so that every
     * sequence becoming ready at time t is queued before the engine
     * forms its next batch — otherwise the first of a simultaneous
     * wave would start a batch-1 step.
     */
    void
    kick(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        // Coalesce to one pending kick per engine. A pending kick
        // implies the engine is still IDLE (work only starts when a
        // kick pops, which clears the flag) and was pushed at this
        // same instant (kicks are always scheduled at "now" and
        // events pop in time order), so the skipped push would
        // have observed the exact state the pending one will.
        if (e.work == EngineWork::IDLE && !e.kickPending) {
            e.kickPending = true;
            slotPush(eng, t, EventKind::ENGINE_KICK);
        }
    }

    /** Out of line on purpose: inlined at its one call site, run()'s
     *  ENGINE_KICK case, its admission and step set-up crowd the
     *  event loop, and long-generation runs (the chaos bench's
     *  degraded-SLO fleet) measured about 8% slower. */
    [[gnu::noinline]] void
    tryStartWork(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        if (e.work != EngineWork::IDLE || !operational(e))
            return; // busy, dead or warming up (re-kicked on recovery)
        admit(eng, t);
        const bool prefer_prefill =
            !e.prefillQ.empty() &&
            (e.resident.empty() || !e.lastWasPrefill);
        if (prefer_prefill)
            startChunk(eng, t);
        else if (!e.resident.empty())
            startStep(eng, t);
        else if (!e.prefillQ.empty())
            startChunk(eng, t);
        // else stays idle until the next ready/arrival kick.
    }

    void
    admit(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        while (e.resident.size() < fleet_.maxBatchPerEngine &&
               !e.ready.empty()) {
            const std::size_t id = e.ready.front();
            ReqState &st = reqs_[id];
            if (!e.pager.fitsEver(maxCtxTokens(st))) {
                e.ready.pop_front();
                reindex(eng);
                reject(id, t);
                continue;
            }
            if (!e.pager.tryAllocate(kvBlocks_[id], ctxTokens(st)))
                break; // OOM: retry at the next step boundary
            e.ready.pop_front();
            e.resident.push_back(id);
            e.ctxSum += ctxTokens(st);
            // Resident but not yet stepping: anything the engine does
            // before this sequence's next step is a stall for it.
            setState(id, RequestState::STALLED, t);
        }
    }

    void
    startChunk(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        DSV3_ASSERT(!e.prefillQ.empty());
        PrefillJob &job = e.prefillQ.front();
        const std::size_t chunk =
            std::min<std::size_t>(fleet_.prefillChunkTokens,
                                  job.tokensLeft);
        e.chunkInFlight = chunk;
        const double dur = (double)chunk /
                           fleet_.prefillTokensPerSecPerServer;
        e.work = EngineWork::PREFILL_CHUNK;
        e.lastWasPrefill = true;
        e.workStart = t;
        prefillStarted(job.id, t);
        slotPush(eng, t + dur, EventKind::ENGINE_DONE, e.epoch);
    }

    void
    startStep(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        DSV3_ASSERT(!e.resident.empty());
        // e.ctxSum is maintained incrementally (admit / decode /
        // remove) in exact integer arithmetic; values stay far below
        // 2^53, so the cast equals the seed's sequential double
        // summation over the resident set bit-for-bit.
#ifndef NDEBUG
        std::size_t check_sum = 0;
        for (std::size_t id : e.resident)
            check_sum += ctxTokens(reqs_[id]);
        DSV3_ASSERT(check_sum == e.ctxSum,
                    "incremental ctxSum drifted from the resident set");
#endif
        const std::size_t ctx_sum = e.ctxSum;
        // A degraded uplink scales the engine's all-to-all bandwidth
        // and pays the DeepEP timeout/retry lottery per step; the
        // penalty is pure comm stall, added before the MTP overhead
        // multiplier so the comm fraction stays exact.
        const double scale = std::min(e.linkFactor, 1.0);
        DecodeStepBreakdown bd = stepCost(
            e.resident.size(),
            (double)ctx_sum / (double)e.resident.size(), scale);
        if (chaosEnabled_ &&
            scale < fleet_.chaos.epRetry.degradedThreshold) {
            const double penalty = ep::degradedRetryPenalty(
                fleet_.chaos.epRetry, scale,
                hashCombine(chaosSeed_, ++stepSeq_));
            bd.commSeconds += penalty;
            bd.totalSeconds += penalty;
        }
        double dt = bd.totalSeconds;
        if (fleet_.mtpEnabled)
            dt *= 1.0 + fleet_.mtp.stepOverhead;
        e.work = EngineWork::STEP;
        e.lastWasPrefill = false;
        e.workStart = t;
        // The MTP overhead multiplier scales compute and comm alike,
        // so the comm fraction of the base step carries over.
        e.stepCommFrac = bd.totalSeconds > 0.0
            ? bd.commSeconds / bd.totalSeconds : 0.0;
        slotPush(eng, t + dt, EventKind::ENGINE_DONE, e.epoch);
    }

    void
    onEngineDone(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        // Stale epochs are filtered at pop; a death bumps the epoch
        // and idles the engine atomically, so a current-epoch event
        // always finds the work it announced still in flight.
        DSV3_DEBUG_ASSERT(e.work != EngineWork::IDLE,
                          "voided ENGINE_DONE dispatched");
        const EngineWork done = e.work;
        e.work = EngineWork::IDLE;
        if (done == EngineWork::PREFILL_CHUNK)
            finishChunk(eng, t);
        else
            commitStep(eng, t);
        kick(eng, t);
    }

    void
    finishChunk(std::size_t eng, double t)
    {
        Engine &e = engines_[eng];
        DSV3_ASSERT(!e.prefillQ.empty());
        PrefillJob &job = e.prefillQ.front();
        const std::size_t chunk =
            std::min<std::size_t>(e.chunkInFlight, job.tokensLeft);
        job.tokensLeft -= chunk;
        if (timeline_) {
            timeline_->duration(
                kFleetPid, (std::uint32_t)(1 + eng), "prefill.chunk",
                e.workStart, t,
                "\"req\":" + std::to_string(job.id) +
                    ",\"tokens\":" + std::to_string(chunk));
        }
        if (job.tokensLeft == 0) {
            const std::size_t id = job.id;
            e.prefillQ.pop_front();
            reindex(eng);
            sequenceReady(id, eng, t);
        } else {
            // The engine turns to decode (or idles) between chunks;
            // the partially-prefilled request goes back to waiting.
            setState(job.id, waitState(reqs_[job.id]), t);
        }
    }

    /**
     * Commit the decode step [workStart, t) that just finished on
     * @p eng. The commit loop is compiled once per (MTP, paged) pair,
     * so the common step -- one token per resident on an unlimited
     * pager -- runs with no draw, no KV growth and no per-resident
     * flag test. A timeline's slices come from a pre-pass over the
     * residents before any token is committed.
     */
    void
    commitStep(std::size_t eng, double t)
    {
        const Engine &e = engines_[eng];
        ++steps_;
        const double seg = t - e.workStart;
        const double comm = seg * e.stepCommFrac;
        const StepSpan span{e.workStart, t, seg - comm, comm};
        if (timeline_)
            emitStepSlices(eng, span);
        const bool paged = !e.pager.unlimited();
        if (fleet_.mtpEnabled) {
            if (paged)
                commitResidents<true, true>(eng, span);
            else
                commitResidents<true, false>(eng, span);
        } else if (paged) {
            commitResidents<false, true>(eng, span);
        } else {
            commitResidents<false, false>(eng, span);
        }
    }

    /** Timeline slices of a finished step: per sampled resident, its
     *  current state up to the step start (when non-empty), then its
     *  compute and comm shares; then the engine's decode.step. */
    void
    emitStepSlices(std::size_t eng, const StepSpan &span)
    {
        const Engine &e = engines_[eng];
        for (std::size_t id : e.resident) {
            if (!reqSampled(id))
                continue;
            const ReqState &st = reqs_[id];
            const std::uint32_t tid = (std::uint32_t)id;
            nameRequestTrack(id);
            if (span.start > st.stateSince) {
                timeline_->duration(kRequestPid, tid,
                                    requestStateName(st.state),
                                    st.stateSince, span.start);
            }
            if (span.comp > 0.0) {
                timeline_->duration(kRequestPid, tid, "decode.compute",
                                    span.start, span.start + span.comp);
            }
            if (span.comm > 0.0) {
                timeline_->duration(kRequestPid, tid, "decode.comm",
                                    span.start + span.comp, span.end);
            }
        }
        timeline_->duration(
            kFleetPid, (std::uint32_t)(1 + eng), "decode.step",
            span.start, span.end,
            "\"batch\":" + std::to_string(e.resident.size()));
    }

    /**
     * Credit the step to every resident, oldest first, advance it one
     * token (an MTP draw with kMtp) and complete it or keep it,
     * compacting the survivors in place. With kPaged each grows its
     * KV first; a preemption victim is always the youngest resident
     * not yet processed, so the victims are exactly the tail
     * [i + 1, end) that growOrPreempt() cuts off. The resident count
     * stays put until the truncate, so routing inside complete() and
     * preempt() sees the pre-step load(). Token sums are exact
     * integers, and nothing reads ctxSum before the next startStep()
     * (load() does not), so they are added once per step.
     */
    template <bool kMtp, bool kPaged>
    void
    commitResidents(std::size_t eng, const StepSpan &span)
    {
        Engine &e = engines_[eng];
        std::size_t end = e.resident.size();
        std::size_t kept = 0;
        std::size_t step_tokens = 0;
        for (std::size_t i = 0; i < end; ++i) {
            const std::size_t id = e.resident[i];
            ReqState &st = reqs_[id];
            creditStep(st, span);
            std::size_t tokens = 1;
            if constexpr (kMtp)
                tokens = drawTokens(st);
            else
                DSV3_DEBUG_ASSERT(st.decodeDone < st.decodeNeeded);
            if constexpr (kPaged) {
                if (!growOrPreempt(eng, i, end, tokens, span))
                    continue;
            }
            st.decodeDone += tokens;
            step_tokens += tokens;
            if (st.decodeDone < st.decodeNeeded) {
                e.resident[kept++] = id;
                continue;
            }
            e.ctxSum -= ctxTokens(st);
            if constexpr (kPaged)
                e.pager.release(kvBlocks_[id]);
            complete(id, span.end);
        }
        e.ctxSum += step_tokens;
        e.resident.resize(kept);
        reindex(eng);
        decodeTokens_ += step_tokens;
        if (double *win = goodputWindow(span.end))
            *win += (double)step_tokens;
    }

    /** Tokens an MTP step commits for @p st: the base token plus the
     *  accepted prefix of the draft chain, clamped to what the request
     *  still needs. */
    std::size_t
    drawTokens(const ReqState &st)
    {
        std::size_t tokens = 1;
        for (std::size_t d = 0; d < fleet_.mtp.draftTokens; ++d) {
            if (!rng_.bernoulli(fleet_.mtp.acceptanceRate))
                break;
            ++tokens;
        }
        tokens = std::min(tokens, st.decodeNeeded - st.decodeDone);
        DSV3_ASSERT(tokens >= 1);
        return tokens;
    }

    /**
     * Grow resident @p i's KV reservation by @p tokens. On OOM preempt
     * the youngest resident not yet processed (the last of
     * [i + 1, end)) until it fits, or resident i itself as a last
     * resort. A victim is credited the step right before its
     * preempt(). Returns false when resident i was preempted.
     */
    bool
    growOrPreempt(std::size_t eng, std::size_t i, std::size_t &end,
                  std::size_t tokens, const StepSpan &span)
    {
        Engine &e = engines_[eng];
        const std::size_t id = e.resident[i];
        std::size_t cascade = 0;
        bool grown = true;
        while (!e.pager.tryGrow(kvBlocks_[id],
                                ctxTokens(reqs_[id]) + tokens)) {
            ++cascade;
            if (end == i + 1) {
                preempt(eng, id, span.end);
                grown = false;
                break;
            }
            const std::size_t victim = e.resident[--end];
            creditStep(reqs_[victim], span);
            preempt(eng, victim, span.end);
        }
        if (cascade > 0)
            preemptDepths_.push_back((double)cascade);
        return grown;
    }

    void
    preempt(std::size_t eng, std::size_t id, double t)
    {
        Engine &e = engines_[eng];
        e.ctxSum -= ctxTokens(reqs_[id]); // still resident here
        e.pager.release(kvBlocks_[id]);
        ++preemptions_;
        // Recompute path: the sequence's KV is rebuilt by a fresh
        // prefill over prompt + generated-so-far, then it re-enters
        // decode admission (with the handoff cost when the prefill
        // pool is disaggregated).
        ReqState &st = reqs_[id];
        st.everPreempted = true;
        setState(id, RequestState::STALLED, t);
        markRequest(id, "preempt", t, "\"engine\":", eng);
        startFlow(PREEMPT_FLOW, id, t);
        if (fleet_.deployment == Deployment::DISAGGREGATED) {
            enqueuePrefill(id, t);
            return;
        }
        // Colocated: recompute on this engine, which is mid-commit and
        // kicks itself when the commit ends.
        e.prefillQ.push_back(
            PrefillJob{id, st.req.promptTokens + st.decodeDone});
        reindex(eng);
    }

    // Completion / bookkeeping ----------------------------------------

    void
    complete(std::size_t id, double t)
    {
        ReqState &st = reqs_[id];
        // Flush the final state so the per-state accumulators cover
        // the whole arrival->completion interval, and check the
        // telescoping-sum identity (rounding-tight, not exact: step
        // shares are recombined from a fraction).
        accrue(id, st.state, st.stateSince, t);
        st.stateSince = t;
        double state_sum = 0.0;
        for (double s : st.stateSeconds)
            state_sum += s;
        const double latency = t - st.req.arrivalSeconds;
        DSV3_ASSERT(std::abs(state_sum - latency) <=
                        1e-6 * std::max(1.0, std::abs(latency)),
                    "state attribution does not sum to latency: ",
                    state_sum, " vs ", latency);
        st.completion = t;
        ++completed_;
        dropOutstanding(st);
        lastCompletion_ = std::max(lastCompletion_, t);
        releaseNextClosedLoop(t);
    }

    void
    dropOutstanding(ReqState &st)
    {
        if (st.outstanding) {
            st.outstanding = false;
            --outstanding_;
        }
    }

    void
    reject(std::size_t id, double t)
    {
        ReqState &st = reqs_[id];
        st.dropped = true;
        ++rejected_;
        dropOutstanding(st);
        DSV3_WARN_ONCE("serving: request context (",
                       maxCtxTokens(st),
                       " tokens) can never fit the KV budget; "
                       "rejecting");
        releaseNextClosedLoop(t);
    }

    void
    releaseNextClosedLoop(double t)
    {
        if (!closedLoop_ || nextPending_ >= reqs_.size())
            return;
        const std::size_t id = nextPending_++;
        reqs_[id].req.arrivalSeconds = t;
        routeArrival(id, t);
    }

    /**
     * Accumulator for the goodput window containing @p t (growing the
     * window vector as needed), or nullptr when windows are off.
     * Every decode commit within one step lands in the same window,
     * so the division is hoisted to once per step; the per-sequence
     * += order is unchanged.
     */
    double *
    goodputWindow(double t)
    {
        const double w = fleet_.goodputWindowSeconds;
        if (w <= 0.0)
            return nullptr;
        // Event times are nondecreasing, so the window index is too;
        // cache it to skip the division on the common same-window
        // call. The guard band is conservative: below winSafe_ the
        // true t / w provably still floors to winIdx_ (the band is
        // one part in 2^40 of the window, ~4000x the division's
        // worst-case rounding slop), and monotonicity pins the index
        // from below, so the cached index can never disagree with
        // the uncached computation.
        if (!(t < winSafe_)) {
            winIdx_ = (std::size_t)(t / w);
            winSafe_ =
                (double)(winIdx_ + 1) * w * (1.0 - 0x1p-40);
            if (winIdx_ >= windowTokens_.size())
                windowTokens_.resize(winIdx_ + 1, 0.0);
        }
        DSV3_DEBUG_ASSERT((std::size_t)(t / w) == winIdx_);
        return &windowTokens_[winIdx_];
    }

    ServingMetrics
    collect() const
    {
        ServingMetrics m;
        m.requestsCompleted = completed_;
        m.requestsRejected = rejected_;
        m.decodeSteps = steps_;
        m.decodeTokens = decodeTokens_;
        m.preemptions = preemptions_;
        m.simSeconds = lastCompletion_;
        m.requestsShed = sheds_;
        m.requestsFailed = failed_;
        m.retries = retries_;
        m.failovers = failovers_;
        m.engineDeaths = deaths_;
        m.minLiveEngines = minLive_;

        // Availability over [0, simSeconds]: integrate the live-engine
        // count across the logged reachability transitions (clipping
        // events past the last completion). Uses *actual* component
        // state, so the measurement matches the analytic
        // MTBF/(MTBF+MTTR) bound exactly, detection latency aside.
        if (!engines_.empty() && m.simSeconds > 0.0) {
            double up_integral = 0.0, prev = 0.0;
            double live = (double)engines_.size();
            for (const auto &[lt, delta] : liveLog_) {
                const double tc = std::min(lt, m.simSeconds);
                if (tc > prev) {
                    up_integral += live * (tc - prev);
                    prev = tc;
                }
                live += (double)delta;
            }
            if (m.simSeconds > prev)
                up_integral += live * (m.simSeconds - prev);
            const double span =
                (double)engines_.size() * m.simSeconds;
            m.availability = up_integral / span;
            m.engineDowntimeSeconds = span - up_integral;
        }

        // Per-request seconds in each state: count/mean/max stream
        // through Welford moments, and one column per state feeds the
        // exact percentiles.
        RunningStat moments[kNumRequestStates];
        std::vector<double> columns[kNumRequestStates];
        for (std::vector<double> &col : columns)
            col.reserve(completed_);

        std::vector<double> ttft;
        std::vector<double> tpot;
        ttft.reserve(completed_);
        tpot.reserve(completed_);
        double slo_tokens = 0.0;
        for (const ReqState &st : reqs_) {
            // Percentile digests cover completed requests only:
            // REJECTED, SHED, and FAILED outcomes (and requests
            // stranded mid-flight when the events ran out) never
            // complete -- a "latency" for a request that never
            // finished would poison the tails.
            if (st.completion < 0.0) {
                if (!st.dropped && std::isfinite(st.req.arrivalSeconds))
                    ++m.requestsStranded;
                continue;
            }
            const double first =
                st.firstTokenTime - st.req.arrivalSeconds;
            ttft.push_back(first);
            double per_token = 0.0;
            if (st.decodeNeeded > 0) {
                per_token = (st.completion - st.firstTokenTime) /
                            (double)st.decodeNeeded;
                tpot.push_back(per_token);
            }
            if (first <= fleet_.sloTtftSeconds &&
                per_token <= fleet_.sloTpotSeconds)
                slo_tokens += (double)st.req.genTokens;

            m.totalLatencySeconds +=
                st.completion - st.req.arrivalSeconds;
            for (std::size_t s = 0; s < kNumRequestStates; ++s) {
                m.stateSeconds[s] += st.stateSeconds[s];
                moments[s].add(st.stateSeconds[s]);
                columns[s].push_back(st.stateSeconds[s]);
            }
        }
        m.ttft = summarize(std::move(ttft));
        m.tpot = summarize(std::move(tpot));

        for (std::size_t s = 0; s < kNumRequestStates; ++s) {
            PercentileSummary &ps = m.statePerRequest[s];
            ps.count = moments[s].count();
            if (ps.count == 0)
                continue;
            ps.mean = moments[s].mean();
            ps.max = moments[s].max();
            setPercentiles(ps, columns[s]);
        }

        // Bottleneck verdict: which bucket of summed state time
        // dominates. Ties resolve in the order listed (compute
        // first), deterministically.
        auto sec = [&](RequestState s) {
            return m.stateSeconds[(int)s];
        };
        const std::pair<Bottleneck, double> buckets[] = {
            {Bottleneck::COMPUTE, sec(RequestState::PREFILL) +
                                      sec(RequestState::DECODE_COMPUTE)},
            {Bottleneck::COMM, sec(RequestState::DECODE_COMM)},
            {Bottleneck::QUEUE, sec(RequestState::QUEUE_WAIT) +
                                    sec(RequestState::KV_HANDOFF)},
            {Bottleneck::KV, sec(RequestState::STALLED)},
            {Bottleneck::FAULT, sec(RequestState::FAILOVER) +
                                    sec(RequestState::RETRY_BACKOFF)},
        };
        double best = buckets[0].second;
        m.bottleneck = buckets[0].first;
        for (const auto &[kind, seconds] : buckets) {
            if (seconds > best) {
                m.bottleneck = kind;
                best = seconds;
            }
        }

        // Drop the trailing partial window so the percentiles are not
        // skewed by a truncated interval.
        std::vector<double> windows;
        if (windowTokens_.size() > 1 &&
            fleet_.goodputWindowSeconds > 0.0) {
            for (std::size_t i = 0; i + 1 < windowTokens_.size(); ++i)
                windows.push_back(windowTokens_[i] /
                                  fleet_.goodputWindowSeconds);
        }
        m.goodput = summarize(std::move(windows));

        if (m.simSeconds > 0.0) {
            m.tokensPerSecond =
                (double)decodeTokens_ / m.simSeconds;
            m.sloGoodputTokensPerSecond = slo_tokens / m.simSeconds;
        }
        m.kvTotalBlocks = engines_.empty()
            ? 0 : engines_[0].pager.totalBlocks();
        for (const Engine &e : engines_)
            m.kvHighWaterBlocks = std::max(
                m.kvHighWaterBlocks, e.pager.highWaterBlocks());
        return m;
    }

    const ServingFleetConfig &fleet_;
    obs::Timeline *timeline_;       //!< optional, not owned
    obs::FlightRecorder *recorder_; //!< optional, not owned
    Rng rng_;
    std::uint64_t chaosSeed_;       //!< jitter/lottery hash base

    std::vector<ReqState> reqs_;
    /** KV blocks each request holds on its engine's pager. A side
     *  array, not a ReqState field: see DESIGN.md "Hot-loop
     *  containers" for what growing ReqState cost. */
    std::vector<std::uint32_t> kvBlocks_;
    std::vector<Engine> engines_;
    std::vector<EngineSlot> slots_; //!< parked per-engine events
    /** (time, order) of each live slot; top() is the earliest. */
    WinnerTree<EventKey> slotIndex_;
    /** load() of each admitting engine; top() is chooseEngine(). */
    WinnerTree<std::size_t> dispatch_;
    /** Every unparked event, least key on top. */
    std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
    std::uint64_t order_ = 0; //!< next push sequence number

    // Step-cost memo: direct-mapped, power-of-two slots, grown once
    // past half occupancy up to the cap (then overwrite-on-collision
    // keeps recent keys). See stepCost() for the exactness argument.
    struct StepSlot
    {
        std::uint64_t key = 0; //!< (batch << 40) | ctx; 0 == empty
        std::uint64_t scaleBits = 0;
        DecodeStepBreakdown bd;
    };
    static constexpr std::size_t kStepCacheInitSlots = 1 << 10;
    static constexpr std::size_t kStepCacheMaxSlots = 1 << 15;
    std::vector<StepSlot> stepCache_;
    std::size_t cacheEntries_ = 0;
    bool stepCacheOn_ = true;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;

    // Scratch reused across failovers.
    std::vector<std::size_t> lostScratch_;
    std::vector<double> preemptDepths_; //!< one per preemption cascade

    // Disaggregated prefill pool.
    std::deque<PrefillJob> prefillQ_;
    std::size_t prefillBusy_ = 0;

    bool closedLoop_ = false;
    std::size_t nextPending_ = 0;

    std::size_t completed_ = 0;
    std::size_t rejected_ = 0;
    std::size_t steps_ = 0;
    std::size_t decodeTokens_ = 0;
    std::size_t preemptions_ = 0;
    double lastCompletion_ = 0.0;
    std::vector<double> windowTokens_;
    std::size_t winIdx_ = 0;   //!< goodputWindow() monotone memo
    double winSafe_ = -1e300;  //!< t below this keeps winIdx_ valid

    // Chaos state.
    bool chaosEnabled_ = false;
    bool probePending_ = false;
    std::size_t outstanding_ = 0; //!< admitted, not yet terminal
    std::size_t sheds_ = 0;
    std::size_t failed_ = 0;
    std::size_t retries_ = 0;
    std::size_t failovers_ = 0;
    std::size_t deaths_ = 0;
    std::size_t liveNow_ = 0;  //!< reachable engines right now
    std::size_t minLive_ = 0;  //!< low-water reachable count
    std::uint64_t stepSeq_ = 0; //!< retry-lottery stream per step
    std::vector<std::pair<double, int>> liveLog_; //!< (t, +-1)
    std::deque<std::size_t> waitingReady_;  //!< fleet-wide parked
    std::deque<std::size_t> waitingPrefill_; //!< COLOCATED parked

    // Observability state.
    double nextSample_ = 0.0;        //!< next flight-recorder tick
    std::size_t sampledTokens_ = 0;  //!< decodeTokens_ at last tick
    std::uint64_t flowSeq_ = 0;      //!< timeline flow-arrow ids
    std::vector<bool> trackNamed_;
    /** Per FlowKind, each request's unfinished flow id (0: none). */
    std::vector<std::uint64_t> pendingFlow_[kFlowKinds];
};

} // namespace

ServingMetrics
simulateServing(const ServingFleetConfig &fleet,
                const TrafficConfig &traffic, std::uint64_t seed)
{
    static obs::Counter &c_runs =
        obs::Registry::global().counter("inference.serving.runs");
    static obs::Counter &c_requests = obs::Registry::global().counter(
        "inference.serving.requests");
    static obs::Counter &c_completed =
        obs::Registry::global().counter(
            "inference.serving.completed");
    static obs::Counter &c_steps = obs::Registry::global().counter(
        "inference.serving.decode_steps");
    static obs::Counter &c_tokens = obs::Registry::global().counter(
        "inference.serving.decode_tokens");
    static obs::Counter &c_preempt = obs::Registry::global().counter(
        "inference.serving.preemptions");
    static obs::Counter &c_rejected =
        obs::Registry::global().counter(
            "inference.serving.rejected");
    static obs::Gauge &g_kv_hwm = obs::Registry::global().gauge(
        "inference.serving.kv_blocks_high_water");
    // Always registered (cache on or off) so the stats key set does
    // not depend on the DSV3_STEP_CACHE kill switch.
    static obs::Counter &c_cache_hits =
        obs::Registry::global().counter(
            "inference.serving.step_cache.hits");
    static obs::Counter &c_cache_misses =
        obs::Registry::global().counter(
            "inference.serving.step_cache.misses");
    static obs::Counter &c_cache_entries =
        obs::Registry::global().counter(
            "inference.serving.step_cache.entries");

    DSV3_TRACE_SPAN("inference.serving.simulate", "requests",
                    traffic.requests);
    Simulation sim(fleet, traffic, seed);
    ServingMetrics m = sim.run();
    sim.flushCacheStats(c_cache_hits, c_cache_misses,
                        c_cache_entries);

    c_runs.inc();
    c_requests.inc(traffic.requests);
    c_completed.inc(m.requestsCompleted);
    c_steps.inc(m.decodeSteps);
    c_tokens.inc(m.decodeTokens);
    c_preempt.inc(m.preemptions);
    c_rejected.inc(m.requestsRejected);
    g_kv_hwm.max((double)m.kvHighWaterBlocks);

    // Chaos counters register only when chaos machinery is in play so
    // the stats snapshot of a fault-free report is unchanged. The
    // reject / preempt / shed triple stays deliberately separate:
    // three counters, three report columns.
    if (fleet.chaos.enabled() || fleet.chaos.shedMaxOutstanding > 0) {
        obs::Registry &reg = obs::Registry::global();
        reg.counter("inference.serving.retries").inc(m.retries);
        reg.counter("inference.serving.sheds").inc(m.requestsShed);
        reg.counter("inference.serving.failovers").inc(m.failovers);
        reg.counter("inference.serving.retry_exhausted")
            .inc(m.requestsFailed);
        reg.counter("inference.serving.engine_deaths")
            .inc(m.engineDeaths);
        reg.gauge("inference.serving.engine_downtime_seconds")
            .add(m.engineDowntimeSeconds);
    }
    return m;
}

} // namespace dsv3::inference::serving
