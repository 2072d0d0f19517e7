/**
 * @file
 * Chaos configuration for the serving-fleet simulator (Sec 6
 * robustness applied to inference).
 *
 * PR 4's fault subsystem schedules component failures and repairs for
 * the *training* side; this header carries the same deterministic
 * FaultSchedule into the serving event loop. A ServingChaosConfig
 * rides inside ServingFleetConfig: with an empty schedule and no shed
 * cap the simulator's behavior (and its byte-level table/timeline
 * output) is identical to a fleet that never breaks.
 *
 * The fault domain of a serving fleet maps onto the schedule's
 * component kinds as:
 *
 *  - rank r  == decode engine r (RANK_DOWN crashes the engine, its
 *    KvPager contents are lost, residents fail over to survivors);
 *  - link r (endpoints r -> engines + r) == engine r's NIC uplink
 *    (LINK_DEGRADED scales the comm term of decodeStepBreakdown() and
 *    runs the EpFaultModel retry lottery; LINK_DOWN makes the engine
 *    unreachable, which the dispatcher cannot distinguish from a
 *    crash);
 *  - switch/plane/SDC events do not apply to a single fleet and are
 *    ignored with a warning.
 *
 * Failures take effect at their scheduled instant (in-flight steps
 * are voided), but the *dispatcher* only learns about them at the
 * next seed-deterministic health-check probe tick -- the gap between
 * actual and observed state is the detection latency that inflates
 * tail TTFT under chaos.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "ep/deepep.hh"
#include "fault/schedule.hh"

namespace dsv3::inference::serving {

/**
 * Dispatcher-observed engine health (see DESIGN.md "Fault-tolerant
 * serving" for the transition diagram).
 *
 *  HEALTHY    -- up, link at full bandwidth; admits new sequences.
 *  DEGRADED   -- up, link below built bandwidth but at or above
 *                drainBelowFactor; admits, steps run slower.
 *  DRAINING   -- up, link below drainBelowFactor; finishes resident
 *                sequences but takes no new placements.
 *  DEAD       -- unreachable (crash or link down), detected by a
 *                probe; residents have failed over.
 *  RECOVERING -- reachable again, reloading weights for
 *                recoverySeconds before serving.
 */
enum class EngineHealth : int
{
    HEALTHY = 0,
    DEGRADED = 1,
    DRAINING = 2,
    DEAD = 3,
    RECOVERING = 4,
};

const char *engineHealthName(EngineHealth health);

/** Fault injection + request-survival policy for a serving fleet. */
struct ServingChaosConfig
{
    /** Fault/repair events replayed through the event queue. Empty =
     *  chaos off: the simulator takes the exact no-fault code path. */
    fault::FaultSchedule schedule;

    /** Dispatcher health-check cadence. Probes tick on a fixed grid
     *  (multiples of this interval), so detection latency is in
     *  [0, probeIntervalSeconds] after the actual transition. */
    double probeIntervalSeconds = 0.25;

    /** Re-dispatches a request may consume before it is FAILED. */
    std::size_t retryBudget = 3;

    /** Capped exponential backoff between losing an engine and
     *  re-dispatching: attempt k waits
     *  min(base * multiplier^(k-1), max) * jitter, with jitter drawn
     *  uniformly from [1 - backoffJitter, 1 + backoffJitter] on a
     *  per-(request, attempt) hash stream (no shared RNG state). */
    double backoffBaseSeconds = 0.25;
    double backoffMultiplier = 2.0;
    double backoffMaxSeconds = 4.0;
    double backoffJitter = 0.2;

    /** Reloading weights/KV plumbing after a repair before the engine
     *  re-enters rotation (DEAD -> RECOVERING -> HEALTHY). */
    double recoverySeconds = 0.5;

    /** Observed link factor below this sends the engine to DRAINING
     *  (no new placements) instead of DEGRADED. */
    double drainBelowFactor = 0.5;

    /** Admission control: arrivals beyond this many outstanding
     *  (admitted, not yet terminal) requests are SHED -- a distinct
     *  outcome from OOM preemption and fitsEver rejection. 0 = off.
     *  Active even with an empty schedule. */
    std::size_t shedMaxOutstanding = 0;

    /** Timeout/retry economics a DEGRADED engine pays per decode step
     *  (same lottery as the DeepEP degraded round; deadRanks unused
     *  here -- crashes are modeled by the health machine). */
    ep::EpFaultModel epRetry;

    bool enabled() const { return !schedule.empty(); }
};

/**
 * The fault domain of a fleet of @p engines decode engines: rank r is
 * engine r, link r runs r -> engines + r (the engine's NIC uplink).
 * Feed to FaultSchedule::generate() with rankFailPerHour /
 * linkDegradePerHour etc. rates.
 */
fault::FaultDomain servingFaultDomain(std::size_t engines);

/**
 * Steady-state availability of one engine under Poisson failures at
 * @p fail_per_hour and exponential repair with mean @p repair_sec:
 * A = MTBF / (MTBF + MTTR). Engines fail independently, so this is
 * also the expected live fraction of the fleet -- the analytic bound
 * the chaos bench Monte-Carlo-validates (machine-repairman / M/M/c
 * limit with per-engine repair crews).
 */
double analyticEngineAvailability(double fail_per_hour,
                                  double repair_sec);

/**
 * Whether a measured fault sweep is in the regime where the analytic
 * bound is tight: enough expected failures to average over and a span
 * long enough that the all-engines-up transient has washed out.
 */
bool availabilityValidRegime(std::size_t engines, double span_sec,
                             double fail_per_hour, double repair_sec);

} // namespace dsv3::inference::serving
