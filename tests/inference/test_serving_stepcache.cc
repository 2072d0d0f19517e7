/**
 * @file
 * Step-cost memo exactness and the DSV3_STEP_CACHE kill switch.
 *
 * The memo's correctness argument has two legs, each pinned here:
 *
 *  1. decodeStepBreakdown() consumes avgContextTokens only through
 *     llround(max(., 1)) — so keying the cache on the rounded context
 *     loses nothing, and a hit is bit-identical to recomputing. The
 *     fuzz sweeps (batch x context x commBandwidthScale x schedule)
 *     including degraded-link scales and the half = (batch+1)/2
 *     dual-microbatch boundary.
 *
 *  2. End-to-end: full ServingMetrics from cache-on and cache-off
 *     (DSV3_STEP_CACHE=0) runs of the same scenario agree bitwise,
 *     across healthy, chaotic, MTP, and KV-pressure scenarios and
 *     both schedules.
 *
 * The same scenarios also hold the decode commit to itself: each is
 * compiled per (MTP, paged) pair, and a run with a timeline and a
 * flight recorder attached (which adds the step pre-pass) must give
 * the bare run's metrics bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "fault/schedule.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/timeline.hh"

namespace dsv3::inference::serving {
namespace {

ServingFleetConfig
testFleet(Schedule schedule)
{
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 3.35e12;
    fleet.computeFlopsPerSec = 989e12;
    fleet.schedule = schedule;
    fleet.maxBatchPerEngine = 64;
    fleet.prefillServers = 4;
    fleet.prefillTokensPerSecPerServer = 1e6;
    return fleet;
}

void
expectBitIdentical(const DecodeStepBreakdown &a,
                   const DecodeStepBreakdown &b)
{
    // memcmp, not ==: bit-identity is the claim (NaN-proof, -0.0
    // distinct from +0.0).
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << a.totalSeconds << " vs " << b.totalSeconds;
}

TEST(StepCostMemo, ContextRoundingIsExact)
{
    // Grid: batches around the dual-microbatch half boundary, contexts
    // with fractional parts on both sides of .5, scales including the
    // degraded-link values a chaos schedule produces, both schedules.
    const std::size_t batches[] = {1, 2, 3, 63, 64, 65, 127, 128};
    const double contexts[] = {1.0,    1.49,  1.51,   128.0,
                               640.25, 640.5, 640.75, 4096.49,
                               4096.51, 16384.0};
    const double scales[] = {1.0, 0.9, 0.6, 0.25};
    const Schedule schedules[] = {Schedule::SEQUENTIAL,
                                  Schedule::DUAL_MICROBATCH};

    for (Schedule schedule : schedules) {
        const ServingFleetConfig fleet = testFleet(schedule);
        for (std::size_t batch : batches) {
            for (double ctx : contexts) {
                for (double scale : scales) {
                    const DecodeStepBreakdown direct =
                        decodeStepBreakdown(fleet, batch, ctx, scale);
                    // The memo's key derivation: any context with the
                    // same llround(max(., 1)) must produce the same
                    // breakdown, so a hit stored under the rounded
                    // key returns exactly what a miss would compute.
                    const double rounded = (double)std::llround(
                        std::max(ctx, 1.0));
                    expectBitIdentical(
                        direct, decodeStepBreakdown(fleet, batch,
                                                    rounded, scale));
                    // Determinism: recomputing is bit-stable, so
                    // "cached value == computed value" is well posed.
                    expectBitIdentical(
                        direct, decodeStepBreakdown(fleet, batch, ctx,
                                                    scale));
                }
            }
        }
    }
}

TEST(StepCostMemo, DualMicroBatchHalfBoundary)
{
    // half = (batch+1)/2: batch 63 and 64 share half = 32, batch 65
    // bumps to 33. The memo keys on batch (not half), which is safe
    // but must not be *wrong* either: equal-half batches may share a
    // breakdown, different-half batches must differ in their comm
    // floor (comm time scales with per-device batch).
    const ServingFleetConfig fleet =
        testFleet(Schedule::DUAL_MICROBATCH);
    const DecodeStepBreakdown b63 =
        decodeStepBreakdown(fleet, 63, 1024.0, 1.0);
    const DecodeStepBreakdown b64 =
        decodeStepBreakdown(fleet, 64, 1024.0, 1.0);
    const DecodeStepBreakdown b65 =
        decodeStepBreakdown(fleet, 65, 1024.0, 1.0);
    expectBitIdentical(b63, b64); // same half, same per-device load
    EXPECT_NE(b64.commSeconds, b65.commSeconds);
    EXPECT_GT(b65.totalSeconds, b64.totalSeconds);
}

void
expectSummaryBitEqual(const PercentileSummary &a,
                      const PercentileSummary &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.max, b.max);
}

/** Field-by-field exact equality (EXPECT_EQ on doubles is bitwise
 *  for non-NaN values; struct memcmp would read padding). */
void
expectMetricsBitEqual(const ServingMetrics &a, const ServingMetrics &b)
{
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.requestsRejected, b.requestsRejected);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.decodeTokens, b.decodeTokens);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.simSeconds, b.simSeconds);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.requestsFailed, b.requestsFailed);
    EXPECT_EQ(a.requestsStranded, b.requestsStranded);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.engineDeaths, b.engineDeaths);
    EXPECT_EQ(a.engineDowntimeSeconds, b.engineDowntimeSeconds);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.minLiveEngines, b.minLiveEngines);
    expectSummaryBitEqual(a.ttft, b.ttft);
    expectSummaryBitEqual(a.tpot, b.tpot);
    expectSummaryBitEqual(a.goodput, b.goodput);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.sloGoodputTokensPerSecond,
              b.sloGoodputTokensPerSecond);
    EXPECT_EQ(a.kvTotalBlocks, b.kvTotalBlocks);
    EXPECT_EQ(a.kvHighWaterBlocks, b.kvHighWaterBlocks);
    for (std::size_t s = 0; s < kNumRequestStates; ++s) {
        EXPECT_EQ(a.stateSeconds[s], b.stateSeconds[s]) << s;
        expectSummaryBitEqual(a.statePerRequest[s],
                              b.statePerRequest[s]);
    }
    EXPECT_EQ(a.totalLatencySeconds, b.totalLatencySeconds);
    EXPECT_EQ(a.bottleneck, b.bottleneck);
}

/** Run one scenario with the step cache forced on, then forced off,
 *  then on with a timeline and a flight recorder attached, and require
 *  bitwise-equal ServingMetrics; returns the bare run's. */
ServingMetrics
expectCacheTransparent(const ServingFleetConfig &fleet,
                       const TrafficConfig &traffic,
                       std::uint64_t seed)
{
    EXPECT_EQ(setenv("DSV3_STEP_CACHE", "1", 1), 0);
    const ServingMetrics on = simulateServing(fleet, traffic, seed);
    EXPECT_EQ(setenv("DSV3_STEP_CACHE", "0", 1), 0);
    const ServingMetrics off = simulateServing(fleet, traffic, seed);
    EXPECT_EQ(unsetenv("DSV3_STEP_CACHE"), 0);
    expectMetricsBitEqual(on, off);

    ServingFleetConfig observed = fleet;
    obs::Timeline timeline;
    obs::FlightRecorder recorder(256);
    observed.timeline = &timeline;
    observed.recorder = &recorder;
    expectMetricsBitEqual(on, simulateServing(observed, traffic, seed));
    EXPECT_GT(timeline.eventCount(), 0u);
    return on;
}

TrafficConfig
poisson(std::size_t requests, double rate, std::size_t gen)
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = requests;
    traffic.requestsPerSecond = rate;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = gen;
    return traffic;
}

TEST(StepCacheKillSwitch, HealthyBothSchedules)
{
    for (Schedule s :
         {Schedule::SEQUENTIAL, Schedule::DUAL_MICROBATCH})
        expectCacheTransparent(testFleet(s), poisson(200, 8.0, 64),
                               13);
}

TEST(StepCacheKillSwitch, MtpAcceptanceChain)
{
    ServingFleetConfig fleet = testFleet(Schedule::DUAL_MICROBATCH);
    fleet.mtpEnabled = true;
    fleet.mtp.acceptanceRate = 0.8;
    expectCacheTransparent(fleet, poisson(200, 8.0, 64), 17);
}

/** One engine whose KV holds six 384-token sequences, under a
 *  16-sequence closed loop: growth preempts every few steps. */
ServingFleetConfig
kvPressureFleet()
{
    ServingFleetConfig fleet = testFleet(Schedule::DUAL_MICROBATCH);
    fleet.kvBudgetBytesPerEngine =
        model::kvCacheBytesPerToken(model::deepSeekV3()) * 6.0 * 384.0;
    fleet.kvBlockTokens = 32;
    fleet.maxBatchPerEngine = 16;
    return fleet;
}

TrafficConfig
kvPressureTraffic()
{
    TrafficConfig closed;
    closed.process = ArrivalProcess::CLOSED_LOOP;
    closed.requests = 64;
    closed.closedLoopConcurrency = 16;
    closed.promptTokensMin = closed.promptTokensMax = 128;
    closed.genTokensMin = closed.genTokensMax = 256;
    return closed;
}

TEST(StepCacheKillSwitch, KvPressurePreemption)
{
    const ServingMetrics m =
        expectCacheTransparent(kvPressureFleet(), kvPressureTraffic(), 7);
    EXPECT_GT(m.preemptions, 0u);
}

TEST(StepCacheKillSwitch, MtpUnderKvPressure)
{
    // MTP draws with a preemption cascade: the only scenario that runs
    // the (MTP, paged) commit, so its integer outcomes are pinned.
    ServingFleetConfig fleet = kvPressureFleet();
    fleet.mtpEnabled = true;
    fleet.mtp.acceptanceRate = 0.8;
    const ServingMetrics m =
        expectCacheTransparent(fleet, kvPressureTraffic(), 7);
    EXPECT_EQ(m.requestsCompleted, 64u);
    EXPECT_EQ(m.decodeSteps, 1132u);
    EXPECT_EQ(m.decodeTokens, 16320u);
    EXPECT_EQ(m.preemptions, 108u);
}

TEST(StepCacheKillSwitch, ChaosDegradedLinks)
{
    // Degraded links feed non-1.0 commBandwidthScale values into the
    // memo key; crashes void parked engine events. Both must stay
    // transparent to the cache.
    ServingFleetConfig fleet = testFleet(Schedule::DUAL_MICROBATCH);
    fault::FaultRates rates;
    rates.rankFailPerHour = 60.0;
    rates.rankRepairSec = 10.0;
    rates.linkDegradePerHour = 60.0;
    rates.degradeFactor = 0.6;
    rates.linkRepairSec = 10.0;
    fleet.decodeEngines = 4;
    fleet.chaos.schedule = fault::FaultSchedule::generate(
        servingFaultDomain(4), rates, 600.0, 23);
    expectCacheTransparent(fleet, poisson(400, 4.0, 32), 29);
}

} // namespace
} // namespace dsv3::inference::serving
