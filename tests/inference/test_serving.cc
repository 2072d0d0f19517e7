/**
 * @file
 * Tests for the event-driven serving-fleet simulator: traffic-trace
 * determinism, KV-pager budget invariants, closed-loop convergence to
 * the analytic epSpeedLimit/mtpAnalytic models, preemption under KV
 * pressure, and byte-identical results across thread widths.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/sweep.hh"
#include "common/thread_pool.hh"
#include "ep/speed_limit.hh"
#include "inference/mtp.hh"
#include "inference/serving/kv_pager.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace dsv3::inference::serving {
namespace {

// Traffic ---------------------------------------------------------------

TEST(ServingTraffic, SameSeedSameTrace)
{
    TrafficConfig cfg;
    cfg.requests = 500;
    Rng a(7), b(7), c(8);
    auto ta = generateTrace(cfg, a);
    auto tb = generateTrace(cfg, b);
    auto tc = generateTrace(cfg, c);
    ASSERT_EQ(ta.size(), tb.size());
    bool differs = false;
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_DOUBLE_EQ(ta[i].arrivalSeconds, tb[i].arrivalSeconds);
        EXPECT_EQ(ta[i].promptTokens, tb[i].promptTokens);
        EXPECT_EQ(ta[i].genTokens, tb[i].genTokens);
        differs |= ta[i].arrivalSeconds != tc[i].arrivalSeconds;
    }
    EXPECT_TRUE(differs) << "different seeds gave identical traces";
}

TEST(ServingTraffic, ArrivalsNondecreasingAllProcesses)
{
    for (ArrivalProcess p :
         {ArrivalProcess::POISSON, ArrivalProcess::DIURNAL,
          ArrivalProcess::BURSTY}) {
        TrafficConfig cfg;
        cfg.process = p;
        cfg.requests = 2000;
        Rng rng(11);
        auto trace = generateTrace(cfg, rng);
        for (std::size_t i = 1; i < trace.size(); ++i)
            ASSERT_GE(trace[i].arrivalSeconds,
                      trace[i - 1].arrivalSeconds)
                << arrivalProcessName(p) << " at " << i;
        for (const Request &r : trace) {
            ASSERT_GE(r.promptTokens, cfg.promptTokensMin);
            ASSERT_LE(r.promptTokens, cfg.promptTokensMax);
            ASSERT_GE(r.genTokens, cfg.genTokensMin);
            ASSERT_LE(r.genTokens, cfg.genTokensMax);
        }
    }
}

TEST(ServingTraffic, OpenLoopMeanRateApproximatelyConfigured)
{
    for (ArrivalProcess p :
         {ArrivalProcess::POISSON, ArrivalProcess::BURSTY}) {
        TrafficConfig cfg;
        cfg.process = p;
        cfg.requests = 20000;
        cfg.requestsPerSecond = 10.0;
        Rng rng(3);
        auto trace = generateTrace(cfg, rng);
        double span = trace.back().arrivalSeconds;
        double rate = (double)trace.size() / span;
        EXPECT_NEAR(rate, cfg.requestsPerSecond,
                    0.15 * cfg.requestsPerSecond)
            << arrivalProcessName(p);
    }
}

TEST(ServingTraffic, BurstyHasHigherInterarrivalVariance)
{
    auto interarrival_cv2 = [](ArrivalProcess p) {
        TrafficConfig cfg;
        cfg.process = p;
        cfg.requests = 20000;
        Rng rng(5);
        auto trace = generateTrace(cfg, rng);
        double mean = 0.0, m2 = 0.0;
        std::vector<double> gaps;
        for (std::size_t i = 1; i < trace.size(); ++i)
            gaps.push_back(trace[i].arrivalSeconds -
                           trace[i - 1].arrivalSeconds);
        for (double g : gaps)
            mean += g;
        mean /= (double)gaps.size();
        for (double g : gaps)
            m2 += (g - mean) * (g - mean);
        m2 /= (double)gaps.size();
        return m2 / (mean * mean);
    };
    // Poisson interarrivals have CV^2 == 1; the on/off modulated
    // process is overdispersed.
    EXPECT_NEAR(interarrival_cv2(ArrivalProcess::POISSON), 1.0, 0.15);
    EXPECT_GT(interarrival_cv2(ArrivalProcess::BURSTY), 1.5);
}

TEST(ServingTraffic, ClosedLoopSentinels)
{
    TrafficConfig cfg;
    cfg.process = ArrivalProcess::CLOSED_LOOP;
    cfg.requests = 100;
    cfg.closedLoopConcurrency = 16;
    Rng rng(9);
    auto trace = generateTrace(cfg, rng);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i < cfg.closedLoopConcurrency)
            EXPECT_DOUBLE_EQ(trace[i].arrivalSeconds, 0.0);
        else
            EXPECT_TRUE(std::isinf(trace[i].arrivalSeconds));
    }
}

// KV pager --------------------------------------------------------------

TEST(ServingKvPager, BlockArithmetic)
{
    KvPagerConfig cfg;
    cfg.budgetBytes = 1e6;
    cfg.bytesPerToken = 100.0;
    cfg.blockTokens = 16;
    KvPager pager(cfg);
    EXPECT_EQ(pager.blocksFor(1), 1u);
    EXPECT_EQ(pager.blocksFor(16), 1u);
    EXPECT_EQ(pager.blocksFor(17), 2u);
    // 1600 bytes per block -> 625 blocks in 1e6 bytes.
    EXPECT_EQ(pager.totalBlocks(), 625u);
    EXPECT_LE((double)pager.totalBlocks() * pager.blockBytes(),
              cfg.budgetBytes);
}

TEST(ServingKvPager, BudgetNeverExceededUnderRandomOps)
{
    // The budget is derived through maxContextTokens(): the pager must
    // respect the same byte model the analytic calculators use.
    model::ModelConfig cfg = model::deepSeekV3();
    const double budget = 16.0 * 1024 * 1024 * 1024; // 16 GiB of KV
    const std::size_t max_ctx = model::maxContextTokens(cfg, budget);
    ASSERT_GT(max_ctx, 0u);

    KvPagerConfig pc;
    pc.budgetBytes = budget;
    pc.bytesPerToken = model::kvCacheBytesPerToken(cfg);
    pc.blockTokens = 64;
    KvPager pager(pc);

    Rng rng(17);
    std::vector<std::size_t> live;
    std::vector<std::size_t> tokens(4096, 0);
    std::vector<std::uint32_t> held(4096, 0);
    std::size_t next_id = 0;
    for (int op = 0; op < 20000; ++op) {
        ASSERT_LE(pager.usedBytes(), budget);
        ASSERT_LE(pager.usedBlocks(), pager.totalBlocks());
        ASSERT_LE(pager.highWaterBlocks(), pager.totalBlocks());
        const double roll = rng.nextDouble();
        if (roll < 0.4 || live.empty()) {
            std::size_t id = next_id++;
            std::size_t toks =
                64 + (std::size_t)rng.nextBounded(8192);
            if (id < tokens.size() &&
                pager.tryAllocate(held[id], toks)) {
                tokens[id] = toks;
                live.push_back(id);
            }
        } else if (roll < 0.8) {
            std::size_t pick =
                (std::size_t)rng.nextBounded(live.size());
            std::size_t id = live[pick];
            tokens[id] += 1 + (std::size_t)rng.nextBounded(256);
            if (!pager.tryGrow(held[id], tokens[id])) {
                pager.release(held[id]);
                live.erase(live.begin() + (std::ptrdiff_t)pick);
            }
        } else {
            std::size_t pick =
                (std::size_t)rng.nextBounded(live.size());
            pager.release(held[live[pick]]);
            live.erase(live.begin() + (std::ptrdiff_t)pick);
        }
    }
    EXPECT_GT(pager.highWaterBlocks(), 0u);
    std::size_t held_sum = 0;
    for (std::uint32_t h : held)
        held_sum += h;
    EXPECT_EQ(pager.usedBlocks(), held_sum);
}

/** 16-token blocks of 100 bytes per token, 10 blocks in all. */
KvPager
tenBlockPager()
{
    KvPagerConfig cfg;
    cfg.budgetBytes = 16000.0;
    cfg.bytesPerToken = 100.0;
    cfg.blockTokens = 16;
    return KvPager(cfg);
}

TEST(ServingKvPager, ReleaseReturnsHeldBlocksAndZeroesCount)
{
    KvPager pager = tenBlockPager();
    std::uint32_t a = 0, b = 0;
    ASSERT_TRUE(pager.tryAllocate(a, 40)); // 3 blocks
    ASSERT_TRUE(pager.tryAllocate(b, 20)); // 2 blocks
    EXPECT_EQ(a, 3u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(pager.usedBlocks(), 5u);
    pager.release(a);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(pager.usedBlocks(), 2u);
    EXPECT_EQ(pager.freeBlocks(), 8u);
    EXPECT_EQ(pager.highWaterBlocks(), 5u);
    // A released count allocates afresh.
    EXPECT_TRUE(pager.tryAllocate(a, 16));
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(pager.usedBlocks(), 3u);
}

TEST(ServingKvPager, GrowthWithinHeldBlocksTakesNothing)
{
    KvPager pager = tenBlockPager();
    std::uint32_t held = 0;
    ASSERT_TRUE(pager.tryAllocate(held, 17)); // 2 blocks
    EXPECT_TRUE(pager.tryGrow(held, 32));
    EXPECT_TRUE(pager.tryGrow(held, 5));
    EXPECT_EQ(held, 2u);
    EXPECT_EQ(pager.usedBlocks(), 2u);
    EXPECT_TRUE(pager.tryGrow(held, 33));
    EXPECT_EQ(held, 3u);
    EXPECT_EQ(pager.usedBlocks(), 3u);
    // All-or-nothing: 11 blocks do not fit, and nothing moves.
    EXPECT_FALSE(pager.tryGrow(held, 11 * 16));
    EXPECT_EQ(held, 3u);
    EXPECT_EQ(pager.usedBlocks(), 3u);
}

TEST(ServingKvPager, UnlimitedWhenNoBudget)
{
    KvPagerConfig cfg;
    KvPager pager(cfg);
    EXPECT_TRUE(pager.unlimited());
    std::uint32_t held = 0;
    EXPECT_TRUE(pager.tryAllocate(held, 1u << 30));
    EXPECT_TRUE(pager.tryGrow(held, 1u << 31));
    EXPECT_EQ(held, 0u);
    pager.release(held);
    EXPECT_EQ(held, 0u);
    EXPECT_EQ(pager.usedBlocks(), 0u);
    EXPECT_TRUE(pager.fitsEver(1u << 30));
}

TEST(ServingKvPagerDeathTest, AllocateIntoNonzeroCountDies)
{
    KvPager pager = tenBlockPager();
    std::uint32_t held = 0;
    ASSERT_TRUE(pager.tryAllocate(held, 16));
    EXPECT_DEATH(pager.tryAllocate(held, 16),
                 "sequence already resident");
}

TEST(ServingKvPagerDeathTest, BudgetOver32BitBlockCountsRejected)
{
    // One byte per block: the budget in bytes is the block count.
    KvPagerConfig cfg;
    cfg.bytesPerToken = 1.0;
    cfg.blockTokens = 1;
    cfg.budgetBytes = 0x1p32 - 1.0;
    EXPECT_EQ(KvPager(cfg).totalBlocks(), 0xFFFFFFFFu);
    cfg.budgetBytes = 0x1p32;
    EXPECT_DEATH(KvPager{cfg}, "overflows the 32-bit");
    cfg.budgetBytes = 0x1p40;
    EXPECT_DEATH(KvPager{cfg}, "overflows the 32-bit");
}

// Closed-loop convergence ----------------------------------------------

/**
 * Comm-bound fleet: memory/compute rooflines vanish so every step is
 * the Sec 2.3.2 all-to-all floor. Closed loop at 2x batchPerDevice
 * (two micro-batches of 32) must reproduce epSpeedLimit() exactly.
 */
ServingFleetConfig
commBoundFleet()
{
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 1e30;
    fleet.computeFlopsPerSec = 0.0;
    fleet.schedule = Schedule::DUAL_MICROBATCH;
    fleet.deployment = Deployment::DISAGGREGATED;
    fleet.maxBatchPerEngine = 64;
    fleet.prefillServers = 64;
    fleet.prefillTokensPerSecPerServer = 1e9;
    fleet.kvHandoffSeconds = 0.0;
    return fleet;
}

TrafficConfig
closedLoopTraffic(std::size_t requests, std::size_t gen)
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = requests;
    traffic.closedLoopConcurrency = 64;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = gen;
    return traffic;
}

TEST(ServingSim, DecodeStepMatchesSpeedLimitCommBound)
{
    ServingFleetConfig fleet = commBoundFleet();
    ep::SpeedLimit analytic = ep::epSpeedLimit(fleet.comm);
    // Batch 64 = two micro-batches of comm.batchPerDevice (32).
    double step = decodeStepSeconds(fleet, 64, 4096.0);
    EXPECT_NEAR(step, analytic.tpotSeconds,
                1e-9 * analytic.tpotSeconds);
}

TEST(ServingSim, ClosedLoopTpotReproducesSpeedLimit)
{
    // The fabrics of bench_serving's speed-limit table: CX7 IB 400G
    // and GB200 NVL72.
    for (double bw : {50e9, 900e9}) {
        ServingFleetConfig fleet = commBoundFleet();
        fleet.comm.bandwidthBytesPerSec = bw;
        ServingMetrics m =
            simulateServing(fleet, closedLoopTraffic(128, 128), 42);
        EXPECT_EQ(m.requestsCompleted, 128u);
        ep::SpeedLimit analytic = ep::epSpeedLimit(fleet.comm);
        EXPECT_NEAR(m.tpot.p50, analytic.tpotSeconds,
                    0.01 * analytic.tpotSeconds) << bw;
        EXPECT_NEAR(m.tpot.mean, analytic.tpotSeconds,
                    0.01 * analytic.tpotSeconds) << bw;
    }
}

TEST(ServingSim, ClosedLoopMtpReproducesAnalyticSpeedup)
{
    ServingFleetConfig fleet = commBoundFleet();
    TrafficConfig traffic = closedLoopTraffic(256, 256);

    ServingMetrics plain = simulateServing(fleet, traffic, 42);
    // The acceptance rates of bench_serving's MTP table.
    for (double accept : {0.70, 0.80, 0.85, 0.90}) {
        fleet.mtpEnabled = true;
        fleet.mtp.acceptanceRate = accept;
        ServingMetrics mtp = simulateServing(fleet, traffic, 42);

        double measured =
            mtp.tokensPerSecond / plain.tokensPerSecond;
        double analytic = mtpAnalytic(fleet.mtp).speedup;
        EXPECT_NEAR(measured, analytic, 0.01 * analytic) << accept;
    }
}

TEST(ServingSim, OverlapWinsWhenCommSignificant)
{
    // When the all-to-all floor dominates, dual micro-batching hides
    // compute under comm and the sequential schedule pays both.
    ServingFleetConfig fleet = commBoundFleet();
    fleet.memBytesPerSec = 1e14; // compute visible but below comm
    TrafficConfig traffic = closedLoopTraffic(64, 64);
    ServingMetrics dual = simulateServing(fleet, traffic, 1);
    fleet.schedule = Schedule::SEQUENTIAL;
    ServingMetrics seq = simulateServing(fleet, traffic, 1);
    EXPECT_GT(seq.tpot.p50, dual.tpot.p50);
}

TEST(ServingSim, OverlapLosesWhenMemoryBound)
{
    // With negligible comm the split de-amortizes MoE weights: each
    // half-batch streams ~64% of the expert pool where the full batch
    // streams ~87% once, so sequential is the right schedule.
    ServingFleetConfig fleet = commBoundFleet();
    fleet.memBytesPerSec = 3.35e12;
    fleet.comm.bandwidthBytesPerSec = 1e15; // comm ~ free
    TrafficConfig traffic = closedLoopTraffic(64, 64);
    ServingMetrics dual = simulateServing(fleet, traffic, 1);
    fleet.schedule = Schedule::SEQUENTIAL;
    ServingMetrics seq = simulateServing(fleet, traffic, 1);
    EXPECT_LT(seq.tpot.p50, dual.tpot.p50);
}

// KV pressure -----------------------------------------------------------

TEST(ServingSim, PreemptsUnderKvPressureAndStaysInBudget)
{
    ServingFleetConfig fleet = commBoundFleet();
    fleet.prefillTokensPerSecPerServer = 1e6;
    // Budget fits ~6 full sequences of 128+256 tokens; run 16
    // concurrent so growth collides.
    const double per_tok =
        model::kvCacheBytesPerToken(fleet.modelConfig);
    fleet.kvBudgetBytesPerEngine = per_tok * 6.0 * 384.0;
    fleet.kvBlockTokens = 32;
    fleet.maxBatchPerEngine = 16;

    TrafficConfig traffic = closedLoopTraffic(64, 256);
    traffic.closedLoopConcurrency = 16;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;

    ServingMetrics m = simulateServing(fleet, traffic, 7);
    EXPECT_EQ(m.requestsCompleted + m.requestsRejected, 64u);
    EXPECT_EQ(m.requestsRejected, 0u);
    EXPECT_GT(m.preemptions, 0u);
    EXPECT_GT(m.kvTotalBlocks, 0u);
    EXPECT_LE(m.kvHighWaterBlocks, m.kvTotalBlocks);
}

TEST(ServingSim, RejectsSequencesThatCanNeverFit)
{
    ServingFleetConfig fleet = commBoundFleet();
    fleet.prefillTokensPerSecPerServer = 1e6;
    const double per_tok =
        model::kvCacheBytesPerToken(fleet.modelConfig);
    fleet.kvBudgetBytesPerEngine = per_tok * 256.0; // tiny
    TrafficConfig traffic = closedLoopTraffic(8, 512);
    traffic.closedLoopConcurrency = 4;
    traffic.promptTokensMin = traffic.promptTokensMax = 4096;
    ServingMetrics m = simulateServing(fleet, traffic, 3);
    EXPECT_EQ(m.requestsRejected, 8u);
    EXPECT_EQ(m.requestsCompleted, 0u);
}

// Deployment comparison -------------------------------------------------

TEST(ServingSim, ColocationInflatesTpotVsDisaggregation)
{
    ServingFleetConfig fleet = commBoundFleet();
    fleet.prefillServers = 1;
    fleet.prefillTokensPerSecPerServer = 12000.0;
    fleet.kvHandoffSeconds = 0.05;
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 200;
    traffic.requestsPerSecond = 2.0;
    traffic.promptTokensMin = 2048;
    traffic.promptTokensMax = 8192;
    traffic.genTokensMin = traffic.genTokensMax = 128;

    ServingMetrics disagg = simulateServing(fleet, traffic, 5);
    fleet.deployment = Deployment::COLOCATED;
    ServingMetrics coloc = simulateServing(fleet, traffic, 5);

    EXPECT_EQ(disagg.requestsCompleted, 200u);
    EXPECT_EQ(coloc.requestsCompleted, 200u);
    // Interleaved prefill chunks stretch decode steps (Sec 2.3.1).
    EXPECT_GT(coloc.tpot.p50, disagg.tpot.p50);
    // The handoff delay is the disaggregation tax on TTFT when the
    // prefill pool itself is not the bottleneck.
    EXPECT_GT(disagg.ttft.mean, 0.0);
}

// Determinism -----------------------------------------------------------

std::vector<double>
metricsFingerprint(const ServingMetrics &m)
{
    return {(double)m.requestsCompleted, (double)m.requestsRejected,
            (double)m.decodeSteps, (double)m.decodeTokens,
            (double)m.preemptions, m.simSeconds, m.ttft.mean,
            m.ttft.p50, m.ttft.p95, m.ttft.p99, m.tpot.mean,
            m.tpot.p50, m.tpot.p95, m.tpot.p99, m.goodput.p50,
            m.tokensPerSecond, m.sloGoodputTokensPerSecond,
            (double)m.kvHighWaterBlocks};
}

TEST(ServingSim, ByteIdenticalAcrossThreadWidthsAndReruns)
{
    const ArrivalProcess procs[] = {ArrivalProcess::POISSON,
                                    ArrivalProcess::DIURNAL,
                                    ArrivalProcess::BURSTY};
    const Deployment deps[] = {Deployment::DISAGGREGATED,
                               Deployment::COLOCATED};

    auto run_grid = [&]() {
        std::vector<std::vector<double>> out(6);
        runSweepGrid(3, 2, [&](const SweepPoint &p) {
            ServingFleetConfig fleet = commBoundFleet();
            fleet.deployment = deps[p.col];
            fleet.prefillServers = 2;
            fleet.prefillTokensPerSecPerServer = 24000.0;
            TrafficConfig traffic;
            traffic.process = procs[p.row];
            traffic.requests = 300;
            traffic.requestsPerSecond = 4.0;
            traffic.genTokensMin = 64;
            traffic.genTokensMax = 256;
            ServingMetrics m = simulateServing(
                fleet, traffic, 1000 + p.index);
            out[p.index] = metricsFingerprint(m);
        });
        return out;
    };

    setParallelForWidth(1);
    auto w1 = run_grid();
    setParallelForWidth(2);
    auto w2 = run_grid();
    setParallelForWidth(0);
    auto whw = run_grid();
    auto whw2 = run_grid();
    setParallelForWidth(0);

    for (std::size_t i = 0; i < w1.size(); ++i) {
        ASSERT_EQ(w1[i].size(), w2[i].size());
        for (std::size_t j = 0; j < w1[i].size(); ++j) {
            // Bitwise equality, not approximate.
            EXPECT_EQ(std::memcmp(&w1[i][j], &w2[i][j],
                                  sizeof(double)), 0)
                << "cell " << i << " field " << j;
            EXPECT_EQ(std::memcmp(&w1[i][j], &whw[i][j],
                                  sizeof(double)), 0);
            EXPECT_EQ(std::memcmp(&whw[i][j], &whw2[i][j],
                                  sizeof(double)), 0);
        }
    }
}

TEST(ServingSim, DifferentSeedsDifferentOpenLoopMetrics)
{
    ServingFleetConfig fleet = commBoundFleet();
    fleet.prefillServers = 2;
    fleet.prefillTokensPerSecPerServer = 24000.0;
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 200;
    ServingMetrics a = simulateServing(fleet, traffic, 1);
    ServingMetrics b = simulateServing(fleet, traffic, 2);
    EXPECT_NE(a.simSeconds, b.simSeconds);
}

// Time-in-state attribution ---------------------------------------------

/** Realistic contended open-loop scenario exercising every state. */
ServingFleetConfig
contendedFleet()
{
    ServingFleetConfig fleet = commBoundFleet();
    fleet.memBytesPerSec = 3.35e12;
    fleet.prefillServers = 2;
    fleet.prefillTokensPerSecPerServer = 24000.0;
    fleet.kvHandoffSeconds = 0.05;
    const double per_tok =
        model::kvCacheBytesPerToken(fleet.modelConfig);
    fleet.kvBudgetBytesPerEngine = per_tok * 12.0 * 384.0;
    fleet.kvBlockTokens = 32;
    fleet.maxBatchPerEngine = 24;
    return fleet;
}

TrafficConfig
contendedTraffic()
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 200;
    traffic.requestsPerSecond = 6.0;
    traffic.genTokensMin = 64;
    traffic.genTokensMax = 256;
    return traffic;
}

TEST(ServingAttribution, StateTimesSumToTotalLatency)
{
    for (Deployment dep :
         {Deployment::DISAGGREGATED, Deployment::COLOCATED}) {
        ServingFleetConfig fleet = contendedFleet();
        fleet.deployment = dep;
        ServingMetrics m =
            simulateServing(fleet, contendedTraffic(), 21);
        ASSERT_GT(m.requestsCompleted, 0u);
        ASSERT_GT(m.preemptions, 0u)
            << "scenario must exercise the STALLED state";

        double sum = 0.0;
        for (std::size_t s = 0; s < kNumRequestStates; ++s)
            sum += m.stateSeconds[s];
        EXPECT_GT(m.totalLatencySeconds, 0.0);
        EXPECT_NEAR(sum, m.totalLatencySeconds,
                    1e-9 * m.totalLatencySeconds)
            << deploymentName(dep);

        // Every per-state digest covers every completed request, and
        // its exact moments are consistent with the summed total.
        for (std::size_t s = 0; s < kNumRequestStates; ++s) {
            const PercentileSummary &d = m.statePerRequest[s];
            EXPECT_EQ(d.count, m.requestsCompleted)
                << requestStateName((RequestState)s);
            EXPECT_NEAR(d.mean * (double)d.count, m.stateSeconds[s],
                        1e-6 * std::max(1.0, m.stateSeconds[s]));
            EXPECT_LE(d.p50, d.max * (1.0 + 1e-12));
        }
    }
}

/** summarize() as it was before selection: accumulate, full sort,
 *  percentile() on the sorted copy, max from its back. */
PercentileSummary
sortedSummary(std::vector<double> values)
{
    PercentileSummary s;
    s.count = values.size();
    if (values.empty())
        return s;
    double sum = 0.0;
    for (double x : values)
        sum += x;
    s.mean = sum / (double)values.size();
    std::sort(values.begin(), values.end());
    s.p50 = percentile(values, 50.0);
    s.p95 = percentile(values, 95.0);
    s.p99 = percentile(values, 99.0);
    s.max = values.back();
    return s;
}

TEST(ServingSummary, SelectionMatchesSortedSummary)
{
    Rng rng(0x5a11ull);
    std::vector<std::vector<double>> inputs = {
        {}, {3.5}, {2.0, 1.0}, {5.0, 1.0, 3.0}, {4.0, 1.0, 3.0, 2.0},
        std::vector<double>(99, 0.25), std::vector<double>(100, 0.0)};
    for (std::size_t n : {7u, 100u, 1001u, 20000u}) {
        std::vector<double> skewed(n), tied(n), smooth(n);
        for (std::size_t i = 0; i < n; ++i) {
            skewed[i] = rng.bernoulli(0.95) ? 0.0 : rng.exponential(0.1);
            tied[i] = (double)rng.nextBounded(3);
            smooth[i] = rng.uniform(0.0, 1.0);
        }
        inputs.push_back(skewed);
        inputs.push_back(tied);
        inputs.push_back(smooth);
    }
    for (const std::vector<double> &v : inputs) {
        const PercentileSummary want = sortedSummary(v);
        const PercentileSummary got = summarize(v);
        const double w[] = {want.mean, want.p50, want.p95, want.p99,
                            want.max};
        const double g[] = {got.mean, got.p50, got.p95, got.p99,
                            got.max};
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(std::memcmp(w, g, sizeof w), 0) << "n=" << v.size();
    }
}

TEST(ServingAttribution, BottleneckVerdictTracksRegime)
{
    // Comm-bound: all-to-all floor is the only per-step cost.
    ServingFleetConfig comm = commBoundFleet();
    ServingMetrics m_comm =
        simulateServing(comm, closedLoopTraffic(64, 128), 11);
    EXPECT_EQ(m_comm.bottleneck, Bottleneck::COMM)
        << bottleneckName(m_comm.bottleneck);

    // Memory-bound sequential decode with free comm: compute-bound.
    ServingFleetConfig cpu = commBoundFleet();
    cpu.memBytesPerSec = 3.35e12;
    cpu.comm.bandwidthBytesPerSec = 1e18;
    cpu.schedule = Schedule::SEQUENTIAL;
    ServingMetrics m_cpu =
        simulateServing(cpu, closedLoopTraffic(64, 128), 11);
    EXPECT_EQ(m_cpu.bottleneck, Bottleneck::COMPUTE)
        << bottleneckName(m_cpu.bottleneck);

    // A starved prefill pool piles requests into the queue.
    ServingFleetConfig queued = commBoundFleet();
    queued.prefillServers = 1;
    queued.prefillTokensPerSecPerServer = 2000.0;
    TrafficConfig heavy = contendedTraffic();
    heavy.promptTokensMin = 2048;
    heavy.promptTokensMax = 8192;
    ServingMetrics m_q = simulateServing(queued, heavy, 11);
    EXPECT_EQ(m_q.bottleneck, Bottleneck::QUEUE)
        << bottleneckName(m_q.bottleneck);
}

TEST(ServingAttribution, DecodeStepBreakdownIsExact)
{
    ServingFleetConfig fleets[] = {commBoundFleet(), contendedFleet()};
    fleets[1].schedule = Schedule::SEQUENTIAL;
    for (const ServingFleetConfig &fleet : fleets) {
        for (std::size_t batch : {1u, 8u, 64u}) {
            for (double ctx : {128.0, 4096.0}) {
                DecodeStepBreakdown bd =
                    decodeStepBreakdown(fleet, batch, ctx);
                const double step =
                    decodeStepSeconds(fleet, batch, ctx);
                // Bitwise: the breakdown must not perturb event times.
                EXPECT_EQ(std::memcmp(&bd.totalSeconds, &step,
                                      sizeof(double)), 0)
                    << scheduleName(fleet.schedule) << " b=" << batch;
                EXPECT_DOUBLE_EQ(
                    bd.computeSeconds + bd.commSeconds,
                    bd.totalSeconds);
                EXPECT_GE(bd.computeSeconds, 0.0);
                EXPECT_GE(bd.commSeconds, 0.0);
            }
        }
    }
}

// Sim-time timeline + flight recorder ------------------------------------


TEST(ServingObservability, TimelineByteIdenticalAcrossWidthsAndReruns)
{
    auto capture = [&]() {
        ServingFleetConfig fleet = contendedFleet();
        obs::Timeline timeline;
        fleet.timeline = &timeline;
        simulateServing(fleet, contendedTraffic(), 21);
        return timeline.chromeJson();
    };

    setParallelForWidth(1);
    std::string w1 = capture();
    setParallelForWidth(2);
    std::string w2 = capture();
    setParallelForWidth(0);
    std::string whw = capture();
    std::string rerun = capture();
    EXPECT_EQ(w1, w2);
    EXPECT_EQ(w1, whw);
    EXPECT_EQ(w1, rerun);
    EXPECT_GT(w1.size(), 2u);
}

TEST(ServingObservability, TimelineCoversFleetRequestAndFlowTracks)
{
    ServingFleetConfig fleet = contendedFleet();
    obs::Timeline timeline;
    obs::FlightRecorder recorder(256);
    fleet.timeline = &timeline;
    fleet.recorder = &recorder; // its gauges export as counter events
    ServingMetrics m = simulateServing(fleet, contendedTraffic(), 21);
    ASSERT_GT(m.preemptions, 0u);
    EXPECT_GT(timeline.eventCount(), 0u);
    EXPECT_EQ(timeline.droppedCount(), 0u);

    const std::string json = timeline.chromeJson();
    // Lifecycle slices, engine slices, flows and markers all present.
    for (const char *needle :
         {"\"decode.step\"", "\"decode.compute\"", "\"decode.comm\"",
          "\"prefill\"", "\"kv.handoff\"", "\"preempt\"",
          "\"preempt.recompute\"", "\"queue.wait\"",
          "\"bp\":\"e\"", "\"ph\":\"s\"", "\"ph\":\"M\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }

    // Well-formed Chrome trace JSON: every phase the simulator emits
    // (metadata, slices, async prefill, instants, counters, flows),
    // every event on a process, every non-metadata event timestamped.
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(json, &doc, &err)) << err;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind(), obs::JsonValue::Kind::ARRAY);
    ASSERT_FALSE(events->array().empty());
    std::set<std::string> phases;
    for (const obs::JsonValue &ev : events->array()) {
        const obs::JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        phases.insert(ph->str());
        EXPECT_NE(ev.find("pid"), nullptr) << ph->str();
        if (ph->str() != "M") {
            EXPECT_NE(ev.find("ts"), nullptr) << ph->str();
        }
    }
    for (const char *ph : {"M", "X", "b", "e", "i", "C", "s", "f"})
        EXPECT_EQ(phases.count(ph), 1u) << ph;
}

TEST(ServingObservability, TimelineSamplingThinsRequestTracks)
{
    ServingFleetConfig fleet = contendedFleet();
    obs::Timeline all;
    fleet.timeline = &all;
    simulateServing(fleet, contendedTraffic(), 21);

    obs::Timeline::Config cfg;
    cfg.sampleEvery = 8;
    obs::Timeline thinned(cfg);
    fleet.timeline = &thinned;
    simulateServing(fleet, contendedTraffic(), 21);

    EXPECT_LT(thinned.eventCount(), all.eventCount() / 2);
    EXPECT_GT(thinned.eventCount(), 0u);

    // Sampling must not perturb the simulation itself.
    ServingFleetConfig bare = contendedFleet();
    ServingMetrics m_bare =
        simulateServing(bare, contendedTraffic(), 21);
    fleet.timeline = nullptr;
    ServingMetrics m_obs = simulateServing(fleet, contendedTraffic(), 21);
    EXPECT_EQ(m_bare.simSeconds, m_obs.simSeconds);
    EXPECT_EQ(m_bare.decodeSteps, m_obs.decodeSteps);
}

TEST(ServingObservability, FlightRecorderCapturesFleetGauges)
{
    ServingFleetConfig fleet = contendedFleet();
    obs::FlightRecorder recorder(128);
    fleet.recorder = &recorder;
    fleet.recorderIntervalSeconds = 0.1;
    ServingMetrics m = simulateServing(fleet, contendedTraffic(), 21);
    ASSERT_GT(m.simSeconds, 1.0);

    std::vector<std::string> chans = recorder.channels();
    auto has = [&](const char *name) {
        for (const std::string &c : chans)
            if (c == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("inference.serving.resident"));
    EXPECT_TRUE(has("inference.serving.ready_queue"));
    EXPECT_TRUE(has("inference.serving.prefill_queue"));
    EXPECT_TRUE(has("inference.serving.tokens_per_sec"));
    EXPECT_TRUE(has("inference.serving.kv_free_blocks"));

    // Samples land on the configured cadence within the sim span.
    auto samples = recorder.samples("inference.serving.resident");
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GT(samples[i].t, samples[i - 1].t);
    EXPECT_LE(samples.back().t, m.simSeconds + 0.1);
}

} // namespace
} // namespace dsv3::inference::serving
