/**
 * @file
 * Discrete-event checkpoint/restart trainer and the Monte-Carlo
 * validation of the Sec 6.1 Young/Daly reliability model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.hh"
#include "fault/schedule.hh"
#include "pipeline/fault_trainer.hh"
#include "pipeline/reliability.hh"

namespace dsv3::pipeline {
namespace {

FaultTrainerConfig
baseConfig()
{
    FaultTrainerConfig cfg;
    cfg.horizonSec = 100000.0;
    cfg.checkpointIntervalSec = 1000.0;
    cfg.checkpointCostSec = 10.0;
    cfg.restartCostSec = 100.0;
    return cfg;
}

fault::FaultSchedule
singleEvent(fault::FaultKind kind, double time, std::size_t rank = 0)
{
    fault::FaultEvent e;
    e.kind = kind;
    e.time = time;
    e.rank = rank;
    return fault::FaultSchedule({e});
}

TEST(FaultTrainer, NoFaultsGoodputIsCheckpointDutyCycle)
{
    FaultTrainerConfig cfg = baseConfig();
    FaultTrainerResult r = replayFaultSchedule(cfg, {});
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.restarts, 0u);
    EXPECT_EQ(r.lostSec, 0.0);
    // Steady state: 1000s training + 10s checkpointing per period.
    EXPECT_NEAR(r.goodput, 1000.0 / 1010.0, 1e-3);
    EXPECT_NEAR((double)r.checkpoints, 100000.0 / 1010.0, 1.0);
}

TEST(FaultTrainer, SingleFailureRollsBackToNewestCheckpoint)
{
    FaultTrainerConfig cfg = baseConfig();
    cfg.horizonSec = 3000.0;
    // Period boundary (ckpt done) at t=1010 with 1000s trained.
    // Crash at t=1510: 500s of progress since the checkpoint is lost,
    // then a 100s restart.
    FaultTrainerResult r = replayFaultSchedule(
        cfg, singleEvent(fault::FaultKind::RANK_DOWN, 1510.0));
    EXPECT_EQ(r.failures, 1u);
    EXPECT_EQ(r.restarts, 1u);
    EXPECT_NEAR(r.lostSec, 500.0, 1e-9);
    // Timeline: 1010 (train+ckpt) + 500 (lost) + 100 (restart)
    // = 1610; the remaining 1390s spend 10s on one checkpoint, so
    // 1380s more training lands on top of the restored 1000s.
    EXPECT_NEAR(r.trainedSec, 1000.0 + 1380.0, 1e-9);
}

TEST(FaultTrainer, FailureBeforeFirstCheckpointLosesEverything)
{
    FaultTrainerConfig cfg = baseConfig();
    cfg.horizonSec = 900.0;
    FaultTrainerResult r = replayFaultSchedule(
        cfg, singleEvent(fault::FaultKind::RANK_DOWN, 800.0));
    EXPECT_EQ(r.failures, 1u);
    EXPECT_NEAR(r.lostSec, 800.0, 1e-9);
    // 800 lost + 100 restart = 900: horizon ends with nothing kept.
    EXPECT_EQ(r.trainedSec, 0.0);
}

TEST(FaultTrainer, SdcRollsBackToCleanCheckpoint)
{
    FaultTrainerConfig cfg = baseConfig();
    cfg.horizonSec = 10000.0;
    cfg.sdcDetectSec = 2000.0;
    // Corruption at t=1515 (trained ~1500s). Checkpoints written
    // after that point are tainted; detection at t=3515 must roll
    // back to the t=1010 checkpoint (1000s trained), discarding the
    // tainted one written around trained=2000s.
    FaultTrainerResult r = replayFaultSchedule(
        cfg, singleEvent(fault::FaultKind::SDC, 1515.0));
    EXPECT_EQ(r.sdcEvents, 1u);
    EXPECT_EQ(r.sdcRollbacks, 1u);
    EXPECT_EQ(r.failures, 0u);
    // Work beyond trained=1000s at detection time is discarded.
    EXPECT_GT(r.lostSec, 1000.0);
    EXPECT_GT(r.trainedSec, 0.0);
}

TEST(FaultTrainer, ImmediateSdcDetectionLosesLessThanDelayed)
{
    FaultTrainerConfig cfg = baseConfig();
    cfg.horizonSec = 20000.0;
    fault::FaultSchedule sdc =
        singleEvent(fault::FaultKind::SDC, 1515.0);

    cfg.sdcDetectSec = 0.0; // hardware checksums
    FaultTrainerResult hw = replayFaultSchedule(cfg, sdc);
    cfg.sdcDetectSec = 4.0 * 3600.0; // app heuristics
    FaultTrainerResult heur = replayFaultSchedule(cfg, sdc);

    EXPECT_EQ(hw.sdcRollbacks, 1u);
    EXPECT_LT(hw.lostSec, heur.lostSec);
    EXPECT_GT(hw.trainedSec, heur.trainedSec);
}

TEST(FaultTrainer, FabricFaultsThrottleInsteadOfKilling)
{
    FaultTrainerConfig cfg = baseConfig();
    cfg.horizonSec = 2000.0;
    cfg.checkpointIntervalSec = 1e9; // isolate throughput effect
    cfg.degradedThroughput = 0.5;

    std::vector<fault::FaultEvent> evs(2);
    evs[0].kind = fault::FaultKind::PLANE_DOWN;
    evs[0].plane = 0;
    evs[0].time = 500.0;
    evs[1].kind = fault::FaultKind::PLANE_UP;
    evs[1].plane = 0;
    evs[1].time = 1500.0;
    FaultTrainerResult r =
        replayFaultSchedule(cfg, fault::FaultSchedule(evs));
    EXPECT_EQ(r.failures, 0u);
    // 500s full + 1000s at half speed + 500s full = 1500s trained.
    EXPECT_NEAR(r.trainedSec, 1500.0, 1e-9);
}

TEST(FaultTrainer, MonteCarloMatchesYoungDaly)
{
    // The acceptance criterion: in the validity regime (2048 GPUs,
    // tau << cluster MTBF) the Monte-Carlo goodput lands within 5%
    // of the analytic Young/Daly prediction.
    ReliabilityParams p;
    p.gpus = 2048;
    MonteCarloReliability mc =
        runMonteCarloReliability(p, true, 16, 777);
    EXPECT_TRUE(mc.analytic.validRegime);
    EXPECT_EQ(mc.trials, 16u);
    EXPECT_GT(mc.meanFailures, 0.0);
    EXPECT_LT(mc.relError, 0.05);
    EXPECT_NEAR(mc.meanGoodput, mc.analyticGoodput,
                0.05 * mc.analyticGoodput);
    EXPECT_LE(mc.minGoodput, mc.meanGoodput);
    EXPECT_GE(mc.maxGoodput, mc.meanGoodput);
}

/**
 * The Sec 6.1 bench's Monte-Carlo table, with its arguments: 2,048 and
 * 16,384 GPUs, no hardware SDC detection, 8 trials, seed 2025, 25
 * cluster MTBFs. Some row is in the valid regime, every valid-regime
 * row is within 5% of Young/Daly, and a second run with the same
 * arguments reproduces every row.
 */
TEST(FaultTrainer, BenchMonteCarloTableMatchesYoungDalyAndRepeats)
{
    std::size_t valid_rows = 0;
    for (std::size_t gpus : {2048u, 16384u}) {
        ReliabilityParams p;
        p.gpus = gpus;
        const MonteCarloReliability mc =
            runMonteCarloReliability(p, false, 8, 2025, 25.0);
        const MonteCarloReliability again =
            runMonteCarloReliability(p, false, 8, 2025, 25.0);
        EXPECT_EQ(mc.trials, 8u) << gpus;
        EXPECT_EQ(again.trials, mc.trials) << gpus;
        EXPECT_EQ(again.meanGoodput, mc.meanGoodput) << gpus;
        EXPECT_EQ(again.minGoodput, mc.minGoodput) << gpus;
        EXPECT_EQ(again.maxGoodput, mc.maxGoodput) << gpus;
        EXPECT_EQ(again.analyticGoodput, mc.analyticGoodput) << gpus;
        EXPECT_EQ(again.relError, mc.relError) << gpus;
        EXPECT_EQ(again.meanFailures, mc.meanFailures) << gpus;
        EXPECT_EQ(again.analytic.optimalCheckpointSec,
                  mc.analytic.optimalCheckpointSec) << gpus;
        EXPECT_EQ(again.analytic.validRegime, mc.analytic.validRegime)
            << gpus;
        if (!mc.analytic.validRegime)
            continue;
        ++valid_rows;
        EXPECT_LT(mc.relError, 0.05) << gpus;
    }
    EXPECT_GE(valid_rows, 1u);
}

TEST(FaultTrainer, MonteCarloIsDeterministicAcrossThreadCounts)
{
    ReliabilityParams p;
    p.gpus = 2048;
    MonteCarloReliability runs[3];
    std::size_t widths[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
        setParallelForWidth(widths[i]);
        runs[i] = runMonteCarloReliability(p, true, 8, 2025);
    }
    setParallelForWidth(0);
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(runs[0].meanGoodput, runs[i].meanGoodput);
        EXPECT_EQ(runs[0].minGoodput, runs[i].minGoodput);
        EXPECT_EQ(runs[0].maxGoodput, runs[i].maxGoodput);
        EXPECT_EQ(runs[0].meanFailures, runs[i].meanFailures);
    }
}

TEST(FaultTrainer, MonteCarloSeedChangesTrials)
{
    ReliabilityParams p;
    p.gpus = 2048;
    MonteCarloReliability a = runMonteCarloReliability(p, true, 4, 1);
    MonteCarloReliability b = runMonteCarloReliability(p, true, 4, 2);
    MonteCarloReliability a2 =
        runMonteCarloReliability(p, true, 4, 1);
    EXPECT_EQ(a.meanGoodput, a2.meanGoodput);
    EXPECT_NE(a.meanGoodput, b.meanGoodput);
}

TEST(ReliabilityClamp, ExtremeScaleStaysInValidRange)
{
    // Satellite (a): degenerate regimes must not produce overheads
    // above 1, a tau above the MTBF, or a negative goodput.
    ReliabilityParams p;
    p.gpus = 1 << 24;
    p.gpuMtbfHours = 100.0; // cluster MTBF ~ 21ms
    auto r = evaluateReliability(p, false);
    EXPECT_FALSE(r.validRegime);
    double mtbf_sec = p.gpuMtbfHours / (double)p.gpus * 3600.0;
    EXPECT_LE(r.optimalCheckpointSec, mtbf_sec + 1e-12);
    EXPECT_LE(r.checkpointOverhead, 1.0);
    EXPECT_LE(r.reworkOverhead, 1.0);
    EXPECT_LE(r.restartOverhead, 1.0);
    EXPECT_GE(r.goodput, 0.0);
}

TEST(ReliabilityClamp, ValidRegimeFlagTracksTauVsMtbf)
{
    ReliabilityParams p;
    p.gpus = 2048;
    EXPECT_TRUE(evaluateReliability(p, true).validRegime);
    p.gpus = 1 << 22;
    EXPECT_FALSE(evaluateReliability(p, true).validRegime);
}

} // namespace
} // namespace dsv3::pipeline
