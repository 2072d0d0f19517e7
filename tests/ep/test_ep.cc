/**
 * @file
 * Tests for the DeepEP dispatch/combine simulation and the EP
 * speed-limit model (Secs 2.3.2 and 4.3).
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/thread_pool.hh"
#include "ep/deepep.hh"
#include "ep/speed_limit.hh"

namespace dsv3::ep {
namespace {

net::Cluster
mpft(std::size_t hosts)
{
    net::ClusterConfig cc;
    cc.fabric = net::Fabric::MPFT;
    cc.hosts = hosts;
    return buildCluster(cc);
}

EpWorkload
v3Workload(std::size_t tokens = 512)
{
    EpWorkload w;
    w.tokensPerGpu = tokens;
    w.gate.experts = 256;
    w.gate.topK = 8;
    w.gate.groups = 8;
    w.gate.topKGroups = 4;
    return w;
}

/** Every EpResult field, compared bit for bit. */
void
expectBitEqual(const EpResult &a, const EpResult &b)
{
    for (double EpResult::*f :
         {&EpResult::dispatchSeconds, &EpResult::combineSeconds,
          &EpResult::dispatchNicBytesPerGpu, &EpResult::dispatchGBsPerGpu,
          &EpResult::combineNicBytesPerGpu, &EpResult::combineGBsPerGpu,
          &EpResult::meanNodesTouched, &EpResult::meanGpusTouched,
          &EpResult::dispatchRetrySeconds, &EpResult::combineRetrySeconds,
          &EpResult::droppedDeliveries})
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*f),
                  std::bit_cast<std::uint64_t>(b.*f));
    EXPECT_EQ(a.relayFallbacks, b.relayFallbacks);
    EXPECT_EQ(a.stalledTransfers, b.stalledTransfers);
}

TEST(SpeedLimit, PaperH800Numbers)
{
    // Sec 2.3.2: 120.96 us per stage, 241.92 us per layer,
    // 14.76 ms TPOT, ~67 tokens/s.
    SpeedLimit s = epSpeedLimit(SpeedLimitParams{});
    EXPECT_NEAR(s.commTimePerStage, 120.96e-6, 0.01e-6);
    EXPECT_NEAR(s.timePerLayer, 241.92e-6, 0.02e-6);
    EXPECT_NEAR(s.tpotSeconds, 14.757e-3, 0.01e-3);
    EXPECT_NEAR(s.tokensPerSecond, 67.0, 1.5);
}

TEST(SpeedLimit, PaperNvl72Numbers)
{
    // Sec 2.3.2: 6.72 us per stage, ~0.82 ms TPOT, ~1200 tok/s.
    SpeedLimitParams p;
    p.bandwidthBytesPerSec = 900e9;
    SpeedLimit s = epSpeedLimit(p);
    EXPECT_NEAR(s.commTimePerStage, 6.72e-6, 0.01e-6);
    EXPECT_NEAR(s.tpotSeconds, 0.82e-3, 0.01e-3);
    EXPECT_NEAR(s.tokensPerSecond, 1200.0, 30.0);
}

TEST(SpeedLimit, ScalesInverselyWithBandwidth)
{
    SpeedLimitParams p;
    SpeedLimit base = epSpeedLimit(p);
    p.bandwidthBytesPerSec *= 2.0;
    SpeedLimit fast = epSpeedLimit(p);
    EXPECT_NEAR(fast.tpotSeconds, base.tpotSeconds / 2.0, 1e-9);
}

TEST(SpeedLimit, NodeLimitedIbTimeLinearInM)
{
    double t1 = nodeLimitedIbTime(1.0, 7168, 1.0, 50e9);
    double t4 = nodeLimitedIbTime(4.0, 7168, 1.0, 50e9);
    EXPECT_NEAR(t4, 4.0 * t1, 1e-15);
}

TEST(DeepEp, DispatchTimePositiveAndFinite)
{
    net::Cluster c = mpft(2);
    EpResult r = simulateDeepEp(c, v3Workload());
    EXPECT_GT(r.dispatchSeconds, 0.0);
    EXPECT_GT(r.combineSeconds, 0.0);
    EXPECT_GT(r.dispatchNicBytesPerGpu, 0.0);
}

TEST(DeepEp, NodesTouchedBoundedByHostsAndGroups)
{
    net::Cluster c = mpft(2);
    EpResult r = simulateDeepEp(c, v3Workload());
    EXPECT_LE(r.meanNodesTouched, 2.0);
    EXPECT_GE(r.meanNodesTouched, 1.0);
}

TEST(DeepEp, NicBandwidthSaturatesAtScale)
{
    // 8 hosts (64 GPUs): the EP all-to-all should drive the NIC into
    // its effective-bandwidth region (Figure 7's plateau).
    net::Cluster c = mpft(8);
    EpResult r = simulateDeepEp(c, v3Workload(256));
    EXPECT_GT(r.combineGBsPerGpu, 30e9);
    EXPECT_LE(r.combineGBsPerGpu, 41e9);
    EXPECT_GT(r.dispatchGBsPerGpu, 25e9);
}

TEST(DeepEp, CombineCarriesTwiceTheBytes)
{
    // BF16 combine vs FP8 dispatch: ~2x bytes per token (modulo the
    // dispatch scale overhead).
    net::Cluster c = mpft(4);
    EpResult r = simulateDeepEp(c, v3Workload(256));
    // The worst-loaded NIC can differ between the two directions,
    // so allow slack around the per-token byte ratio 2/1.03125.
    double ratio = r.combineNicBytesPerGpu / r.dispatchNicBytesPerGpu;
    EXPECT_GT(ratio, 1.85);
    EXPECT_LT(ratio, 2.05);
}

TEST(DeepEp, NodeLimitReducesNicTraffic)
{
    net::Cluster c = mpft(8);
    EpWorkload limited = v3Workload(256);
    EpWorkload open = limited;
    open.gate.topKGroups = 8;
    EpResult r_lim = simulateDeepEp(c, limited);
    EpResult r_open = simulateDeepEp(c, open);
    EXPECT_LT(r_lim.meanNodesTouched, r_open.meanNodesTouched);
    EXPECT_LT(r_lim.dispatchNicBytesPerGpu,
              r_open.dispatchNicBytesPerGpu);
}

TEST(DeepEp, SingleHostUsesNoNic)
{
    net::Cluster c = mpft(1);
    EpWorkload w = v3Workload(256);
    EpResult r = simulateDeepEp(c, w);
    EXPECT_DOUBLE_EQ(r.dispatchNicBytesPerGpu, 0.0);
    EXPECT_DOUBLE_EQ(r.meanNodesTouched, 1.0);
    // NVLink still carries intra-host traffic.
    EXPECT_GT(r.dispatchSeconds, 0.0);
}

TEST(DeepEp, DeterministicForSeed)
{
    net::Cluster c = mpft(2);
    EpWorkload w = v3Workload(128);
    EpResult a = simulateDeepEp(c, w);
    EpResult b = simulateDeepEp(c, w);
    EXPECT_DOUBLE_EQ(a.dispatchSeconds, b.dispatchSeconds);
    EXPECT_DOUBLE_EQ(a.meanNodesTouched, b.meanNodesTouched);
}

TEST(DeepEp, BitIdenticalAtAnyPoolWidth)
{
    net::Cluster c = mpft(4);
    EpWorkload w = v3Workload(256);
    std::vector<bool> dead(c.gpus.size(), false);
    dead[3] = dead[18] = true; // one rank on each of two hosts
    EpFaultModel faulty;
    faulty.deadRanks = &dead;
    for (const EpFaultModel &fm : {EpFaultModel{}, faulty}) {
        setParallelForWidth(1);
        EpResult serial = simulateDeepEp(c, w, fm);
        setParallelForWidth(0);
        EpResult parallel = simulateDeepEp(c, w, fm);
        expectBitEqual(serial, parallel);
        EXPECT_EQ(serial.droppedDeliveries > 0.0, fm.deadRanks != nullptr);
    }
}

TEST(DeepEp, PreRoutedTableMatchesRoutingInCall)
{
    // Rank s draws from seed w.seed + s whatever the table's size, so
    // a 128-rank table serves a 16-GPU cluster.
    EpWorkload w = v3Workload(128);
    const std::vector<std::uint32_t> table = routeTokens(w, 128);
    const std::vector<std::uint32_t> small = routeTokens(w, 16);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), table.begin()));
    net::Cluster c = mpft(2);
    expectBitEqual(simulateDeepEp(c, w, table), simulateDeepEp(c, w));
}

TEST(DeepEpDeath, RoutedTableMustCoverCluster)
{
    EpWorkload w = v3Workload(16);
    const std::vector<std::uint32_t> table = routeTokens(w, 8);
    net::Cluster c = mpft(2); // 16 GPUs
    EXPECT_DEATH(simulateDeepEp(c, w, table), "fewer ranks");
}

TEST(DeepEpDeath, ExpertsMustDivideGpus)
{
    net::Cluster c = mpft(3); // 24 GPUs; 256 % 24 != 0
    EXPECT_DEATH(simulateDeepEp(c, v3Workload(16)), "divide");
}

/** Figure 7 sweep: per-GPU bandwidth in band at every scale. */
class DeepEpScaleTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DeepEpScaleTest, BandwidthInBand)
{
    net::Cluster c = mpft(GetParam());
    EpResult r = simulateDeepEp(c, v3Workload(128));
    EXPECT_GT(r.combineGBsPerGpu, 20e9);
    EXPECT_LE(r.combineGBsPerGpu, 41e9);
    EXPECT_GE(r.meanGpusTouched, r.meanNodesTouched);
}

INSTANTIATE_TEST_SUITE_P(Hosts, DeepEpScaleTest,
                         ::testing::Values(2, 4, 8));

} // namespace
} // namespace dsv3::ep
