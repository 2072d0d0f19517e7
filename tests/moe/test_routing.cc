/**
 * @file
 * Tests for expert placement, routing statistics and token synthesis.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "moe/gate.hh"
#include "moe/placement.hh"
#include "moe/routing_stats.hh"
#include "moe/token_gen.hh"

namespace dsv3::moe {
namespace {

TEST(Placement, V3DeploymentLayout)
{
    // 256 experts over 8 nodes x 8 GPUs: 32/node, 4/GPU (Sec 4.3).
    ExpertPlacement p(256, 8, 8);
    EXPECT_EQ(p.expertsPerNode(), 32u);
    EXPECT_EQ(p.expertsPerGpu(), 4u);
    EXPECT_EQ(p.node(0), 0u);
    EXPECT_EQ(p.node(31), 0u);
    EXPECT_EQ(p.node(32), 1u);
    EXPECT_EQ(p.node(255), 7u);
    EXPECT_EQ(p.gpu(0), 0u);
    EXPECT_EQ(p.gpu(4), 1u);
    EXPECT_EQ(p.gpu(255), 63u);
}

TEST(Placement, GpuNodeConsistency)
{
    ExpertPlacement p(256, 8, 8);
    for (std::uint32_t e = 0; e < 256; ++e)
        EXPECT_EQ(p.gpu(e) / 8, p.node(e));
}

TEST(Placement, FootprintDedupsAndDropsDeadGpus)
{
    ExpertPlacement p(256, 8, 8); // 4 experts per GPU, 8 GPUs per node
    std::vector<std::uint32_t> experts = {64, 0, 33, 1, 4, 32};
    std::vector<std::uint32_t> gpus(6), nodes(6);
    auto [n_gpus, n_nodes, dropped] = p.footprint(experts, gpus, nodes);
    EXPECT_EQ(n_gpus, 4u); // GPUs 0, 1, 8, 16
    EXPECT_EQ(n_nodes, 3u);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(std::vector<std::uint32_t>(gpus.begin(), gpus.begin() + 4),
              (std::vector<std::uint32_t>{0, 1, 8, 16}));
    EXPECT_EQ(std::vector<std::uint32_t>(nodes.begin(), nodes.begin() + 3),
              (std::vector<std::uint32_t>{0, 1, 2}));

    // Dead GPUs drop out, and a node left with no live GPU does too.
    std::vector<bool> dead(64, false);
    dead[1] = dead[16] = true;
    auto [live, m, lost] = p.footprint(experts, gpus, nodes, &dead);
    EXPECT_EQ(live, 2u); // GPUs 0 and 8
    EXPECT_EQ(m, 2u);    // nodes 0 and 1
    EXPECT_EQ(lost, 2u);
    EXPECT_EQ(gpus[1], 8u);
    EXPECT_EQ(nodes[1], 1u);
}

TEST(PlacementDeath, RejectsUnevenSplit)
{
    EXPECT_DEATH(ExpertPlacement(100, 8, 8), "");
}

TEST(RoutingStats, CountsNodesTouched)
{
    ExpertPlacement p(256, 8, 8);
    RoutingStats stats(p);
    std::vector<std::uint32_t> experts = {0, 1, 32, 64}; // M = 3
    stats.add(experts, 4);
    EXPECT_EQ(stats.tokens(), 1u);
    EXPECT_DOUBLE_EQ(stats.meanNodesTouched(), 3.0);
    EXPECT_EQ(stats.maxNodesTouched(), 3u);
    EXPECT_DOUBLE_EQ(stats.nodesTouchedFraction(3), 1.0);
    EXPECT_DOUBLE_EQ(stats.nodesTouchedFraction(2), 0.0);
}

TEST(RoutingStats, ExpertLoadAccumulates)
{
    ExpertPlacement p(16, 2, 2);
    RoutingStats stats(p);
    std::vector<std::uint32_t> experts = {3, 3, 3, 3}; // two tokens
    stats.add(experts, 2);
    EXPECT_DOUBLE_EQ(stats.expertLoad()[3], 4.0);
}

TEST(RoutingStats, GpuLoadAggregatesExperts)
{
    ExpertPlacement p(16, 2, 2); // 4 experts/GPU
    RoutingStats stats(p);
    std::vector<std::uint32_t> experts = {0, 1, 4}; // GPUs 0, 0, 1
    stats.add(experts, 3);
    auto load = stats.gpuLoad();
    EXPECT_DOUBLE_EQ(load[0], 2.0);
    EXPECT_DOUBLE_EQ(load[1], 1.0);
    EXPECT_DOUBLE_EQ(load[2], 0.0);
}

TEST(RoutingStats, IbDedupFactor)
{
    ExpertPlacement p(256, 8, 8);
    RoutingStats stats(p);
    std::vector<std::uint32_t> experts = {0, 1, 2, 3,
                                          4, 5, 6, 7}; // M = 1
    stats.add(experts, 8);
    EXPECT_DOUBLE_EQ(stats.ibDedupFactor(8), 1.0 / 8.0);
}

TEST(RoutingStats, NodeLimitedReducesMeanM)
{
    ExpertPlacement p(256, 8, 8);
    GateConfig open;
    open.experts = 256;
    open.topK = 8;
    open.groups = 8;
    open.topKGroups = 8;
    GateConfig limited = open;
    limited.topKGroups = 4;
    RoutingStats s_open(p), s_limited(p);
    TokenScoreGenerator gen_open(256, 0.3, 11), gen_limited(256, 0.3, 11);
    std::vector<std::uint32_t> experts(2000 * 8);
    TopKGate(open).routeStream(gen_open, experts);
    s_open.add(experts, 8);
    TopKGate(limited).routeStream(gen_limited, experts);
    s_limited.add(experts, 8);
    // Unrestricted top-8 over 8 uniform nodes: E[M] ~ 5.25.
    EXPECT_NEAR(s_open.meanNodesTouched(), 5.25, 0.3);
    EXPECT_LE(s_limited.maxNodesTouched(), 4u);
    EXPECT_LT(s_limited.meanNodesTouched(),
              s_open.meanNodesTouched());
}

TEST(RoutingStats, BalancedGateBalancedLoad)
{
    ExpertPlacement p(64, 4, 4);
    GateConfig cfg;
    cfg.experts = 64;
    cfg.topK = 4;
    RoutingStats stats(p);
    TokenScoreGenerator gen(64, 0.0, 5); // zero skew
    std::vector<std::uint32_t> experts(8000 * cfg.topK);
    TopKGate(cfg).routeStream(gen, experts);
    stats.add(experts, cfg.topK);
    EXPECT_LT(stats.expertImbalance(), 1.25);
}

TEST(RoutingStats, SkewedGateImbalancedLoad)
{
    ExpertPlacement p(64, 4, 4);
    GateConfig cfg;
    cfg.experts = 64;
    cfg.topK = 4;
    RoutingStats stats(p);
    TokenScoreGenerator gen(64, 2.0, 5); // strong popularity skew
    std::vector<std::uint32_t> experts(8000 * cfg.topK);
    TopKGate(cfg).routeStream(gen, experts);
    stats.add(experts, cfg.topK);
    EXPECT_GT(stats.expertImbalance(), 2.0);
}

TEST(TokenGen, DeterministicForSeed)
{
    TokenScoreGenerator a(32, 0.5, 9), b(32, 0.5, 9);
    std::vector<double> la(32), lb(32);
    for (int t = 0; t < 10; ++t) {
        a.next(la);
        b.next(lb);
        EXPECT_EQ(la, lb);
    }
}

TEST(TokenGen, ZeroSkewUniformBase)
{
    TokenScoreGenerator gen(32, 0.0, 1);
    for (double b : gen.baseLogits())
        EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(TokenGen, SkewWidensBaseSpread)
{
    TokenScoreGenerator narrow(256, 0.1, 3);
    TokenScoreGenerator wide(256, 2.0, 3);
    auto spread = [](const std::vector<double> &v) {
        double mn = v[0], mx = v[0];
        for (double x : v) {
            mn = std::min(mn, x);
            mx = std::max(mx, x);
        }
        return mx - mn;
    };
    EXPECT_LT(spread(narrow.baseLogits()), spread(wide.baseLogits()));
}

} // namespace
} // namespace dsv3::moe
