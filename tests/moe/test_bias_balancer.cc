/**
 * @file
 * Tests for the auxiliary-loss-free bias-based load balancer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"
#include "moe/bias_balancer.hh"
#include "moe/token_gen.hh"

namespace dsv3::moe {
namespace {

GateConfig
plainGate(std::size_t experts = 32, std::size_t top_k = 4)
{
    GateConfig cfg;
    cfg.experts = experts;
    cfg.topK = top_k;
    return cfg;
}

TEST(BiasBalancer, SelectsTopKWithNormalizedWeights)
{
    BiasBalancedGate gate(plainGate());
    TokenScoreGenerator gen(32, 0.5, 1);
    std::vector<double> logits(32);
    gen.next(logits);
    auto d = gate.route(logits);
    EXPECT_EQ(d.experts.size(), 4u);
    double sum = 0.0;
    for (double w : d.weights)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(BiasBalancer, ZeroBiasMatchesPlainGate)
{
    // Before any update, selection equals the unbiased gate's.
    BiasBalancedGate balanced(plainGate());
    TopKGate plain(plainGate());
    TokenScoreGenerator gen(32, 0.5, 2);
    std::vector<double> logits(32);
    for (int t = 0; t < 20; ++t) {
        gen.next(logits);
        EXPECT_EQ(balanced.route(logits).experts,
                  plain.route(logits).experts);
    }
}

TEST(BiasBalancer, ReducesImbalanceOnSkewedStream)
{
    // Skewed popularity: the plain gate concentrates load; the bias
    // mechanism spreads it.
    const double skew = 1.5;
    TopKGate plain(plainGate());
    BiasBalancedGate balanced(plainGate(), 0.02);

    TokenScoreGenerator gen_a(32, skew, 3), gen_b(32, skew, 3);
    std::vector<double> plain_load(32, 0.0);
    std::vector<std::uint32_t> experts(64 * 4);
    for (int batch = 0; batch < 60; ++batch) {
        plain.routeStream(gen_a, experts);
        for (auto e : experts)
            plain_load[e] += 1.0;
        balanced.routeStream(gen_b, experts);
        balanced.updateBiases();
    }
    double plain_imbalance = maxOverMean(plain_load);
    EXPECT_GT(plain_imbalance, 1.8);
    EXPECT_LT(balanced.imbalance(), plain_imbalance * 0.75);
}

TEST(BiasBalancer, BiasesMoveAgainstLoad)
{
    BiasBalancedGate gate(plainGate(8, 2), 0.01);
    // Always route to experts 0 and 1 (huge logits).
    std::vector<double> logits(8, -10.0);
    logits[0] = 10.0;
    logits[1] = 10.0;
    for (int t = 0; t < 16; ++t)
        gate.route(logits);
    gate.updateBiases();
    EXPECT_LT(gate.biases()[0], 0.0);
    EXPECT_LT(gate.biases()[1], 0.0);
    EXPECT_GT(gate.biases()[7], 0.0);
}

TEST(BiasBalancer, WeightsStayLossFree)
{
    // Even when the bias changes the selection, the combine weights
    // must come from the raw sigmoid scores of the selected experts.
    BiasBalancedGate gate(plainGate(4, 2), 0.5);
    std::vector<double> logits = {2.0, 1.0, 0.5, 0.4};
    // Push a large positive bias onto expert 3.
    for (int round = 0; round < 20; ++round) {
        std::vector<double> fake(4, -10.0);
        fake[0] = 10.0;
        fake[1] = 10.0;
        gate.route(fake);
        gate.updateBiases();
    }
    auto d = gate.route(logits);
    // Whatever was selected, weights are score-proportional.
    double s0 = 1.0 / (1.0 + std::exp(-logits[d.experts[0]]));
    double s1 = 1.0 / (1.0 + std::exp(-logits[d.experts[1]]));
    EXPECT_NEAR(d.weights[0] / d.weights[1], s0 / s1, 1e-9);
}

TEST(BiasBalancer, UpdateResetsBatchCounters)
{
    BiasBalancedGate gate(plainGate(8, 2), 0.01);
    std::vector<double> logits(8, 0.0);
    logits[0] = 5.0;
    logits[1] = 5.0;
    gate.route(logits);
    gate.updateBiases();
    double b0 = gate.biases()[0];
    // An empty batch moves every bias up by gamma except... all loads
    // are equal (0), so nothing moves.
    gate.updateBiases();
    EXPECT_DOUBLE_EQ(gate.biases()[0], b0);
}

TEST(BiasBalancerDeath, RejectsGroupedConfig)
{
    GateConfig cfg = plainGate(32, 4);
    cfg.groups = 8;
    cfg.topKGroups = 4;
    EXPECT_DEATH(BiasBalancedGate{cfg}, "ungrouped");
}

} // namespace
} // namespace dsv3::moe
