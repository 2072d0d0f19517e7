/**
 * @file
 * Tests for TopK gating and node-limited (group-limited) routing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "moe/gate.hh"
#include "moe/placement.hh"

namespace dsv3::moe {
namespace {

GateConfig
v3Gate()
{
    GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = 4;
    return cfg;
}

std::vector<double>
randomLogits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> logits(n);
    for (auto &l : logits)
        l = rng.normal();
    return logits;
}

/** Groups a decision's experts land on (sorted unique): the nodes of
 *  a placement with one group per node. */
std::vector<std::uint32_t>
groupsTouched(const GateConfig &cfg, const RoutingDecision &d)
{
    ExpertPlacement p(cfg.experts, cfg.groups, 1);
    std::vector<std::uint32_t> gpus(d.experts.size()),
        groups(d.experts.size());
    groups.resize(p.footprint(d.experts, gpus, groups)[1]);
    return groups;
}

TEST(Gate, SelectsExactlyTopK)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 1));
    EXPECT_EQ(d.experts.size(), 8u);
    EXPECT_EQ(d.weights.size(), 8u);
}

TEST(Gate, ExpertsAreUnique)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 50; ++t) {
        auto d = gate.route(randomLogits(256, 10 + t));
        std::set<std::uint32_t> unique(d.experts.begin(),
                                       d.experts.end());
        EXPECT_EQ(unique.size(), d.experts.size());
    }
}

TEST(Gate, WeightsNormalizedAndPositive)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 50; ++t) {
        auto d = gate.route(randomLogits(256, 100 + t));
        double sum = 0.0;
        for (double w : d.weights) {
            EXPECT_GT(w, 0.0);
            sum += w;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Gate, WeightsDescendWithScores)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 3));
    for (std::size_t i = 1; i < d.weights.size(); ++i)
        EXPECT_GE(d.weights[i - 1], d.weights[i]);
}

TEST(Gate, PlainTopKPicksGlobalMaxima)
{
    GateConfig cfg;
    cfg.experts = 16;
    cfg.topK = 3;
    TopKGate gate(cfg);
    std::vector<double> logits(16, 0.0);
    logits[5] = 10.0;
    logits[11] = 9.0;
    logits[2] = 8.0;
    auto d = gate.route(logits);
    EXPECT_EQ(d.experts[0], 5u);
    EXPECT_EQ(d.experts[1], 11u);
    EXPECT_EQ(d.experts[2], 2u);
}

TEST(Gate, NodeLimitBoundsGroupsTouched)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 200; ++t) {
        auto d = gate.route(randomLogits(256, 1000 + t));
        auto groups = groupsTouched(gate.config(), d);
        EXPECT_LE(groups.size(), 4u);
    }
}

TEST(Gate, UnrestrictedTouchesMoreGroups)
{
    GateConfig restricted = v3Gate();
    GateConfig open = v3Gate();
    open.topKGroups = 8;
    TopKGate g_restricted(restricted), g_open(open);
    double sum_restricted = 0.0, sum_open = 0.0;
    for (int t = 0; t < 500; ++t) {
        auto logits = randomLogits(256, 2000 + t);
        sum_restricted +=
            (double)groupsTouched(restricted,
                                  g_restricted.route(logits)).size();
        sum_open +=
            (double)groupsTouched(open, g_open.route(logits)).size();
    }
    EXPECT_LT(sum_restricted, sum_open);
}

TEST(Gate, GroupSelectionPrefersStrongGroups)
{
    // Put the 8 highest logits all in group 2: routing must stay
    // entirely inside group 2 plus whatever else survives.
    GateConfig cfg = v3Gate();
    cfg.topKGroups = 1;
    TopKGate gate(cfg);
    std::vector<double> logits(256, 0.0);
    for (int i = 0; i < 8; ++i)
        logits[64 + i] = 5.0 + i; // group 2 = experts [64, 96)
    auto d = gate.route(logits);
    for (std::uint32_t e : d.experts) {
        EXPECT_GE(e, 64u);
        EXPECT_LT(e, 96u);
    }
}

TEST(Gate, SigmoidVsSoftmaxSameSelectionOrder)
{
    // Monotone transforms preserve plain TopK membership. (With
    // group limiting this need not hold: group scores are *sums* of
    // member scores, which monotone transforms do not preserve.)
    GateConfig sig = v3Gate();
    sig.groups = 1;
    sig.topKGroups = 1;
    GateConfig soft = sig;
    soft.scoring = GateScoring::SOFTMAX;
    TopKGate g_sig(sig), g_soft(soft);
    for (int t = 0; t < 20; ++t) {
        auto logits = randomLogits(256, 3000 + t);
        auto d1 = g_sig.route(logits);
        auto d2 = g_soft.route(logits);
        EXPECT_EQ(d1.experts, d2.experts);
    }
}

TEST(Gate, DeterministicTieBreak)
{
    GateConfig cfg;
    cfg.experts = 8;
    cfg.topK = 2;
    TopKGate gate(cfg);
    std::vector<double> logits(8, 1.0); // all tied
    auto d = gate.route(logits);
    EXPECT_EQ(d.experts[0], 0u);
    EXPECT_EQ(d.experts[1], 1u);
}

TEST(Gate, GroupsTouchedSortedUnique)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 5));
    auto groups = groupsTouched(gate.config(), d);
    EXPECT_TRUE(std::is_sorted(groups.begin(), groups.end()));
    EXPECT_EQ(std::adjacent_find(groups.begin(), groups.end()),
              groups.end());
}

TEST(GateDeath, RejectsBadConfigs)
{
    GateConfig bad = v3Gate();
    bad.experts = 255; // not divisible by 8 groups
    EXPECT_DEATH(TopKGate{bad}, "");
    GateConfig too_few = v3Gate();
    too_few.topKGroups = 4;
    too_few.groups = 128;         // 2 experts per group
    too_few.topK = 16;            // 4 groups x 2 experts < 16
    EXPECT_DEATH(TopKGate{too_few}, "");
}

/** The node-limit sweep must monotonically reduce groups touched. */
class GateLimitTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GateLimitTest, GroupsTouchedWithinLimit)
{
    GateConfig cfg = v3Gate();
    cfg.topKGroups = GetParam();
    TopKGate gate(cfg);
    for (int t = 0; t < 100; ++t) {
        auto d = gate.route(randomLogits(256, 4000 + t));
        EXPECT_LE(groupsTouched(cfg, d).size(), GetParam());
        EXPECT_EQ(d.experts.size(), 8u);
    }
}

INSTANTIATE_TEST_SUITE_P(Limits, GateLimitTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

} // namespace
} // namespace dsv3::moe
