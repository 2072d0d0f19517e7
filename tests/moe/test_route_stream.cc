/**
 * @file
 * Equivalence tests for the one routing path: TopKGate::routeStream()
 * against per-token route(), the shared selection core against a
 * longhand reference of the selection rule, and BiasBalancedGate
 * against a per-token reference loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "moe/bias_balancer.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"
#include "obs/registry.hh"

namespace dsv3::moe {
namespace {

/** A random valid gate: either scoring, grouped or not, any topK. */
GateConfig
randomGate(Rng &rng)
{
    static const std::size_t kExperts[] = {8, 16, 32, 64, 256};
    GateConfig cfg;
    cfg.experts = kExperts[rng.nextBounded(5)];
    cfg.scoring = rng.bernoulli(0.5) ? GateScoring::SIGMOID
                                     : GateScoring::SOFTMAX;
    if (rng.bernoulli(0.7)) {
        static const std::size_t kGroups[] = {2, 4, 8};
        cfg.groups = kGroups[rng.nextBounded(3)];
        cfg.topKGroups = 1 + rng.nextBounded(cfg.groups);
        cfg.groupTopScores = 1 + rng.nextBounded(cfg.expertsPerGroup() + 1);
    }
    const std::size_t pool = cfg.nodeLimited()
        ? cfg.topKGroups * cfg.expertsPerGroup() : cfg.experts;
    cfg.topK = 1 + rng.nextBounded(std::min<std::size_t>(pool, 12));
    return cfg;
}

/** Gate scores, computed as the gate specifies them. */
std::vector<double>
referenceScores(const GateConfig &cfg, const std::vector<double> &logits)
{
    std::vector<double> scores(logits.size());
    if (cfg.scoring == GateScoring::SOFTMAX) {
        double mx = *std::max_element(logits.begin(), logits.end());
        double denom = 0.0;
        for (std::size_t i = 0; i < logits.size(); ++i) {
            scores[i] = std::exp(logits[i] - mx);
            denom += scores[i];
        }
        for (double &s : scores)
            s /= denom;
    } else {
        for (std::size_t i = 0; i < logits.size(); ++i)
            scores[i] = 1.0 / (1.0 + std::exp(-logits[i]));
    }
    return scores;
}

/** Ids sorted by @p key descending, equal keys by id ascending. */
std::vector<std::uint32_t>
rankIds(std::vector<std::uint32_t> ids, const std::vector<double> &key)
{
    std::sort(ids.begin(), ids.end());
    std::stable_sort(ids.begin(), ids.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return key[a] > key[b];
                     });
    return ids;
}

/**
 * The selection rule written out longhand with full sorts: group
 * scores sum each group's top groupTopScores raw scores, largest
 * first; the final top-k ranks score + bias.
 */
std::vector<std::uint32_t>
referenceSelect(const GateConfig &cfg, const std::vector<double> &scores,
                const std::vector<double> &bias)
{
    std::vector<std::uint32_t> candidates;
    const std::size_t per_group = cfg.expertsPerGroup();
    if (cfg.nodeLimited()) {
        std::vector<double> group_score(cfg.groups, 0.0);
        for (std::size_t g = 0; g < cfg.groups; ++g) {
            std::vector<double> member(
                scores.begin() + (std::ptrdiff_t)(g * per_group),
                scores.begin() + (std::ptrdiff_t)((g + 1) * per_group));
            std::sort(member.begin(), member.end(), std::greater<>());
            const std::size_t n = std::min(cfg.groupTopScores, per_group);
            for (std::size_t i = 0; i < n; ++i)
                group_score[g] += member[i];
        }
        std::vector<std::uint32_t> groups(cfg.groups);
        std::iota(groups.begin(), groups.end(), 0u);
        groups = rankIds(groups, group_score);
        for (std::size_t w = 0; w < cfg.topKGroups; ++w)
            for (std::size_t i = 0; i < per_group; ++i)
                candidates.push_back(
                    (std::uint32_t)(groups[w] * per_group + i));
    } else {
        candidates.resize(cfg.experts);
        std::iota(candidates.begin(), candidates.end(), 0u);
    }
    std::vector<double> key = scores;
    for (std::size_t e = 0; e < key.size() && !bias.empty(); ++e)
        key[e] += bias[e];
    candidates = rankIds(candidates, key);
    candidates.resize(cfg.topK);
    return candidates;
}

/** Logits from {-1, 0, 1, 2}: most scores and group sums tie. */
std::vector<double>
tiedLogits(std::size_t n, Rng &rng)
{
    std::vector<double> logits(n);
    for (double &l : logits)
        l = (double)rng.nextBounded(4) - 1.0;
    return logits;
}

TEST(RouteStream, MatchesPerTokenRouteOnRandomConfigs)
{
    Rng rng(2024);
    for (int trial = 0; trial < 120; ++trial) {
        GateConfig cfg = randomGate(rng);
        const double skew = (double)rng.nextBounded(3);
        const std::uint64_t seed = rng.nextU64();
        TopKGate gate(cfg);
        TokenScoreGenerator stream_gen(cfg.experts, skew, seed);
        TokenScoreGenerator token_gen(cfg.experts, skew, seed);
        const std::size_t tokens = 40;
        std::vector<std::uint32_t> experts(tokens * cfg.topK);
        gate.routeStream(stream_gen, experts);
        std::vector<double> logits(cfg.experts);
        for (std::size_t t = 0; t < tokens; ++t) {
            token_gen.next(logits);
            std::vector<std::uint32_t> row(
                experts.begin() + (std::ptrdiff_t)(t * cfg.topK),
                experts.begin() + (std::ptrdiff_t)((t + 1) * cfg.topK));
            ASSERT_EQ(row, gate.route(logits).experts)
                << "trial " << trial << " token " << t;
        }
    }
}

TEST(RouteStream, ZeroBiasStreamEqualsPlainStream)
{
    Rng rng(7);
    for (int trial = 0; trial < 40; ++trial) {
        GateConfig cfg = randomGate(rng);
        TopKGate gate(cfg);
        const std::uint64_t seed = rng.nextU64();
        TokenScoreGenerator gen_plain(cfg.experts, 1.0, seed);
        TokenScoreGenerator gen_biased(cfg.experts, 1.0, seed);
        std::vector<std::uint32_t> plain(64 * cfg.topK);
        std::vector<std::uint32_t> biased(plain.size());
        const std::vector<double> zero(cfg.experts, 0.0);
        gate.routeStream(gen_plain, plain);
        gate.routeStream(gen_biased, biased, zero);
        EXPECT_EQ(plain, biased) << "trial " << trial;
    }
}

TEST(RouteStream, CoreMatchesLonghandReferenceWithTies)
{
    Rng rng(99);
    for (int trial = 0; trial < 400; ++trial) {
        GateConfig cfg = randomGate(rng);
        TopKGate gate(cfg);
        std::vector<double> logits = tiedLogits(cfg.experts, rng);
        if (trial % 2)
            for (double &l : logits)
                l += rng.normal();
        std::vector<double> bias;
        if (trial % 3 == 0)
            for (std::size_t e = 0; e < cfg.experts; ++e)
                bias.push_back(0.25 * (double)rng.nextBounded(3));
        const std::vector<double> scores = referenceScores(cfg, logits);
        const std::vector<std::uint32_t> want =
            referenceSelect(cfg, scores, bias);

        RoutingDecision d = gate.route(logits, bias);
        ASSERT_EQ(d.experts, want) << "trial " << trial;
        // Combine weights come from the raw scores whatever the bias.
        double denom = 0.0;
        for (std::uint32_t e : want)
            denom += scores[e];
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(d.weights[i], scores[want[i]] / denom)
                << "trial " << trial;
    }
}

TEST(RouteStream, CountsEveryToken)
{
    GateConfig cfg;
    cfg.experts = 32;
    cfg.topK = 4;
    obs::Registry &reg = obs::Registry::global();
    const std::uint64_t tokens_before =
        reg.counter("moe.gate.tokens_routed").value();
    const std::uint64_t experts_before =
        reg.counter("moe.gate.experts_selected").value();
    TokenScoreGenerator gen(32, 0.5, 5);
    std::vector<std::uint32_t> experts(25 * cfg.topK);
    TopKGate(cfg).routeStream(gen, experts);
    EXPECT_EQ(reg.counter("moe.gate.tokens_routed").value(),
              tokens_before + 25);
    EXPECT_EQ(reg.counter("moe.gate.experts_selected").value(),
              experts_before + 100);
}

TEST(RouteStream, BiasBalancedGateMatchesPerTokenReference)
{
    for (double skew : {0.5, 2.0}) {
        GateConfig cfg;
        cfg.experts = 32;
        cfg.topK = 4;
        const double gamma = 0.02;
        BiasBalancedGate balanced(cfg, gamma);
        TokenScoreGenerator stream_gen(32, skew, 41);
        TokenScoreGenerator token_gen(32, skew, 41);

        std::vector<double> bias(32, 0.0), batch(32, 0.0), total(32, 0.0);
        std::vector<double> logits(32);
        std::vector<std::uint32_t> experts(64 * cfg.topK);
        for (int b = 0; b < 30; ++b) {
            balanced.routeStream(stream_gen, experts);
            balanced.updateBiases();

            for (int t = 0; t < 64; ++t) {
                token_gen.next(logits);
                for (std::uint32_t e : referenceSelect(
                         cfg, referenceScores(cfg, logits), bias)) {
                    batch[e] += 1.0;
                    total[e] += 1.0;
                }
            }
            double mean = 0.0;
            for (double l : batch)
                mean += l;
            mean /= 32.0;
            for (std::size_t e = 0; e < 32; ++e) {
                if (batch[e] > mean)
                    bias[e] -= gamma;
                else if (batch[e] < mean)
                    bias[e] += gamma;
                batch[e] = 0.0;
            }
            ASSERT_EQ(balanced.biases(), bias)
                << "skew " << skew << " batch " << b;
        }
        EXPECT_EQ(balanced.totalLoad(), total) << "skew " << skew;
    }
}

} // namespace
} // namespace dsv3::moe
