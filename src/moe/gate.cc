#include "moe/gate.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "moe/token_gen.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::moe {

namespace {

void
countRouted(std::size_t tokens, std::size_t experts)
{
    static obs::Counter &routed =
        obs::Registry::global().counter("moe.gate.tokens_routed");
    static obs::Counter &selected =
        obs::Registry::global().counter("moe.gate.experts_selected");
    routed.inc(tokens);
    selected.inc(experts);
}

/** Put the k best of ids[0, n) first, in (key desc, id asc) order. */
template <class Key>
void
topK(std::uint32_t *ids, std::size_t n, std::size_t k, const Key &key)
{
    std::partial_sort(ids, ids + k, ids + n,
                      [&](std::uint32_t a, std::uint32_t b) {
                          const double ka = key(a), kb = key(b);
                          return ka != kb ? ka > kb : a < b;
                      });
}

/** Working memory of one route() or routeStream() call. */
struct Scratch
{
    explicit Scratch(const GateConfig &cfg)
        : scores(cfg.experts), groupScore(cfg.groups),
          member(std::min(cfg.groupTopScores, cfg.expertsPerGroup())),
          ids(cfg.experts), groupIds(cfg.groups)
    {
    }

    std::vector<double> scores, groupScore, member;
    std::vector<std::uint32_t> ids, groupIds;
};

/**
 * The gate's one scoring-and-selection core: scores @p logits into
 * s.scores and writes cfg.topK experts to @p experts in
 * (score + bias desc, id asc) order. Groups rank by raw scores.
 */
void
select(const GateConfig &cfg, std::span<const double> logits,
       std::span<const double> bias, Scratch &s,
       std::uint32_t *experts)
{
    std::vector<double> &scores = s.scores;
    if (cfg.scoring == GateScoring::SOFTMAX) {
        double mx = *std::max_element(logits.begin(), logits.end());
        double denom = 0.0;
        for (std::size_t i = 0; i < logits.size(); ++i) {
            scores[i] = std::exp(logits[i] - mx);
            denom += scores[i];
        }
        for (auto &v : scores)
            v /= denom;
    } else {
        for (std::size_t i = 0; i < logits.size(); ++i)
            scores[i] = 1.0 / (1.0 + std::exp(-logits[i]));
    }

    // Candidate set: all experts, or only those in the winning groups.
    std::size_t n = 0;
    if (cfg.nodeLimited()) {
        const std::size_t per_group = cfg.expertsPerGroup();
        for (std::size_t g = 0; g < cfg.groups; ++g) {
            auto first = scores.begin() + (std::ptrdiff_t)(g * per_group);
            std::partial_sort_copy(first, first + (std::ptrdiff_t)per_group,
                                   s.member.begin(), s.member.end(),
                                   std::greater<>());
            s.groupScore[g] =
                std::accumulate(s.member.begin(), s.member.end(), 0.0);
            s.groupIds[g] = (std::uint32_t)g;
        }
        topK(s.groupIds.data(), cfg.groups, cfg.topKGroups,
             [&](std::uint32_t g) { return s.groupScore[g]; });
        for (std::size_t w = 0; w < cfg.topKGroups; ++w)
            for (std::size_t i = 0; i < per_group; ++i)
                s.ids[n++] = (std::uint32_t)(s.groupIds[w] * per_group + i);
    } else {
        for (; n < cfg.experts; ++n)
            s.ids[n] = (std::uint32_t)n;
    }
    topK(s.ids.data(), n, cfg.topK, [&](std::uint32_t e) {
        return bias.empty() ? scores[e] : scores[e] + bias[e];
    });
    std::copy_n(s.ids.begin(), cfg.topK, experts);
}

} // namespace

TopKGate::TopKGate(const GateConfig &cfg) : cfg_(cfg)
{
    DSV3_ASSERT(cfg_.experts > 0);
    DSV3_ASSERT(cfg_.topK > 0 && cfg_.topK <= cfg_.experts);
    DSV3_ASSERT(cfg_.groups >= 1);
    DSV3_ASSERT(cfg_.experts % cfg_.groups == 0,
                "experts must divide evenly into groups");
    DSV3_ASSERT(cfg_.topKGroups >= 1 && cfg_.topKGroups <= cfg_.groups);
    if (cfg_.nodeLimited()) {
        DSV3_ASSERT(cfg_.topKGroups * cfg_.expertsPerGroup() >= cfg_.topK,
                    "selected groups must contain >= topK experts");
    }
}

RoutingDecision
TopKGate::route(std::span<const double> logits,
                std::span<const double> bias) const
{
    DSV3_ASSERT(logits.size() == cfg_.experts);
    DSV3_ASSERT(bias.empty() || bias.size() == cfg_.experts);
    Scratch s(cfg_);
    RoutingDecision out;
    out.experts.resize(cfg_.topK);
    select(cfg_, logits, bias, s, out.experts.data());

    // Combine weights: selected raw scores normalized by their sum.
    out.weights.resize(out.experts.size());
    double denom = 0.0;
    for (std::uint32_t e : out.experts)
        denom += s.scores[e];
    DSV3_ASSERT(denom > 0.0);
    for (std::size_t i = 0; i < out.experts.size(); ++i)
        out.weights[i] = s.scores[out.experts[i]] / denom;
    countRouted(1, out.experts.size());
    return out;
}

void
TopKGate::routeStream(TokenScoreGenerator &gen,
                      std::span<std::uint32_t> experts,
                      std::span<const double> bias) const
{
    DSV3_ASSERT(experts.size() % cfg_.topK == 0);
    DSV3_ASSERT(bias.empty() || bias.size() == cfg_.experts);
    const std::size_t tokens = experts.size() / cfg_.topK;
    DSV3_TRACE_SPAN("moe.gate.stream", "tokens", tokens);
    Scratch s(cfg_);
    std::vector<double> logits(cfg_.experts);
    for (std::size_t t = 0; t < tokens; ++t) {
        gen.next(logits);
        select(cfg_, logits, bias, s, experts.data() + t * cfg_.topK);
    }
    countRouted(tokens, experts.size());
}

} // namespace dsv3::moe
