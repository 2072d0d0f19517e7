/**
 * @file
 * TopK expert gating with DeepSeek-V3's node-limited (group-limited)
 * routing (paper Sec 4.3).
 *
 * The gate receives one affinity score per routed expert. Plain TopK
 * picks the k highest scores anywhere. Node-limited routing first
 * partitions the experts into `groups` equal groups (one group deployed
 * per node), scores each group by the sum of its top-2 expert
 * affinities (the DeepSeek-V3 technical report's group metric), keeps
 * the best `topKGroups` groups, and only then selects the top-k experts
 * inside the surviving groups. This algorithmically bounds the number
 * of nodes M a token's experts can live on, which bounds the
 * deduplicated IB traffic to M*t (Sec 4.3).
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dsv3::moe {

/** How raw gate logits become affinity scores. */
enum class GateScoring
{
    SOFTMAX, //!< DeepSeek-V2 style
    SIGMOID, //!< DeepSeek-V3 style
};

struct GateConfig
{
    std::size_t experts = 256;    //!< routed experts
    std::size_t topK = 8;         //!< routed experts per token
    GateScoring scoring = GateScoring::SIGMOID;

    // Node-limited routing; groups == 1 disables the group stage.
    std::size_t groups = 1;       //!< expert groups (nodes)
    std::size_t topKGroups = 1;   //!< groups a token may route to
    std::size_t groupTopScores = 2; //!< per-group score = sum of top-n

    bool nodeLimited() const { return groups > 1; }
    std::size_t expertsPerGroup() const { return experts / groups; }
};

/** Routing decision for one token. */
struct RoutingDecision
{
    std::vector<std::uint32_t> experts; //!< selected, descending score
    std::vector<double> weights;        //!< normalized combine weights
};

class TokenScoreGenerator;

class TopKGate
{
  public:
    explicit TopKGate(const GateConfig &cfg);

    const GateConfig &config() const { return cfg_; }

    /**
     * Route one token given raw logits (length == cfg.experts).
     * Scores are computed per cfg.scoring; weights are re-normalized
     * over the selected experts (DeepSeek-V3 normalizes sigmoid scores
     * by their sum). @p bias (empty, or one per expert) is added to
     * the scores for the final top-k selection only: group scores and
     * combine weights use the raw scores (auxiliary-loss-free
     * balancing).
     */
    RoutingDecision route(std::span<const double> logits,
                          std::span<const double> bias = {}) const;

    /**
     * The batched routing path: draw experts.size() / topK tokens
     * from @p gen and select each one's experts exactly as route()
     * would, writing token t's to experts[t*topK, (t+1)*topK). Nothing
     * is allocated per token, and the stream is one trace span.
     */
    void routeStream(TokenScoreGenerator &gen,
                     std::span<std::uint32_t> experts,
                     std::span<const double> bias = {}) const;

  private:
    GateConfig cfg_;
};

} // namespace dsv3::moe
