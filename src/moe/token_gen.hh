/**
 * @file
 * Synthetic token-affinity generation for routing experiments.
 *
 * We do not have production token traces (and the paper publishes
 * none); instead we synthesize gate logits with two controllable
 * properties that determine routing behaviour:
 *
 *  - expert popularity skew: a per-expert base logit drawn once per
 *    stream, with configurable spread. Skew = 0 makes all experts
 *    equally likely (uniform routing); larger skews concentrate load
 *    the way real token distributions do.
 *  - per-token noise: i.i.d. Gumbel noise per (token, expert), so that
 *    top-k selection over (base + noise) behaves like sampling without
 *    replacement from a softmax distribution (the Gumbel-top-k trick).
 *
 * This preserves exactly what the node-limited-routing experiments
 * measure: the distribution of nodes-touched M and per-expert load
 * balance under the actual selection algorithm.
 */

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hh"

namespace dsv3::moe {

class TokenScoreGenerator
{
  public:
    /**
     * @param experts routed experts
     * @param popularity_skew stddev of the per-expert base logit
     * @param seed RNG seed (stream is deterministic given the seed)
     */
    TokenScoreGenerator(std::size_t experts, double popularity_skew,
                        std::uint64_t seed = 1);

    /** Write the next token's gate logits (one per expert). */
    void next(std::span<double> logits);

    const std::vector<double> &baseLogits() const { return base_; }

  private:
    std::vector<double> base_;
    Rng rng_;
};

} // namespace dsv3::moe
