/**
 * @file
 * Auxiliary-loss-free load balancing (the DeepSeek-V3 gate's online
 * balancing strategy).
 *
 * DeepSeek-V3 balances expert load without an auxiliary loss term:
 * each expert carries a bias added to its affinity score *for TopK
 * selection only* (combine weights still use the raw scores). After
 * each batch, overloaded experts' biases decrease and underloaded
 * experts' biases increase by a fixed speed gamma, steering future
 * routing toward balance without distorting the gradient signal.
 *
 * This class wraps a TopKGate with the bias mechanism and the update
 * rule so the routing-statistics experiments can quantify how fast
 * and how well it converges versus the skew of the token stream.
 */

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "moe/gate.hh"

namespace dsv3::moe {

class BiasBalancedGate
{
  public:
    /**
     * @param cfg underlying gate configuration
     * @param update_speed the bias step gamma per batch
     */
    explicit BiasBalancedGate(const GateConfig &cfg,
                              double update_speed = 0.001);

    /**
     * Route one token: selection uses score + bias, combine weights
     * use the raw scores (auxiliary-loss-free semantics). Records the
     * selection in the current batch's load counters.
     */
    RoutingDecision route(std::span<const double> logits);

    /**
     * Route a token stream as TopKGate::routeStream() does, selecting
     * on score + bias, and record every selection in the current
     * batch's load counters.
     */
    void routeStream(TokenScoreGenerator &gen,
                     std::span<std::uint32_t> experts);

    /**
     * End-of-batch bias update: experts above the mean load get
     * bias -= gamma, below the mean get bias += gamma. Resets the
     * batch counters.
     */
    void updateBiases();

    const std::vector<double> &biases() const { return biases_; }

    /** Cumulative per-expert load since construction. */
    const std::vector<double> &totalLoad() const { return totalLoad_; }

    /** max/mean of cumulative expert load. */
    double imbalance() const;

  private:
    void record(std::span<const std::uint32_t> experts);

    TopKGate gate_;
    double updateSpeed_;
    std::vector<double> biases_;
    std::vector<double> batchLoad_;
    std::vector<double> totalLoad_;
};

} // namespace dsv3::moe
