/**
 * @file
 * Routing statistics: everything Sec 4.3's argument rests on.
 *
 * Feed routed tokens (plus the placement) and read back:
 *  - the distribution of M = number of distinct nodes a token's routed
 *    experts land on (node-limited routing bounds this by topKGroups),
 *  - the IB dedup factor: with NVLink forwarding, a token crosses IB
 *    once per *node* instead of once per *expert*, so IB traffic
 *    shrinks from topK*t to E[M]*t,
 *  - per-expert and per-GPU load balance.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "moe/placement.hh"

namespace dsv3::moe {

class RoutingStats
{
  public:
    explicit RoutingStats(const ExpertPlacement &placement);

    /**
     * Accumulate routed tokens of @p top_k experts each: token t's at
     * experts[t*top_k, (t+1)*top_k), as TopKGate::routeStream()
     * writes them.
     */
    void add(std::span<const std::uint32_t> experts, std::size_t top_k);

    std::size_t tokens() const { return tokens_; }

    /** Mean number of distinct nodes per token (E[M]). */
    double meanNodesTouched() const;

    /** Max observed M. */
    std::size_t maxNodesTouched() const;

    /** P(M == m); m in [0, nodes]. */
    double nodesTouchedFraction(std::size_t m) const;

    /**
     * IB traffic ratio vs no NVLink forwarding: E[M] / topK assuming
     * every selected expert would otherwise receive its own IB copy.
     */
    double ibDedupFactor(std::size_t top_k) const;

    /** Per-expert token counts. */
    const std::vector<double> &expertLoad() const { return expertLoad_; }

    /** Per-GPU token counts (each selected expert counts once). */
    std::vector<double> gpuLoad() const;

    /** max/mean of per-expert load; 1.0 = perfectly balanced. */
    double expertImbalance() const;

  private:
    const ExpertPlacement &placement_;
    std::size_t tokens_ = 0;
    std::vector<std::size_t> nodesTouchedHist_; //!< index m
    std::vector<double> expertLoad_;
    double sumNodesTouched_ = 0.0;
};

} // namespace dsv3::moe
