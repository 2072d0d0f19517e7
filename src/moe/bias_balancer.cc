#include "moe/bias_balancer.hh"

#include "common/logging.hh"
#include "common/stats.hh"

namespace dsv3::moe {

BiasBalancedGate::BiasBalancedGate(const GateConfig &cfg,
                                   double update_speed)
    : gate_(cfg), updateSpeed_(update_speed),
      biases_(cfg.experts, 0.0), batchLoad_(cfg.experts, 0.0),
      totalLoad_(cfg.experts, 0.0)
{
    DSV3_ASSERT(cfg.groups == 1,
                "bias balancing implemented for ungrouped gates; "
                "compose with node-limited routing at the EP layer");
    DSV3_ASSERT(update_speed > 0.0);
}

RoutingDecision
BiasBalancedGate::route(std::span<const double> logits)
{
    RoutingDecision out = gate_.route(logits, biases_);
    record(out.experts);
    return out;
}

void
BiasBalancedGate::routeStream(TokenScoreGenerator &gen,
                              std::span<std::uint32_t> experts)
{
    gate_.routeStream(gen, experts, biases_);
    record(experts);
}

void
BiasBalancedGate::record(std::span<const std::uint32_t> experts)
{
    for (std::uint32_t e : experts) {
        batchLoad_[e] += 1.0;
        totalLoad_[e] += 1.0;
    }
}

void
BiasBalancedGate::updateBiases()
{
    double mean = 0.0;
    for (double l : batchLoad_)
        mean += l;
    mean /= (double)batchLoad_.size();
    for (std::size_t e = 0; e < biases_.size(); ++e) {
        if (batchLoad_[e] > mean)
            biases_[e] -= updateSpeed_;
        else if (batchLoad_[e] < mean)
            biases_[e] += updateSpeed_;
        batchLoad_[e] = 0.0;
    }
}

double
BiasBalancedGate::imbalance() const
{
    return maxOverMean(totalLoad_);
}

} // namespace dsv3::moe
