#include "moe/token_gen.hh"

#include "common/logging.hh"

namespace dsv3::moe {

TokenScoreGenerator::TokenScoreGenerator(std::size_t experts,
                                         double popularity_skew,
                                         std::uint64_t seed)
    : base_(experts, 0.0), rng_(seed)
{
    for (auto &b : base_)
        b = rng_.normal(0.0, popularity_skew);
}

void
TokenScoreGenerator::next(std::span<double> logits)
{
    DSV3_ASSERT(logits.size() == base_.size());
    for (std::size_t i = 0; i < base_.size(); ++i)
        logits[i] = base_[i] + rng_.gumbel();
}

} // namespace dsv3::moe
