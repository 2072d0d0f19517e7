#include "moe/placement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dsv3::moe {

ExpertPlacement::ExpertPlacement(std::size_t experts, std::size_t nodes,
                                 std::size_t gpus_per_node)
    : experts_(experts), nodes_(nodes), gpusPerNode_(gpus_per_node)
{
    DSV3_ASSERT(experts_ > 0 && nodes_ > 0 && gpusPerNode_ > 0);
    DSV3_ASSERT(experts_ % (nodes_ * gpusPerNode_) == 0,
                "experts must divide evenly over GPUs");
}

std::uint32_t
ExpertPlacement::node(std::uint32_t expert) const
{
    DSV3_ASSERT(expert < experts_);
    return (std::uint32_t)(expert / expertsPerNode());
}

std::uint32_t
ExpertPlacement::gpu(std::uint32_t expert) const
{
    DSV3_ASSERT(expert < experts_);
    return (std::uint32_t)(expert / expertsPerGpu());
}

std::array<std::size_t, 3>
ExpertPlacement::footprint(std::span<const std::uint32_t> experts,
                           std::span<std::uint32_t> gpus,
                           std::span<std::uint32_t> nodes,
                           const std::vector<bool> *dead) const
{
    DSV3_ASSERT(gpus.size() >= experts.size() &&
                nodes.size() >= experts.size());
    auto end = std::transform(experts.begin(), experts.end(),
                              gpus.begin(),
                              [&](std::uint32_t e) { return gpu(e); });
    std::sort(gpus.begin(), end);
    end = std::unique(gpus.begin(), end);
    std::size_t live = 0, m = 0;
    for (auto it = gpus.begin(); it != end; ++it) {
        if (dead && !dead->empty() && (*dead)[*it])
            continue;
        const std::uint32_t node = *it / (std::uint32_t)gpusPerNode_;
        if (m == 0 || nodes[m - 1] != node)
            nodes[m++] = node;
        gpus[live++] = *it;
    }
    return {live, m, (std::size_t)(end - gpus.begin()) - live};
}

} // namespace dsv3::moe
