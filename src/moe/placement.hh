/**
 * @file
 * Expert placement: which (node, GPU) serves each routed expert.
 *
 * The paper's deployment (Sec 4.3) groups 256 routed experts into 8
 * groups of 32 and deploys one group per node; within a node the 32
 * experts spread over the 8 GPUs (4 experts per GPU). Placement is
 * contiguous so that gate group g == node g, which is what makes
 * group-limited routing node-limited.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dsv3::moe {

class ExpertPlacement
{
  public:
    /**
     * @param experts routed experts in the deployment
     * @param nodes nodes in the EP group
     * @param gpus_per_node GPUs per node
     */
    ExpertPlacement(std::size_t experts, std::size_t nodes,
                    std::size_t gpus_per_node);

    std::size_t experts() const { return experts_; }
    std::size_t nodes() const { return nodes_; }
    std::size_t gpusPerNode() const { return gpusPerNode_; }
    std::size_t totalGpus() const { return nodes_ * gpusPerNode_; }
    std::size_t expertsPerNode() const { return experts_ / nodes_; }
    std::size_t expertsPerGpu() const
    {
        return experts_ / totalGpus();
    }

    /** Node hosting @p expert. */
    std::uint32_t node(std::uint32_t expert) const;

    /** Global GPU index hosting @p expert. */
    std::uint32_t gpu(std::uint32_t expert) const;

    /**
     * The one nodes-touched dedup: writes the distinct GPUs serving a
     * token's @p experts, less any marked in @p dead, ascending to
     * @p gpus, and the distinct nodes among them to @p nodes (each
     * with room for experts.size()). Returns {GPUs, nodes, GPUs left
     * out as dead}.
     */
    std::array<std::size_t, 3>
    footprint(std::span<const std::uint32_t> experts,
              std::span<std::uint32_t> gpus,
              std::span<std::uint32_t> nodes,
              const std::vector<bool> *dead = nullptr) const;

  private:
    std::size_t experts_;
    std::size_t nodes_;
    std::size_t gpusPerNode_;
};

} // namespace dsv3::moe
