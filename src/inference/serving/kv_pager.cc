#include "inference/serving/kv_pager.hh"

#include <algorithm>

namespace dsv3::inference::serving {

KvPager::KvPager(const KvPagerConfig &config) : config_(config)
{
    DSV3_ASSERT(config.blockTokens > 0);
    if (config.budgetBytes <= 0.0) {
        unlimited_ = true;
        return;
    }
    DSV3_ASSERT(config.bytesPerToken > 0.0,
                "paged KV needs a per-token byte cost");
    blockBytes_ = config.bytesPerToken * (double)config.blockTokens;
    const double blocks = config.budgetBytes / blockBytes_;
    DSV3_ASSERT(blocks < 0x1p32, "KV budget of ", blocks,
                " blocks overflows the 32-bit per-sequence block "
                "counts");
    total_ = (std::size_t)blocks;
}

std::size_t
KvPager::blocksFor(std::size_t tokens) const
{
    return (tokens + config_.blockTokens - 1) / config_.blockTokens;
}

bool
KvPager::fitsEver(std::size_t tokens) const
{
    return unlimited_ || blocksFor(tokens) <= total_;
}

bool
KvPager::growSlow(std::uint32_t &held, std::size_t tokens)
{
    const std::size_t need = blocksFor(tokens);
    if (need <= held)
        return true;
    const std::size_t extra = need - held;
    if (extra > freeBlocks())
        return false;
    held = (std::uint32_t)need;
    used_ += extra;
    highWater_ = std::max(highWater_, used_);
    return true;
}

} // namespace dsv3::inference::serving
