/**
 * @file
 * Paged KV-cache manager for one decode engine.
 *
 * The KV cache is carved into fixed-size blocks of `blockTokens`
 * tokens; a resident sequence owns ceil(context / blockTokens) blocks
 * and grows one block at a time as it decodes. The block budget comes
 * from the device memory left after weights, priced per token by
 * model::kvCacheBytesPerToken() (the Table 1 MLA/GQA footprints), so
 * the pager is the live-traffic face of the same byte model the
 * analytic calculators use. The scheduler consults the pager for
 * admission (can this prompt's blocks be reserved?) and for growth at
 * every step; a failed growth triggers preemption of the youngest
 * resident sequence.
 *
 * The pager keeps only block totals. Each sequence's block count is
 * the caller's (the simulator keeps one per request id, in a vector
 * beside its request table) and is passed by reference: tryAllocate()
 * needs it at 0, tryGrow() raises it, and release() returns its blocks
 * to the pool and sets it to 0. An unlimited pager leaves it at 0.
 * Counts are 32-bit, so the constructor rejects a budget of 2^32 or
 * more blocks.
 *
 * Invariant: usedBlocks() is the sum of the counts handed out, and
 * usedBytes() never exceeds budgetBytes — there is no overcommit path.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace dsv3::inference::serving {

struct KvPagerConfig
{
    double budgetBytes = 0.0;   //!< 0 disables paging (unlimited)
    double bytesPerToken = 0.0; //!< model::kvCacheBytesPerToken()
    std::size_t blockTokens = 64;
};

class KvPager
{
  public:
    explicit KvPager(const KvPagerConfig &config);

    bool unlimited() const { return unlimited_; }
    std::size_t totalBlocks() const { return total_; }
    std::size_t usedBlocks() const { return used_; }
    std::size_t freeBlocks() const { return total_ - used_; }
    std::size_t highWaterBlocks() const { return highWater_; }
    double blockBytes() const { return blockBytes_; }
    double usedBytes() const { return (double)used_ * blockBytes_; }
    double budgetBytes() const { return config_.budgetBytes; }

    /** Blocks needed to cover a context of @p tokens tokens. */
    std::size_t blocksFor(std::size_t tokens) const;

    /** Can a sequence of @p tokens context ever be resident? */
    bool fitsEver(std::size_t tokens) const;

    /**
     * Reserve blocksFor(tokens) for a new sequence whose count
     * @p held is 0. Returns false (allocating nothing) if the free
     * pool is short.
     */
    bool
    tryAllocate(std::uint32_t &held, std::size_t tokens)
    {
        DSV3_ASSERT(held == 0, "sequence already resident in pager");
        return tryGrow(held, tokens);
    }

    /**
     * Extend a reservation of @p held blocks to cover @p tokens.
     * Growth is all-or-nothing; returns false if the extra blocks
     * don't fit.
     *
     * The unlimited (budget 0) configuration is the common case in
     * closed-loop studies and is checked inline: the simulator calls
     * tryGrow() once per resident sequence per decode step, so the
     * fast path must not cost a function call.
     */
    bool
    tryGrow(std::uint32_t &held, std::size_t tokens)
    {
        if (unlimited_)
            return true;
        return growSlow(held, tokens);
    }

    /** Return the @p held blocks to the pool and set @p held to 0. */
    void
    release(std::uint32_t &held)
    {
        DSV3_ASSERT(used_ >= held);
        used_ -= held;
        held = 0;
    }

  private:
    bool growSlow(std::uint32_t &held, std::size_t tokens);

    KvPagerConfig config_;
    bool unlimited_ = false;
    double blockBytes_ = 0.0;
    std::size_t total_ = 0;
    std::size_t used_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace dsv3::inference::serving
