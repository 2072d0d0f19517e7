#include "numerics/kernels.hh"

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/logging.hh"
#include "numerics/dispatch.hh"

namespace dsv3::numerics {

namespace {

constexpr int kDoubleBias = 1023;

FormatKernels
buildKernels(const FloatFormat &fmt)
{
    // quantizeValue()'s integer rounding needs the significand math to
    // stay exact in 64 bits and the reconstructed values to stay in the
    // double normal range; every format the paper touches is far
    // inside these bounds.
    DSV3_ASSERT(fmt.ebits >= 2 && fmt.mbits >= 1, "fmt=", fmt.name);
    DSV3_ASSERT(fmt.mbits <= 51, "fmt=", fmt.name);
    const int emin = 1 - fmt.bias;
    const int emax =
        (fmt.finiteOnly ? (1 << fmt.ebits) - 1 : (1 << fmt.ebits) - 2) -
        fmt.bias;
    DSV3_ASSERT(emax <= kDoubleBias && emin - fmt.mbits >= -1022,
                "format exceeds double range: ", fmt.name);

    const double max_finite = fmt.maxFinite();
    return {.mbits = fmt.mbits,
            .finiteOnly = fmt.finiteOnly,
            .maxFinite = max_finite,
            .subScale = std::ldexp(1.0, emin - fmt.mbits),
            .minNormal = std::ldexp(1.0, emin),
            .subMagic = std::ldexp(1.0, emin - fmt.mbits + 52),
            .overflow = fmt.finiteOnly
                ? max_finite : std::numeric_limits<double>::infinity()};
}

/**
 * Append-only lock-free cache keyed by the format's semantics. The
 * list holds one node per distinct format ever used (a handful), so
 * the lookup walk is shorter than a hash.
 */
struct CacheNode
{
    int ebits, mbits, bias;
    bool finiteOnly;
    FormatKernels kernels;
    CacheNode *next;
};

std::atomic<CacheNode *> g_cache{nullptr};
std::mutex g_cacheMu;

const FormatKernels *
findKernels(CacheNode *head, const FloatFormat &fmt)
{
    for (CacheNode *n = head; n; n = n->next) {
        if (n->ebits == fmt.ebits && n->mbits == fmt.mbits &&
            n->bias == fmt.bias && n->finiteOnly == fmt.finiteOnly) {
            return &n->kernels;
        }
    }
    return nullptr;
}

} // namespace

const FormatKernels &
formatKernels(const FloatFormat &fmt)
{
    // Per-thread memo of the last format resolved: scalar call sites
    // (quantize()/quantizeTruncate() on one value) hit the same format
    // over and over, so this turns the list walk into four compares.
    struct LastUsed
    {
        int ebits = 0, mbits = 0, bias = 0;
        bool finiteOnly = false;
        const FormatKernels *kernels = nullptr;
    };
    thread_local LastUsed last;
    if (last.kernels && last.ebits == fmt.ebits &&
        last.mbits == fmt.mbits && last.bias == fmt.bias &&
        last.finiteOnly == fmt.finiteOnly) {
        return *last.kernels;
    }

    const FormatKernels *k =
        findKernels(g_cache.load(std::memory_order_acquire), fmt);
    if (!k) {
        std::lock_guard<std::mutex> lock(g_cacheMu);
        k = findKernels(g_cache.load(std::memory_order_relaxed), fmt);
        if (!k) {
            CacheNode *node = new CacheNode{
                fmt.ebits, fmt.mbits, fmt.bias, fmt.finiteOnly,
                buildKernels(fmt),
                g_cache.load(std::memory_order_relaxed)};
            g_cache.store(node, std::memory_order_release);
            k = &node->kernels;
        }
    }
    last = {fmt.ebits, fmt.mbits, fmt.bias, fmt.finiteOnly, k};
    return *k;
}

void
quantizeSpan(const FloatFormat &fmt, std::span<const double> in,
             double *out)
{
    kernels().quantizeSpan(formatKernels(fmt), in.data(), 1.0, out,
                           in.size(), nullptr, nullptr);
}

} // namespace dsv3::numerics
