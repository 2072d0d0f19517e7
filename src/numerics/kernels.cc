#include "numerics/kernels.hh"

#include <atomic>
#include <bit>
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
    // The integer rounding below needs the significand math to stay
    // exact in 64 bits and the reconstructed values to stay in the
    // double normal range; every format the paper touches is far
    // inside these bounds.
    DSV3_ASSERT(fmt.ebits >= 2 && fmt.mbits >= 1, "fmt=", fmt.name);
    DSV3_ASSERT(fmt.mbits <= 51 && fmt.totalBits() <= 32,
                "fmt=", fmt.name);
    const int emin = 1 - fmt.bias;
    const int emax =
        (fmt.finiteOnly ? (1 << fmt.ebits) - 1 : (1 << fmt.ebits) - 2) -
        fmt.bias;
    DSV3_ASSERT(emax <= kDoubleBias && emin - fmt.mbits >= -1022,
                "format exceeds double range: ", fmt.name);

    FormatKernels k;
    k.ebits = fmt.ebits;
    k.mbits = fmt.mbits;
    k.bias = fmt.bias;
    k.finiteOnly = fmt.finiteOnly;
    k.emin = emin;
    k.emax = emax;
    k.expMask = (1u << fmt.ebits) - 1;
    k.mantMask = (1u << fmt.mbits) - 1;
    k.signShift = fmt.ebits + fmt.mbits;
    k.nanCode = fmt.finiteOnly
        ? (k.expMask << fmt.mbits) | k.mantMask
        : (k.expMask << fmt.mbits) | (1u << (fmt.mbits - 1));
    k.infCode = k.expMask << fmt.mbits;
    k.maxCode = fmt.finiteOnly
        ? (k.expMask << fmt.mbits) | (k.mantMask - 1)
        : ((k.expMask - 1) << fmt.mbits) | k.mantMask;
    k.maxFinite = fmt.maxFinite();
    k.subScale = std::ldexp(1.0, emin - fmt.mbits);
    k.minNormal = std::ldexp(1.0, emin);
    k.subMagic = std::ldexp(1.0, emin - fmt.mbits + 52);
    k.overflow = fmt.finiteOnly ? k.maxFinite
                                : std::numeric_limits<double>::infinity();
    if (fmt.totalBits() <= kMaxLutBits) {
        k.decodeLut.resize(fmt.codeCount());
        for (std::uint32_t code = 0; code < fmt.codeCount(); ++code)
            k.decodeLut[code] = decodeRef(fmt, code);
    }
    return k;
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
    // (quantize()/encode()/decode() on one value) hit the same format
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

double
detail::decodeWide(const FormatKernels &k, std::uint32_t code)
{
    const FloatFormat fmt{"", k.ebits, k.mbits, k.bias, k.finiteOnly};
    return decodeRef(fmt, code);
}

void
decodeSpan(const FloatFormat &fmt, std::span<const std::uint32_t> in,
           double *out)
{
    const FormatKernels &k = formatKernels(fmt);
    if (k.hasLut()) {
        kernels().decodeLutSpan(k.decodeLut.data(), in.data(), out,
                                in.size());
        return;
    }
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = decodeFast(k, in[i]);
}

void
quantizeSpan(const FloatFormat &fmt, std::span<const double> in,
             double *out)
{
    kernels().quantizeSpan(formatKernels(fmt), in.data(), 1.0, out,
                           in.size(), false, nullptr, nullptr);
}

} // namespace dsv3::numerics
