/**
 * @file
 * Fast minifloat kernels: the value-only quantizer, its truncating
 * twin, and the span API over the dispatched quantizeSpan.
 *
 * The scalar reference codec in minifloat.cc (quantizeRef /
 * quantizeTruncateRef) goes through frexp/ldexp/nearbyint double math
 * per element. These kernels produce byte-identical values on the
 * double's bit pattern, with no per-element format lookup:
 *
 *  - quantize: quantizeValue() rounds the magnitude's bit pattern as
 *    an integer at or above 2^emin and with one exact add-subtract
 *    below it, with no classification of the input;
 *  - truncate: quantizeTruncateFast() clears the dropped bits at or
 *    above 2^emin and truncates a fixed-point count below it (the
 *    Hopper FP22 accumulator, Fp22Register);
 *  - quantizeSpan() amortizes the format lookup across a whole span;
 *    the fine-grained quantizer (quantize.cc) calls the KernelTable
 *    slot directly, a scale region at a time.
 *
 * Kernels are cached per *semantic* format (ebits/mbits/bias/
 * finiteOnly), not per FloatFormat address, so short-lived format
 * objects cannot alias a stale cache entry.
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/**
 * Precomputed per-format constants. Obtain via formatKernels();
 * instances live for the whole process.
 */
struct FormatKernels
{
    int mbits;                 //!< mantissa (fraction) field width
    bool finiteOnly;
    double maxFinite;
    double subScale;           //!< 2^(emin - mbits), the subnormal ULP
    double minNormal;          //!< 2^emin
    double subMagic;           //!< 2^(emin - mbits + 52): ULP subScale
    double overflow;           //!< |x| past maxFinite becomes this:
                               //!< maxFinite (finite-only) or +inf
};

/**
 * Kernels for @p fmt, built on first use and cached for the life of
 * the process. Lookup is a short lock-free list walk (the working set
 * is the handful of formats the paper studies), cheap enough for
 * scalar call sites; batch call sites should hoist the reference.
 */
const FormatKernels &formatKernels(const FloatFormat &fmt);

namespace detail {

inline constexpr std::uint64_t kSignBit = 1ull << 63;
inline constexpr std::uint64_t kInfBits = 0x7ffull << 52;

} // namespace detail

/**
 * quantizeRef(fmt, x) on the double's bit pattern; the SIMD tables run
 * the same steps lane-wise (kernels_lanes.hh). With mag = |x|'s bits:
 *  - at or above 2^emin, nearest-even is integer arithmetic on mag at
 *    s = 52 - mbits dropped bits: adding 2^(s-1) - 1 plus the kept
 *    LSB carries past the dropped bits exactly when they exceed half,
 *    or equal it with an odd LSB, and a carry out of the mantissa is
 *    exactly the round-up into the next binade;
 *  - below 2^emin, (|x| + subMagic) - subMagic: the add rounds |x| to
 *    a multiple of ulp(subMagic) = subScale, nearest-even, and the
 *    subtraction is exact. A result of 2^emin is the round-up to the
 *    smallest normal; double subnormals need no normalization;
 *  - past maxFinite (infinity included) the magnitude saturates or
 *    becomes +inf, per FormatKernels::overflow; then the sign comes
 *    back. NaN passes through with its payload.
 */
inline double
quantizeValue(const FormatKernels &k, double x)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t mag = bits & ~detail::kSignBit;
    if (mag > detail::kInfBits)
        return x;
    std::uint64_t q;
    if (mag < std::bit_cast<std::uint64_t>(k.minNormal)) {
        const double fixed = std::bit_cast<double>(mag) + k.subMagic;
        q = std::bit_cast<std::uint64_t>(fixed - k.subMagic);
    } else {
        const int s = 52 - k.mbits;
        q = (mag + ((1ull << (s - 1)) - 1) + ((mag >> s) & 1)) &
            ~((1ull << s) - 1);
    }
    if (q > std::bit_cast<std::uint64_t>(k.maxFinite))
        q = std::bit_cast<std::uint64_t>(k.overflow);
    return std::bit_cast<double>(q | (bits & detail::kSignBit));
}

/**
 * quantizeTruncateRef(fmt, x) on the double's bit pattern, for
 * quantizeTruncate() and Fp22Register. Truncation never carries, so
 * at or above 2^emin it clears the s = 52 - mbits dropped bits of
 * |x|, and below 2^emin it keeps the whole subnormal ULPs of |x| (the
 * quotient and product are exact power-of-two scalings). A finite
 * magnitude past maxFinite saturates; an infinity saturates only in a
 * finite-only format, and NaN passes through with its payload.
 */
inline double
quantizeTruncateFast(const FormatKernels &k, double x)
{
    const std::uint64_t mag =
        std::bit_cast<std::uint64_t>(x) & ~detail::kSignBit;
    if (mag >= detail::kInfBits)
        return mag == detail::kInfBits && k.finiteOnly
            ? std::copysign(k.maxFinite, x) : x;
    double y = std::bit_cast<double>(mag);
    if (mag < std::bit_cast<std::uint64_t>(k.minNormal))
        y = std::trunc(y / k.subScale) * k.subScale;
    else
        y = std::bit_cast<double>(mag & ~((1ull << (52 - k.mbits)) - 1));
    return std::copysign(y > k.maxFinite ? k.maxFinite : y, x);
}

/** quantize(fmt, x) over a span: out[i] = quantizeValue(k, in[i]). */
void quantizeSpan(const FloatFormat &fmt, std::span<const double> in,
                  double *out);

} // namespace dsv3::numerics
