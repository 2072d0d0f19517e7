/**
 * @file
 * Fast minifloat kernels: decode LUTs, bit-classified encode, and
 * batched span codecs.
 *
 * The scalar reference codec in minifloat.cc (encodeRef / quantizeRef
 * / decodeRef) goes through frexp/ldexp/nearbyint double math per
 * element. These kernels produce byte-identical results while staying
 * branch-light on the hot path:
 *
 *  - decode: formats of <= kMaxLutBits total bits get a lazily built,
 *    process-cached table of every code's value (<= 65,536 doubles),
 *    so decoding is one indexed load;
 *  - encode: the input double is classified from its raw IEEE-754
 *    bits. Round-to-nearest-even happens on the 53-bit integer
 *    significand (exact; power-of-two scalings introduce no error), so
 *    the result provably matches the frexp/nearbyint reference for
 *    every input;
 *  - quantize: quantizeValue() rounds the magnitude's bit pattern as
 *    an integer at or above 2^emin and with one exact add-subtract
 *    below it, with no classification of the input;
 *  - span APIs amortize the per-call format lookup across whole
 *    matrices/tiles (QuantizedMatrix construction, dequantize(), the
 *    GEMM operand packing).
 *
 * Kernels are cached per *semantic* format (ebits/mbits/bias/
 * finiteOnly), not per FloatFormat address, so short-lived format
 * objects cannot alias a stale cache entry.
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/** Formats up to this many total bits get an eager decode LUT. */
inline constexpr int kMaxLutBits = 16;

/** Precomputed per-format constants. */
struct FormatConstants
{
    int ebits;
    int mbits;
    int bias;
    bool finiteOnly;

    int emin;            //!< smallest normal exponent, 1 - bias
    int emax;            //!< largest normal exponent (format-dependent)
    std::uint32_t expMask;
    std::uint32_t mantMask;
    int signShift;       //!< ebits + mbits
    std::uint32_t nanCode;     //!< canonical (positive) NaN pattern
    std::uint32_t infCode;     //!< +inf pattern (IEEE formats only)
    std::uint32_t maxCode;     //!< code of +maxFinite
    double maxFinite;
    double subScale;           //!< 2^(emin - mbits), the subnormal ULP
    double minNormal;          //!< 2^emin
    double subMagic;           //!< 2^(emin - mbits + 52): ULP subScale
    double overflow;           //!< |x| past maxFinite becomes this:
                               //!< maxFinite (finite-only) or +inf
};

/**
 * The per-format constants plus the decode LUT. Obtain via
 * formatKernels(); instances live for the whole process.
 */
struct FormatKernels : FormatConstants
{
    /** decodeRef() of every code; empty when totalBits > kMaxLutBits. */
    std::vector<double> decodeLut;

    bool hasLut() const { return !decodeLut.empty(); }
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

struct QResult
{
    std::uint32_t code;
    double value;
};

/** Cold decode for formats too wide for a LUT (delegates to decodeRef). */
double decodeWide(const FormatKernels &k, std::uint32_t code);

/**
 * Classify + round @p x per the reference codec semantics, returning
 * both the bit pattern and the quantized value. Byte-identical to
 * encodeRef/quantizeRef: rounding happens on the exact 53-bit integer
 * significand, and power-of-two scalings are exact, so nearest-even
 * here can never disagree with nearbyint there. Defined in the header
 * so scalar call sites compile down to straight-line bit math.
 */
inline QResult
quantizeCore(const FormatKernels &k, double x, bool truncate)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint32_t sign = (std::uint32_t)(bits >> 63);
    const std::uint32_t sign_code = sign << k.signShift;
    const int dexp = (int)((bits >> 52) & 0x7ff);
    const std::uint64_t frac = bits & ((1ull << 52) - 1);

    if (dexp == 0x7ff) {
        if (frac)
            return {sign_code | k.nanCode, x}; // NaN payload preserved
        if (k.finiteOnly)
            return {sign_code | k.maxCode,
                    sign ? -k.maxFinite : k.maxFinite};
        return {sign_code | k.infCode, x};
    }
    if ((bits << 1) == 0)
        return {sign_code, x}; // +-0 keeps its sign

    // mag = sig * 2^(e - 52) with sig in [2^52, 2^53).
    int e;
    std::uint64_t sig;
    if (dexp == 0) {
        // Double subnormal (|x| < 2^-1022): normalize. Far below any
        // practical format's range, but classified exactly anyway.
        const int lz = std::countl_zero(frac); // in [12, 63]
        e = -1011 - lz;
        sig = frac << (lz - 11);
    } else {
        e = dexp - 1023;
        sig = (1ull << 52) | frac;
    }

    if (e >= k.emin) {
        // Normal-range: round the significand to mbits fraction bits.
        const int shift = 52 - k.mbits;
        std::uint64_t m = sig >> shift;
        if (!truncate) {
            const std::uint64_t half = 1ull << (shift - 1);
            const std::uint64_t rem = sig & ((half << 1) - 1);
            m += (rem > half) || (rem == half && (m & 1));
            if (m == (2ull << k.mbits)) { // carried into next binade
                m >>= 1;
                ++e;
            }
        }
        if (e > k.emax ||
            (k.finiteOnly && e == k.emax &&
             m == (2ull << k.mbits) - 1)) {
            // Past maxFinite (the finite-only all-ones mantissa in the
            // top binade is the NaN slot): saturate, or overflow to
            // infinity for IEEE nearest rounding.
            if (k.finiteOnly || truncate) {
                return {sign_code | k.maxCode,
                        sign ? -k.maxFinite : k.maxFinite};
            }
            const double inf = std::numeric_limits<double>::infinity();
            return {sign_code | k.infCode, sign ? -inf : inf};
        }
        const std::uint32_t mant = (std::uint32_t)m & k.mantMask;
        const std::uint32_t code = sign_code |
            ((std::uint32_t)(e + k.bias) << k.mbits) | mant;
        const std::uint64_t vbits = ((std::uint64_t)sign << 63) |
            ((std::uint64_t)(e + 1023) << 52) |
            ((std::uint64_t)mant << shift);
        return {code, std::bit_cast<double>(vbits)};
    }

    // Below the normal range: fixed-point at the subnormal ULP,
    // 2^(emin - mbits).
    const int s = (k.emin - e) + (52 - k.mbits); // >= 2
    std::uint64_t m = 0;
    if (s < 64) {
        m = sig >> s;
        if (!truncate) {
            const std::uint64_t half = 1ull << (s - 1);
            const std::uint64_t rem = sig & ((half << 1) - 1);
            m += (rem > half) || (rem == half && (m & 1));
        }
    }
    // m == 2^mbits (rounded up to minNormal) encodes as exp field 1 /
    // mantissa 0, which is exactly the integer m; the multiply below
    // is exact because the result is a double-normal value.
    return {sign_code | (std::uint32_t)m,
            std::copysign((double)m * k.subScale, x)};
}

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
 *    becomes +inf, per FormatConstants::overflow; then the sign comes
 *    back. NaN passes through with its payload.
 */
inline double
quantizeValue(const FormatConstants &k, double x)
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

// Scalar fast paths. Byte-identical to the minifloat.cc reference
// codec: encodeFast(k, x) == encodeRef(fmt, x) for every double x,
// and likewise quantize/decode (NaN results may differ in payload
// only where the reference also returns a canonical NaN).

inline std::uint32_t
encodeFast(const FormatKernels &k, double x)
{
    return detail::quantizeCore(k, x, false).code;
}

inline double
quantizeFast(const FormatKernels &k, double x)
{
    return quantizeValue(k, x);
}

inline double
quantizeTruncateFast(const FormatKernels &k, double x)
{
    return detail::quantizeCore(k, x, true).value;
}

inline double
decodeFast(const FormatKernels &k, std::uint32_t code)
{
    if (k.hasLut())
        return k.decodeLut[code];
    return detail::decodeWide(k, code);
}

// Batched span codecs (out must have in.size() capacity).
void decodeSpan(const FloatFormat &fmt,
                std::span<const std::uint32_t> in, double *out);
void quantizeSpan(const FloatFormat &fmt, std::span<const double> in,
                  double *out);

} // namespace dsv3::numerics
