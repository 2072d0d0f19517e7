/**
 * @file
 * Generic minifloat (narrow floating-point) codec.
 *
 * One parameterized implementation covers every narrow format the paper
 * touches: FP8 E4M3 (finite-only, OCP "fn" flavour used by Hopper
 * tensor cores), FP8 E5M2 (IEEE-like, with inf/NaN), the custom E5M6
 * combine format, BF16, FP16, and the FP22 (E8M13) accumulator register
 * format. Encoding uses round-to-nearest-even; finite-only formats
 * saturate on overflow (matching the clamping performed by fine-grained
 * quantization kernels), IEEE-like formats overflow to infinity.
 */

#pragma once

#include <cstdint>
#include <string>

namespace dsv3::numerics {

/** Static description of a minifloat format. */
struct FloatFormat
{
    const char *name;   //!< e.g. "E4M3"
    int ebits;          //!< exponent field width
    int mbits;          //!< mantissa (fraction) field width
    int bias;           //!< exponent bias
    bool finiteOnly;    //!< no inf; top exponent is a normal binade

    int totalBits() const { return 1 + ebits + mbits; }
    /** Largest finite representable magnitude. */
    double maxFinite() const;
    /** Smallest positive normal magnitude. */
    double minNormal() const;
    /** Smallest positive subnormal magnitude. */
    double minSubnormal() const;
    /** Number of distinct bit patterns. */
    std::uint32_t codeCount() const;
};

// The formats used throughout the paper. --------------------------------

/** FP8 E4M3 "fn": bias 7, max 448, single NaN code, no inf (OCP). */
extern const FloatFormat kE4M3;
/** FP8 E5M2: bias 15, max 57344, IEEE-style inf/NaN. */
extern const FloatFormat kE5M2;
/** Custom 12-bit E5M6 combine format tested by the paper (Sec 3.2). */
extern const FloatFormat kE5M6;
/** BF16 = E8M7. */
extern const FloatFormat kBF16;
/** FP16 = E5M10. */
extern const FloatFormat kFP16;
/** Hopper tensor-core accumulation register: FP22 = 1s + 8e + 13m. */
extern const FloatFormat kFP22;

/**
 * Quantize @p x to the nearest value representable in @p fmt
 * (round-to-nearest-even), returning the value as a double.
 *
 * Finite-only formats saturate to +-maxFinite; IEEE-like formats round
 * to +-infinity past the overflow threshold. NaN propagates.
 */
double quantize(const FloatFormat &fmt, double x);

/**
 * Quantize toward zero (truncate) instead of nearest-even. This is the
 * behaviour the paper ascribes to the Hopper FP22 accumulation path
 * ("truncates bits exceeding this range").
 */
double quantizeTruncate(const FloatFormat &fmt, double x);

/** Encode @p x into the format's bit pattern (sign|exp|mantissa). */
std::uint32_t encode(const FloatFormat &fmt, double x);

/** Decode a bit pattern into a double. */
double decode(const FloatFormat &fmt, std::uint32_t code);

// Scalar reference codec. ------------------------------------------------
//
// The original frexp/ldexp/nearbyint implementations, kept verbatim as
// the oracle the fast value kernels (kernels.hh) are tested against:
// the golden bit-exactness suite asserts quantize()/quantizeTruncate()
// match these for every input. encode() and decode() are
// encodeRef()/decodeRef(); nothing hot needs codes.

/** Reference for quantize(): frexp/nearbyint scalar path. */
double quantizeRef(const FloatFormat &fmt, double x);

/** Reference for quantizeTruncate(). */
double quantizeTruncateRef(const FloatFormat &fmt, double x);

/** Reference for encode(). Rounds ties-to-even, like quantizeRef(). */
std::uint32_t encodeRef(const FloatFormat &fmt, double x);

/** Reference for decode(). */
double decodeRef(const FloatFormat &fmt, std::uint32_t code);

/** True when the code is NaN in this format. */
bool isNan(const FloatFormat &fmt, std::uint32_t code);

/** True when the code is +-inf (always false for finite-only formats). */
bool isInf(const FloatFormat &fmt, std::uint32_t code);

/** Machine epsilon style spacing: ULP of 1.0 in this format. */
double ulpOfOne(const FloatFormat &fmt);

} // namespace dsv3::numerics
