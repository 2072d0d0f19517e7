/**
 * @file
 * Pinned scalar numerics shared by every dispatch path.
 *
 * The SIMD kernels (kernels_avx2.cc / kernels_avx512.cc) must produce
 * byte-identical results to the scalar path for every input, so the
 * operations they vectorize cannot be whatever libm or the optimizer
 * happens to emit -- they have to be a *pinned* sequence of
 * correctly-rounded IEEE-754 operations that a lane of any width
 * reproduces exactly. This header is that pinned definition:
 *
 *  - logAbsPinned() / expPinned(): table-free fdlibm-style log/exp.
 *    Every step is a single correctly-rounded double operation (or
 *    exact integer bit manipulation), so an N-wide SIMD version that
 *    performs the same steps lane-wise is bit-identical by
 *    construction. Accuracy is ~1 ulp, the same class as libm; the
 *    values differ from glibc's log/exp in the last bit or two, which
 *    is why LogFMT golden data is regenerated whenever these change.
 *
 *  - pinnedDot() / pinnedDotF32(): the canonical GEMM tile reduction.
 *    Eight interleaved partial sums (lane l accumulates elements
 *    l, l+8, l+16, ... with fused multiply-add), reduced by a fixed
 *    tree:
 *
 *        s1[i] = lane[i] + lane[i+4]   (i = 0..3)
 *        s2[i] = s1[i] + s1[i+2]       (i = 0..1)
 *        dot   = s2[0] + s2[1]
 *
 *    The lane count is 8 on every ISA -- the SIMD GEMM kernels put
 *    one output cell in each vector lane and its eight k-lanes in
 *    eight registers -- so tile sums are bit-identical across ISAs,
 *    thread widths, and this scalar reference. pinnedDotF32 is the
 *    BF16-pipeline variant: the same order with float lanes (each
 *    product converted to float before the lane add), matching the
 *    emulated FP32 accumulator.
 *
 *  - roundHalfUpPinned(): round-to-nearest, halves up, as
 *    floor(x + 0.5). For 0 <= x < 2^51 (the only domain LogFMT feeds
 *    it after clamping) this equals std::lround's ties-away rounding,
 *    but unlike lround it is a single vectorizable operation.
 *
 * The whole repo builds with -ffp-contract=off (top-level
 * CMakeLists.txt) so a compiler cannot fuse any of these pinned
 * mul/add pairs into an FMA in one translation unit but not another;
 * fused multiply-adds appear only where this file says std::fma.
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>

namespace dsv3::numerics::fastmath {

// fdlibm log() coefficients (atanh-series minimax on
// [sqrt(2)/2, sqrt(2))) and the hi/lo split of ln2. The hi part has
// 11 trailing zero bits, so k * kLn2Hi is exact for |k| <= 2048.
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

// fdlibm exp() rational-approximation coefficients.
inline constexpr double kExpP1 = 1.66666666666666019037e-01;
inline constexpr double kExpP2 = -2.77777777770155933842e-03;
inline constexpr double kExpP3 = 6.61375632143793436117e-05;
inline constexpr double kExpP4 = -1.65339022054652515390e-06;
inline constexpr double kExpP5 = 4.13813679705723846039e-08;
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;

/** exp() overflows past this argument (result > maxDouble). */
inline constexpr double kExpOverflow = 709.782712893383973096;
/** exp() is exactly 0.0 below this argument (result < minDenormal/2). */
inline constexpr double kExpUnderflow = -745.2;

/** Bit pattern of x / 2^k for the mantissa reduction in log(). */
inline constexpr std::uint64_t kLogOff = 0x3fe6a09e667f3bcdULL;

/** 1.5 * 2^52: adding it rounds a small double to the nearest int. */
inline constexpr double kRoundMagic = 6755399441055744.0;

/**
 * Pinned log(|x|). Specials follow the math: logAbs(0) = -inf,
 * logAbs(+-inf) = +inf, logAbs(NaN) = NaN.
 *
 * Reduction: |x| = z * 2^k with z in [sqrt(2)/2, sqrt(2)), via pure
 * integer bit arithmetic (exact). Core: the fdlibm e_log polynomial
 * in s = f/(2+f), f = z-1.
 */
inline double
logAbsPinned(double x)
{
    std::uint64_t ix =
        std::bit_cast<std::uint64_t>(x) & 0x7fffffffffffffffULL;
    int k0 = 0;
    if (ix < (1ULL << 52)) { // zero or double-subnormal
        if (ix == 0)
            return -std::numeric_limits<double>::infinity();
        ix = std::bit_cast<std::uint64_t>(
                 std::bit_cast<double>(ix) * 0x1p54) ;
        k0 = -54;
    } else if (ix >= 0x7ff0000000000000ULL) { // inf or NaN
        return std::bit_cast<double>(ix) +
               std::bit_cast<double>(ix); // +inf -> +inf, NaN -> NaN
    }

    const std::uint64_t tmp = ix - kLogOff;
    const double dk =
        (double)((std::int64_t)((std::int64_t)tmp >> 52) + k0);
    const std::uint64_t iz = ix - (tmp & 0xfff0000000000000ULL);
    const double z = std::bit_cast<double>(iz);

    const double f = z - 1.0;
    const double hfsq = 0.5 * f * f;
    const double s = f / (2.0 + f);
    const double z2 = s * s;
    const double w = z2 * z2;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z2 * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    return dk * kLn2Hi -
           ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

/**
 * Pinned exp(x). expPinned(NaN) = NaN, expPinned(+inf)/overflow =
 * +inf, expPinned(-inf)/underflow = +0.
 *
 * k = round-to-nearest(x / ln2) via the 1.5*2^52 magic-add trick (so
 * no lround and no rounding-mode dependence); the fdlibm e_exp
 * rational core on the reduced argument; scaling by 2^k split into
 * two exact power-of-two multiplies so k beyond the normal exponent
 * range (subnormal results, overflow) still behaves.
 */
inline double
expPinned(double x)
{
    if (!(x == x))
        return x; // NaN in, NaN out (payload preserved)
    if (x > kExpOverflow)
        return std::numeric_limits<double>::infinity();
    if (x < kExpUnderflow)
        return 0.0;

    const double t = x * kInvLn2 + kRoundMagic;
    // Low 32 mantissa bits of t hold round-to-nearest-even(x/ln2) in
    // two's complement (|k| < 2^31 by the range checks above).
    const std::int32_t k =
        (std::int32_t)(std::uint32_t)std::bit_cast<std::uint64_t>(t);
    const double dk = t - kRoundMagic;

    const double hi = x - dk * kLn2Hi;
    const double lo = dk * kLn2Lo;
    const double r = hi - lo;
    const double t2 = r * r;
    const double c = r -
        t2 * (kExpP1 +
              t2 * (kExpP2 +
                    t2 * (kExpP3 + t2 * (kExpP4 + t2 * kExpP5))));
    const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);

    // y * 2^k in two exact power-of-two steps (k in [-1075, 1025]).
    const std::int32_t k1 = k >> 1; // arithmetic shift, pinned
    const std::int32_t k2 = k - k1;
    const double s1 =
        std::bit_cast<double>((std::uint64_t)(1023 + k1) << 52);
    const double s2 =
        std::bit_cast<double>((std::uint64_t)(1023 + k2) << 52);
    return (y * s1) * s2;
}

/** floor(x + 0.5): pinned round-half-up (see file comment). */
inline double
roundHalfUpPinned(double x)
{
    return std::floor(x + 0.5);
}

/** GEMM tile lanes: fixed for every ISA (see file comment). */
inline constexpr std::size_t kDotLanes = 8;

/**
 * Canonical tile dot product sum(a[i] * b[i * bstride]) in the pinned
 * 8-lane FMA order. bstride walks a column of a row-major B.
 */
inline double
pinnedDot(const double *a, const double *b, std::size_t n,
          std::size_t bstride = 1)
{
    double lane[kDotLanes] = {};
    std::size_t i = 0;
    for (; i + kDotLanes <= n; i += kDotLanes) {
        for (std::size_t l = 0; l < kDotLanes; ++l)
            lane[l] = std::fma(a[i + l], b[(i + l) * bstride], lane[l]);
    }
    for (std::size_t l = 0; i + l < n; ++l)
        lane[l] = std::fma(a[i + l], b[(i + l) * bstride], lane[l]);

    double s1[4], s2[2];
    for (std::size_t j = 0; j < 4; ++j)
        s1[j] = lane[j] + lane[j + 4];
    for (std::size_t j = 0; j < 2; ++j)
        s2[j] = s1[j] + s1[j + 2];
    return s2[0] + s2[1];
}

/**
 * BF16-pipeline tile dot: same pinned order with float lanes; each
 * double product is rounded to float before its lane add, emulating
 * the FP32 accumulator of the BF16 tensor-core path.
 */
inline float
pinnedDotF32(const double *a, const double *b, std::size_t n,
             std::size_t bstride = 1)
{
    float lane[kDotLanes] = {};
    std::size_t i = 0;
    for (; i + kDotLanes <= n; i += kDotLanes) {
        for (std::size_t l = 0; l < kDotLanes; ++l)
            lane[l] += (float)(a[i + l] * b[(i + l) * bstride]);
    }
    for (std::size_t l = 0; i + l < n; ++l)
        lane[l] += (float)(a[i + l] * b[(i + l) * bstride]);

    float s1[4], s2[2];
    for (std::size_t j = 0; j < 4; ++j)
        s1[j] = lane[j] + lane[j + 4];
    for (std::size_t j = 0; j < 2; ++j)
        s2[j] = s1[j] + s1[j + 2];
    return s2[0] + s2[1];
}

} // namespace dsv3::numerics::fastmath
