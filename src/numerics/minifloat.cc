#include "numerics/minifloat.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics {

double
FloatFormat::maxFinite() const
{
    // Finite-only formats (E4M3fn) use the top binade for normals and
    // reserve only the all-ones mantissa for NaN, so their max mantissa
    // is (2 - 2*2^-m). IEEE-like formats reserve the whole top binade.
    int max_exp_field = finiteOnly ? (1 << ebits) - 1 : (1 << ebits) - 2;
    double max_mant = finiteOnly ? 2.0 - 2.0 * std::ldexp(1.0, -mbits)
                                 : 2.0 - std::ldexp(1.0, -mbits);
    return max_mant * std::ldexp(1.0, max_exp_field - bias);
}

double
FloatFormat::minNormal() const
{
    return std::ldexp(1.0, 1 - bias);
}

double
FloatFormat::minSubnormal() const
{
    return std::ldexp(1.0, 1 - bias - mbits);
}

std::uint32_t
FloatFormat::codeCount() const
{
    return 1u << totalBits();
}

const FloatFormat kE4M3 = {"E4M3", 4, 3, 7, true};
const FloatFormat kE5M2 = {"E5M2", 5, 2, 15, false};
const FloatFormat kE5M6 = {"E5M6", 5, 6, 15, false};
const FloatFormat kBF16 = {"BF16", 8, 7, 127, false};
const FloatFormat kFP16 = {"FP16", 5, 10, 15, false};
const FloatFormat kFP22 = {"FP22", 8, 13, 127, false};

namespace {

double
quantizeRefImpl(const FloatFormat &fmt, double x, bool truncate)
{
    if (std::isnan(x))
        return x;
    double mag = std::fabs(x);
    if (mag == 0.0)
        return x;
    if (std::isinf(x))
        return fmt.finiteOnly ? std::copysign(fmt.maxFinite(), x) : x;

    int emin = 1 - fmt.bias;
    int e;
    std::frexp(mag, &e);
    e -= 1; // mag in [2^e, 2^(e+1))
    int q = std::max(e, emin);
    double scale = std::ldexp(1.0, q - fmt.mbits);
    // nearbyint honours the default FE_TONEAREST mode => ties-to-even.
    double m = truncate ? std::trunc(mag / scale)
                        : std::nearbyint(mag / scale);
    double y = m * scale;

    double max_finite = fmt.maxFinite();
    if (y > max_finite) {
        if (fmt.finiteOnly || truncate)
            y = max_finite;
        else
            y = std::numeric_limits<double>::infinity();
    }
    return std::copysign(y, x);
}

} // namespace

double
quantizeRef(const FloatFormat &fmt, double x)
{
    return quantizeRefImpl(fmt, x, false);
}

double
quantizeTruncateRef(const FloatFormat &fmt, double x)
{
    return quantizeRefImpl(fmt, x, true);
}

std::uint32_t
encodeRef(const FloatFormat &fmt, double x)
{
    const std::uint32_t exp_mask = (1u << fmt.ebits) - 1;
    const std::uint32_t mant_mask = (1u << fmt.mbits) - 1;
    const int shift_exp = fmt.mbits;
    const int shift_sign = fmt.ebits + fmt.mbits;

    std::uint32_t sign = std::signbit(x) ? 1u : 0u;

    if (std::isnan(x)) {
        // Finite-only: all-ones code is NaN. IEEE: quiet NaN pattern.
        std::uint32_t mant = fmt.finiteOnly
            ? mant_mask : (1u << (fmt.mbits - 1));
        return (sign << shift_sign) | (exp_mask << shift_exp) | mant;
    }

    double qx = quantizeRef(fmt, x);
    if (std::isinf(qx)) {
        DSV3_ASSERT(!fmt.finiteOnly);
        return (sign << shift_sign) | (exp_mask << shift_exp);
    }
    double mag = std::fabs(qx);
    if (mag == 0.0)
        return sign << shift_sign;

    int emin = 1 - fmt.bias;
    int e;
    std::frexp(mag, &e);
    e -= 1;
    std::uint32_t exp_field;
    std::uint32_t mant;
    // qx is already quantized, so the scaled mantissas below are exact
    // integers; nearbyint (ties-to-even) is used anyway so this path
    // can never disagree with quantizeRef's rounding. (The original
    // lround here rounded ties away from zero -- harmless on exact
    // integers, but a latent divergence.)
    if (e >= emin) {
        exp_field = (std::uint32_t)(e + fmt.bias);
        double frac = mag / std::ldexp(1.0, e) - 1.0; // in [0, 1)
        mant = (std::uint32_t)std::nearbyint(frac *
                                             std::ldexp(1.0, fmt.mbits));
    } else {
        exp_field = 0;
        mant = (std::uint32_t)std::nearbyint(
            mag / std::ldexp(1.0, emin - fmt.mbits));
    }
    DSV3_ASSERT(exp_field <= exp_mask);
    DSV3_ASSERT(mant <= mant_mask, "fmt=", fmt.name, " x=", x);
    return (sign << shift_sign) | (exp_field << shift_exp) | mant;
}

double
decodeRef(const FloatFormat &fmt, std::uint32_t code)
{
    const std::uint32_t exp_mask = (1u << fmt.ebits) - 1;
    const std::uint32_t mant_mask = (1u << fmt.mbits) - 1;

    std::uint32_t sign = (code >> (fmt.ebits + fmt.mbits)) & 1u;
    std::uint32_t exp_field = (code >> fmt.mbits) & exp_mask;
    std::uint32_t mant = code & mant_mask;
    double s = sign ? -1.0 : 1.0;

    if (exp_field == exp_mask) {
        if (fmt.finiteOnly) {
            if (mant == mant_mask)
                return std::numeric_limits<double>::quiet_NaN();
            // falls through: top binade holds normal numbers
        } else {
            if (mant == 0)
                return s * std::numeric_limits<double>::infinity();
            return std::numeric_limits<double>::quiet_NaN();
        }
    }

    if (exp_field == 0) {
        return s * (double)mant *
               std::ldexp(1.0, 1 - fmt.bias - fmt.mbits);
    }
    double frac = 1.0 + (double)mant * std::ldexp(1.0, -fmt.mbits);
    return s * frac * std::ldexp(1.0, (int)exp_field - fmt.bias);
}

// Public API: the value quantizers run on the double's bit pattern
// (kernels.hh); the code path is the reference codec. ----------------

double
quantize(const FloatFormat &fmt, double x)
{
    return quantizeValue(formatKernels(fmt), x);
}

double
quantizeTruncate(const FloatFormat &fmt, double x)
{
    return quantizeTruncateFast(formatKernels(fmt), x);
}

std::uint32_t
encode(const FloatFormat &fmt, double x)
{
    return encodeRef(fmt, x);
}

double
decode(const FloatFormat &fmt, std::uint32_t code)
{
    return decodeRef(fmt, code);
}

bool
isNan(const FloatFormat &fmt, std::uint32_t code)
{
    return std::isnan(decode(fmt, code));
}

bool
isInf(const FloatFormat &fmt, std::uint32_t code)
{
    return std::isinf(decode(fmt, code));
}

double
ulpOfOne(const FloatFormat &fmt)
{
    return std::ldexp(1.0, -fmt.mbits);
}

} // namespace dsv3::numerics
