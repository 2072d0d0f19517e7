#include "numerics/fp22.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "numerics/kernels.hh"

namespace dsv3::numerics {

const char *
accumModeName(AccumMode mode)
{
    switch (mode) {
      case AccumMode::FP32:
        return "FP32";
      case AccumMode::FP22:
        return "FP22+promote";
      case AccumMode::FP22_NO_PROMOTION:
        return "FP22 (no promotion)";
    }
    return "?";
}

double
alignedGroupSum(std::span<const double> products, int fraction_bits)
{
    // Find the maximum exponent among the products, frexp convention
    // (mag = f * 2^e with f in [0.5, 1)). That exponent is monotonic
    // in the magnitude, so it is the exponent of the largest
    // magnitude -- found with a branchless integer max over the
    // payload bits. The scan also proves whether any non-finite
    // product exists. Non-finite or all-subnormal groups fall back to
    // the original per-element scan.
    std::uint64_t mx = 0;
    for (double p : products) {
        const std::uint64_t mag =
            std::bit_cast<std::uint64_t>(p) & 0x7fffffffffffffffull;
        mx = std::max(mx, mag);
    }
    if (mx == 0)
        return 0.0; // empty, or every product is +-0
    const int mx_exp = (int)(mx >> 52);
    const bool all_finite_normal = mx_exp != 0 && mx_exp != 0x7ff;
    int max_e = 0;
    if (all_finite_normal) {
        max_e = mx_exp - 1022;
    } else {
        bool any = false;
        for (double p : products) {
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(p);
            const int dexp = (int)((bits >> 52) & 0x7ff);
            if (dexp == 0x7ff || (bits << 1) == 0)
                continue; // non-finite or +-0
            int e;
            if (dexp != 0) {
                e = dexp - 1022;
            } else {
                std::frexp(p, &e);
            }
            if (!any || e > max_e)
                max_e = e;
            any = true;
        }
        if (!any)
            return 0.0;
    }

    // Quantum below which fraction bits are discarded: the largest
    // product occupies the top fraction bit, so the retained LSB weighs
    // 2^(max_e - fraction_bits). Truncation is toward zero.
    //
    // When 1/quantum is exactly representable, dividing by the quantum
    // and multiplying by its reciprocal are the same correctly-rounded
    // power-of-two scaling, so the cheaper multiply is used; otherwise
    // (quantum near the double range limits) fall back to the original
    // division.
    const double quantum = std::ldexp(1.0, max_e - fraction_bits);
    const int inv_e = fraction_bits - max_e;
    double sum = 0.0;
    if (all_finite_normal && inv_e >= -1022 && inv_e <= 1023) {
        // Hot path: no non-finites to special-case.
        const double inv_quantum = std::ldexp(1.0, inv_e);
        for (double p : products)
            sum += std::trunc(p * inv_quantum) * quantum;
    } else if (inv_e >= -1022 && inv_e <= 1023) {
        const double inv_quantum = std::ldexp(1.0, inv_e);
        for (double p : products) {
            if (!std::isfinite(p)) {
                sum += p;
                continue;
            }
            sum += std::trunc(p * inv_quantum) * quantum;
        }
    } else {
        for (double p : products) {
            if (!std::isfinite(p)) {
                sum += p;
                continue;
            }
            sum += std::trunc(p / quantum) * quantum;
        }
    }
    return sum;
}

void
Fp22Register::add(double value)
{
    // Hoist the FP22 kernel lookup out of the per-group hot path.
    static const FormatKernels &k = formatKernels(kFP22);
    value_ = quantizeTruncateFast(k, value_ + value);
}

} // namespace dsv3::numerics
