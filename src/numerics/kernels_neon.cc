/**
 * @file
 * NEON KernelTable (aarch64 baseline; 2-wide doubles).
 *
 * NEON is part of the aarch64 baseline, so no per-TU flags are
 * needed; on non-aarch64 targets this TU collapses to a nullptr
 * provider. This table deliberately implements only the
 * straightforwardly bit-exact float entries -- the dequantize scale
 * and the exact-by-contract FP22 group-sum helpers. The codec,
 * log/exp and GEMM lane entries are left null and gap-filled with
 * the scalar implementations by the dispatcher, which keeps the
 * bit-exactness argument on this (rarely exercised) path trivial:
 * every op below is a single correctly-rounded instruction matching
 * the pinned scalar sequence, with ragged tails running the scalar
 * code itself.
 */

#include "numerics/dispatch.hh"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace dsv3::numerics {
namespace {

constexpr std::uint64_t kAbsMask = 0x7fffffffffffffffULL;

void
scaleSpanNeon(double *inout, double s, std::size_t n)
{
    const float64x2_t vs = vdupq_n_f64(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(inout + i, vmulq_f64(vld1q_f64(inout + i), vs));
    for (; i < n; ++i)
        inout[i] *= s;
}

std::uint64_t
absBitsMaxNeon(const double *in, std::size_t n)
{
    const uint64x2_t vabs_mask = vdupq_n_u64(kAbsMask);
    uint64x2_t vmax = vdupq_n_u64(0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t mag = vandq_u64(
            vreinterpretq_u64_f64(vld1q_f64(in + i)), vabs_mask);
        vmax = vbslq_u64(vcgtq_u64(mag, vmax), mag, vmax);
    }
    std::uint64_t mx =
        std::max(vgetq_lane_u64(vmax, 0), vgetq_lane_u64(vmax, 1));
    for (; i < n; ++i) {
        const std::uint64_t mag =
            std::bit_cast<std::uint64_t>(in[i]) & kAbsMask;
        mx = std::max(mx, mag);
    }
    return mx;
}

double
truncSumNeon(const double *in, std::size_t n, double inv_quantum,
             double quantum)
{
    const float64x2_t vinv = vdupq_n_f64(inv_quantum);
    const float64x2_t vq = vdupq_n_f64(quantum);
    float64x2_t acc = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        acc = vaddq_f64(
            acc,
            vmulq_f64(vrndq_f64(vmulq_f64(vld1q_f64(in + i), vinv)),
                      vq));
    // Exact by the caller's contract, so any reduction order works.
    double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
    for (; i < n; ++i)
        sum += std::trunc(in[i] * inv_quantum) * quantum;
    return sum;
}

const KernelTable kNeonTable = [] {
    KernelTable t;
    t.isa = KernelIsa::NEON;
    t.scaleSpan = scaleSpanNeon;
    t.absBitsMax = absBitsMaxNeon;
    t.truncSum = truncSumNeon;
    return t;
}();

} // namespace

const KernelTable *
detail::neonKernelTable()
{
    return &kNeonTable;
}

} // namespace dsv3::numerics

#else // not aarch64

namespace dsv3::numerics {

const KernelTable *
detail::neonKernelTable()
{
    return nullptr;
}

} // namespace dsv3::numerics

#endif
