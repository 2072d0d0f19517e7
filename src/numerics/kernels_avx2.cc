/**
 * @file
 * AVX2+FMA KernelTable (4-wide doubles, vector-mask blends).
 *
 * Compiled with -mavx2 -mfma (src/CMakeLists.txt); elsewhere this TU
 * collapses to a nullptr provider. Bit-identical to
 * kernels_scalar.cc by the same arguments as kernels_avx512.cc, with
 * three AVX2-specific emulations:
 *
 *  - no unsigned 64-bit compare / max: all compared values here are
 *    < 2^63 (significands, magnitude bits, shifted remainders under
 *    their validity masks), so signed vpcmpgtq is exact;
 *  - no arithmetic 64-bit shift: (int64)x >> 52 is done as an
 *    arithmetic 32-bit shift of the high dwords;
 *  - no u64 -> double convert: m | bits(2^52) reinterpreted minus
 *    2^52, exact for m < 2^52 (format significands are far smaller).
 *
 * Ragged tails fall back to per-element scalar code using the exact
 *  same pinned operations (detail::quantizeCore, fastmath::*); with
 * -ffp-contract=off those are the same arithmetic, so tails cannot
 * diverge from the scalar oracle either.
 */

#include "numerics/dispatch.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics {
namespace {

constexpr std::uint64_t kAbsMask = 0x7fffffffffffffffULL;

inline __m256i
notMask(__m256i v)
{
    return _mm256_xor_si256(v, _mm256_set1_epi64x(-1));
}

inline __m256d
absPd(__m256d v)
{
    return _mm256_castsi256_pd(
        _mm256_and_si256(_mm256_castpd_si256(v),
                         _mm256_set1_epi64x((long long)kAbsMask)));
}

/** The low dword of each qword, packed into a __m128i. */
inline __m128i
qwordLo32(__m256i v)
{
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        v, _mm256_setr_epi32(0, 2, 4, 6, 4, 5, 6, 7)));
}

/** The high dword of each qword, packed into a __m128i. */
inline __m128i
qwordHi32(__m256i v)
{
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        v, _mm256_setr_epi32(1, 3, 5, 7, 4, 5, 6, 7)));
}

/** double(m), exact for m < 2^52. */
inline __m256d
u64SmallToPd(__m256i v)
{
    const __m256d magic = _mm256_set1_pd(0x1p52);
    return _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(v, _mm256_castpd_si256(magic))),
        magic);
}

// ---------------------------------------------------------------
// Minifloat codec family
// ---------------------------------------------------------------

struct Enc4
{
    __m256i code;   //!< per-lane code in the low 32 bits of each qword
    __m256d value;  //!< per-lane quantized value
    unsigned patch; //!< 4-bit mask: double-subnormal inputs
};

/** Lane-parallel detail::quantizeCore(k, x, false), 4 lanes. */
inline Enc4
encode4(const FormatKernels &k, __m256d vx)
{
    const __m256i vbits = _mm256_castpd_si256(vx);
    const __m256i vzero = _mm256_setzero_si256();
    const __m256i vone = _mm256_set1_epi64x(1);
    const __m256i vsign = _mm256_srli_epi64(vbits, 63);
    const __m256i vsign63 = _mm256_slli_epi64(vsign, 63);
    const __m256i vsign_code =
        _mm256_sllv_epi64(vsign, _mm256_set1_epi64x(k.signShift));
    const __m256i vdexp = _mm256_and_si256(
        _mm256_srli_epi64(vbits, 52), _mm256_set1_epi64x(0x7ff));
    const __m256i vfrac = _mm256_and_si256(
        vbits, _mm256_set1_epi64x((1ll << 52) - 1));

    const __m256i m_special =
        _mm256_cmpeq_epi64(vdexp, _mm256_set1_epi64x(0x7ff));
    const __m256i m_zero =
        _mm256_cmpeq_epi64(_mm256_slli_epi64(vbits, 1), vzero);
    const __m256i m_fracz = _mm256_cmpeq_epi64(vfrac, vzero);
    const __m256i m_patch = _mm256_andnot_si256(
        m_fracz, _mm256_cmpeq_epi64(vdexp, vzero));

    const __m256i ve =
        _mm256_sub_epi64(vdexp, _mm256_set1_epi64x(1023));
    const __m256i vsig =
        _mm256_or_si256(vfrac, _mm256_set1_epi64x(1ll << 52));
    // e >= emin, and not one of the blended-over special classes.
    const __m256i m_norm = _mm256_andnot_si256(
        _mm256_or_si256(_mm256_or_si256(m_special, m_zero), m_patch),
        notMask(_mm256_cmpgt_epi64(_mm256_set1_epi64x(k.emin), ve)));

    // -- normal range: RNE on the integer significand --
    const int shift = 52 - k.mbits;
    const unsigned long long halfc = 1ull << (shift - 1);
    __m256i vm = _mm256_srlv_epi64(vsig, _mm256_set1_epi64x(shift));
    const __m256i vhalf = _mm256_set1_epi64x((long long)halfc);
    const __m256i vrem = _mm256_and_si256(
        vsig, _mm256_set1_epi64x((long long)((halfc << 1) - 1)));
    const __m256i vodd = _mm256_cmpeq_epi64(
        _mm256_and_si256(vm, vone), vone);
    const __m256i rup = _mm256_or_si256(
        _mm256_cmpgt_epi64(vrem, vhalf),
        _mm256_and_si256(_mm256_cmpeq_epi64(vrem, vhalf), vodd));
    vm = _mm256_sub_epi64(vm, rup); // mask is -1: subtract to add 1
    const __m256i carry =
        _mm256_cmpeq_epi64(vm, _mm256_set1_epi64x(2ll << k.mbits));
    vm = _mm256_blendv_epi8(vm, _mm256_srli_epi64(vm, 1), carry);
    // e only carries in the normal branch; ve stays for below-range.
    const __m256i ven = _mm256_sub_epi64(ve, carry);

    __m256i over =
        _mm256_cmpgt_epi64(ven, _mm256_set1_epi64x(k.emax));
    if (k.finiteOnly) {
        over = _mm256_or_si256(
            over,
            _mm256_and_si256(
                _mm256_cmpeq_epi64(ven, _mm256_set1_epi64x(k.emax)),
                _mm256_cmpeq_epi64(
                    vm,
                    _mm256_set1_epi64x((2ll << k.mbits) - 1))));
    }
    over = _mm256_and_si256(over, m_norm);

    const __m256i vmant =
        _mm256_and_si256(vm, _mm256_set1_epi64x(k.mantMask));
    const __m256i vcode_norm = _mm256_or_si256(
        vsign_code,
        _mm256_or_si256(
            _mm256_sllv_epi64(
                _mm256_add_epi64(ven, _mm256_set1_epi64x(k.bias)),
                _mm256_set1_epi64x(k.mbits)),
            vmant));
    const __m256d vvalue_norm = _mm256_castsi256_pd(_mm256_or_si256(
        vsign63,
        _mm256_or_si256(
            _mm256_slli_epi64(
                _mm256_add_epi64(ven, _mm256_set1_epi64x(1023)), 52),
            _mm256_sllv_epi64(vmant, _mm256_set1_epi64x(shift)))));

    // -- below the normal range: fixed-point at the subnormal ULP --
    const __m256i vs = _mm256_add_epi64(
        _mm256_sub_epi64(_mm256_set1_epi64x(k.emin), ve),
        _mm256_set1_epi64x(shift));
    const __m256i s_ok =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(64), vs);
    __m256i vms = _mm256_srlv_epi64(vsig, vs); // 0 when s >= 64
    const __m256i vhalf_s =
        _mm256_sllv_epi64(vone, _mm256_sub_epi64(vs, vone));
    const __m256i vrem_s = _mm256_and_si256(
        vsig,
        _mm256_sub_epi64(_mm256_sllv_epi64(vone, vs), vone));
    const __m256i vodd_s =
        _mm256_cmpeq_epi64(_mm256_and_si256(vms, vone), vone);
    const __m256i rup_s = _mm256_and_si256(
        _mm256_or_si256(
            _mm256_cmpgt_epi64(vrem_s, vhalf_s),
            _mm256_and_si256(_mm256_cmpeq_epi64(vrem_s, vhalf_s),
                             vodd_s)),
        s_ok);
    vms = _mm256_sub_epi64(vms, rup_s);
    const __m256i vcode_sub = _mm256_or_si256(vsign_code, vms);
    const __m256d vvalue_sub = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_castpd_si256(_mm256_mul_pd(
            u64SmallToPd(vms), _mm256_set1_pd(k.subScale))),
        vsign63));

    // -- blend the paths, worst case last --
    __m256i vcode = _mm256_blendv_epi8(vcode_sub, vcode_norm, m_norm);
    __m256d vvalue = _mm256_blendv_pd(vvalue_sub, vvalue_norm,
                                      _mm256_castsi256_pd(m_norm));

    const auto withSign = [&](double mag) {
        return _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_castpd_si256(_mm256_set1_pd(mag)), vsign63));
    };
    const double inf = std::numeric_limits<double>::infinity();
    const __m256d vsat = withSign(k.finiteOnly ? k.maxFinite : inf);
    const __m256i vsat_code = _mm256_or_si256(
        vsign_code,
        _mm256_set1_epi64x(k.finiteOnly ? k.maxCode : k.infCode));
    vcode = _mm256_blendv_epi8(vcode, vsat_code, over);
    vvalue =
        _mm256_blendv_pd(vvalue, vsat, _mm256_castsi256_pd(over));

    vcode = _mm256_blendv_epi8(vcode, vsign_code, m_zero);
    vvalue = _mm256_blendv_pd(vvalue, vx,
                              _mm256_castsi256_pd(m_zero));

    const __m256i m_nan = _mm256_andnot_si256(m_fracz, m_special);
    const __m256i m_inf = _mm256_and_si256(m_special, m_fracz);
    vcode = _mm256_blendv_epi8(
        vcode,
        _mm256_or_si256(vsign_code, _mm256_set1_epi64x(k.nanCode)),
        m_nan);
    vvalue = _mm256_blendv_pd(vvalue, vx, _mm256_castsi256_pd(m_nan));
    if (k.finiteOnly) {
        vcode = _mm256_blendv_epi8(
            vcode,
            _mm256_or_si256(vsign_code,
                            _mm256_set1_epi64x(k.maxCode)),
            m_inf);
        vvalue = _mm256_blendv_pd(vvalue, withSign(k.maxFinite),
                                  _mm256_castsi256_pd(m_inf));
    } else {
        vcode = _mm256_blendv_epi8(
            vcode,
            _mm256_or_si256(vsign_code,
                            _mm256_set1_epi64x(k.infCode)),
            m_inf);
        vvalue = _mm256_blendv_pd(vvalue, vx,
                                  _mm256_castsi256_pd(m_inf));
    }
    return {vcode, vvalue,
            (unsigned)_mm256_movemask_pd(
                _mm256_castsi256_pd(m_patch))};
}

void
encodeSpanAvx2(const FormatKernels &k, const double *in,
               std::uint32_t *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const Enc4 r = encode4(k, _mm256_loadu_pd(in + i));
        _mm_storeu_si128((__m128i *)(out + i), qwordLo32(r.code));
        unsigned patch = r.patch;
        while (patch) {
            const unsigned l = (unsigned)std::countr_zero(patch);
            patch &= patch - 1;
            out[i + l] =
                detail::quantizeCore(k, in[i + l], false).code;
        }
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeCore(k, in[i], false).code;
}

void
quantizeSpanAvx2(const FormatKernels &k, const double *in, double *out,
                 std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const Enc4 r = encode4(k, _mm256_loadu_pd(in + i));
        _mm256_storeu_pd(out + i, r.value);
        unsigned patch = r.patch;
        while (patch) {
            const unsigned l = (unsigned)std::countr_zero(patch);
            patch &= patch - 1;
            out[i + l] =
                detail::quantizeCore(k, in[i + l], false).value;
        }
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeCore(k, in[i], false).value;
}

void
decodeLutSpanAvx2(const double *lut, const std::uint32_t *in,
                  double *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i vc =
            _mm_loadu_si128((const __m128i *)(in + i));
        _mm256_storeu_pd(out + i, _mm256_i32gather_pd(lut, vc, 8));
    }
    for (; i < n; ++i)
        out[i] = lut[in[i]];
}

void
encodeScaledSpanAvx2(const FormatKernels &k, const double *in,
                     double s, std::uint32_t *out, std::size_t n,
                     double fmt_max, std::uint32_t mag_mask,
                     std::uint64_t *saturated, std::uint64_t *flushed)
{
    const __m256d vdiv = _mm256_set1_pd(s);
    const __m256d vfmt_max = _mm256_set1_pd(fmt_max);
    const __m256i vmag_mask = _mm256_set1_epi64x(mag_mask);
    const __m256d vzero = _mm256_setzero_pd();
    std::uint64_t sat = 0, flush = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vscaled =
            _mm256_div_pd(_mm256_loadu_pd(in + i), vdiv);
        const Enc4 r = encode4(k, vscaled);
        _mm_storeu_si128((__m128i *)(out + i), qwordLo32(r.code));
        if (saturated) {
            const unsigned vec = 0xfu & ~r.patch;
            const unsigned msat =
                (unsigned)_mm256_movemask_pd(_mm256_cmp_pd(
                    absPd(vscaled), vfmt_max, _CMP_GT_OQ)) &
                vec;
            const unsigned mzero_mag =
                (unsigned)_mm256_movemask_pd(
                    _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                        _mm256_and_si256(r.code, vmag_mask),
                        _mm256_setzero_si256())));
            const unsigned mnz = (unsigned)_mm256_movemask_pd(
                _mm256_cmp_pd(vscaled, vzero, _CMP_NEQ_UQ));
            sat += std::popcount(msat);
            flush += std::popcount(mnz & mzero_mag & vec & ~msat);
        }
        unsigned patch = r.patch;
        while (patch) {
            const unsigned l = (unsigned)std::countr_zero(patch);
            patch &= patch - 1;
            const double scaled = in[i + l] / s;
            const std::uint32_t code =
                detail::quantizeCore(k, scaled, false).code;
            out[i + l] = code;
            if (saturated) {
                if (std::fabs(scaled) > fmt_max)
                    ++sat;
                else if (scaled != 0.0 && (code & mag_mask) == 0)
                    ++flush;
            }
        }
    }
    for (; i < n; ++i) {
        const double scaled = in[i] / s;
        const std::uint32_t code =
            detail::quantizeCore(k, scaled, false).code;
        out[i] = code;
        if (saturated) {
            if (std::fabs(scaled) > fmt_max)
                ++sat;
            else if (scaled != 0.0 && (code & mag_mask) == 0)
                ++flush;
        }
    }
    if (saturated) {
        *saturated += sat;
        *flushed += flush;
    }
}

double
absMaxAvx2(const double *in, std::size_t n, double init)
{
    __m256d acc = _mm256_set1_pd(init);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_max_pd(absPd(_mm256_loadu_pd(in + i)), acc);
    const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
    double run =
        _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(m2, m2), m2));
    for (; i < n; ++i)
        run = std::max(run, std::fabs(in[i]));
    return run;
}

void
scaleSpanAvx2(double *inout, double s, std::size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(
            inout + i,
            _mm256_mul_pd(_mm256_loadu_pd(inout + i), vs));
    for (; i < n; ++i)
        inout[i] *= s;
}

// ---------------------------------------------------------------
// LogFMT log/exp family
// ---------------------------------------------------------------

/** Lane-parallel fastmath::logAbsPinned, 4 lanes. */
inline __m256d
logAbs4(__m256d vx)
{
    const __m256i vabs_mask = _mm256_set1_epi64x((long long)kAbsMask);
    __m256i ix =
        _mm256_and_si256(_mm256_castpd_si256(vx), vabs_mask);
    const __m256i m_zero =
        _mm256_cmpeq_epi64(ix, _mm256_setzero_si256());
    const __m256i m_sub = _mm256_andnot_si256(
        m_zero,
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(1ll << 52), ix));
    const __m256i m_naninf = _mm256_cmpgt_epi64(
        ix, _mm256_set1_epi64x(0x7fefffffffffffffll));

    const __m256d vabs = _mm256_castsi256_pd(ix);
    ix = _mm256_blendv_epi8(
        ix,
        _mm256_castpd_si256(
            _mm256_mul_pd(vabs, _mm256_set1_pd(0x1p54))),
        m_sub);

    const __m256i tmp = _mm256_sub_epi64(
        ix, _mm256_set1_epi64x((long long)fastmath::kLogOff));
    // (int64)tmp >> 52 == high dwords >> 20, sign-extended.
    __m128i k32 = qwordHi32(_mm256_srai_epi32(tmp, 20));
    k32 = _mm_add_epi32(
        k32, _mm_and_si128(qwordHi32(m_sub), _mm_set1_epi32(-54)));
    const __m256d dk = _mm256_cvtepi32_pd(k32);
    const __m256d z = _mm256_castsi256_pd(_mm256_sub_epi64(
        ix, _mm256_and_si256(
                tmp, _mm256_set1_epi64x(
                         (long long)0xfff0000000000000ull))));

    const __m256d f = _mm256_sub_pd(z, _mm256_set1_pd(1.0));
    const __m256d hfsq = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
    const __m256d sred =
        _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    const __m256d z2 = _mm256_mul_pd(sred, sred);
    const __m256d w = _mm256_mul_pd(z2, z2);
    const __m256d t1 = _mm256_mul_pd(
        w, _mm256_add_pd(
               _mm256_set1_pd(fastmath::kLg2),
               _mm256_mul_pd(
                   w, _mm256_add_pd(
                          _mm256_set1_pd(fastmath::kLg4),
                          _mm256_mul_pd(
                              w, _mm256_set1_pd(fastmath::kLg6))))));
    const __m256d t2 = _mm256_mul_pd(
        z2,
        _mm256_add_pd(
            _mm256_set1_pd(fastmath::kLg1),
            _mm256_mul_pd(
                w,
                _mm256_add_pd(
                    _mm256_set1_pd(fastmath::kLg3),
                    _mm256_mul_pd(
                        w,
                        _mm256_add_pd(
                            _mm256_set1_pd(fastmath::kLg5),
                            _mm256_mul_pd(
                                w, _mm256_set1_pd(
                                       fastmath::kLg7))))))));
    const __m256d r = _mm256_add_pd(t2, t1);
    const __m256d inner = _mm256_add_pd(
        _mm256_mul_pd(sred, _mm256_add_pd(hfsq, r)),
        _mm256_mul_pd(dk, _mm256_set1_pd(fastmath::kLn2Lo)));
    __m256d res = _mm256_sub_pd(
        _mm256_mul_pd(dk, _mm256_set1_pd(fastmath::kLn2Hi)),
        _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));

    res = _mm256_blendv_pd(
        res,
        _mm256_set1_pd(-std::numeric_limits<double>::infinity()),
        _mm256_castsi256_pd(m_zero));
    res = _mm256_blendv_pd(res, _mm256_add_pd(vabs, vabs),
                           _mm256_castsi256_pd(m_naninf));
    return res;
}

/** Lane-parallel fastmath::expPinned, 4 lanes. */
inline __m256d
exp4(__m256d vx)
{
    const __m256d m_nan = _mm256_cmp_pd(vx, vx, _CMP_NEQ_UQ);
    const __m256d m_over = _mm256_cmp_pd(
        vx, _mm256_set1_pd(fastmath::kExpOverflow), _CMP_GT_OQ);
    const __m256d m_under = _mm256_cmp_pd(
        vx, _mm256_set1_pd(fastmath::kExpUnderflow), _CMP_LT_OQ);

    const __m256d vmagic = _mm256_set1_pd(fastmath::kRoundMagic);
    const __m256d t = _mm256_add_pd(
        _mm256_mul_pd(vx, _mm256_set1_pd(fastmath::kInvLn2)),
        vmagic);
    const __m128i k = qwordLo32(_mm256_castpd_si256(t));
    const __m256d dk = _mm256_sub_pd(t, vmagic);

    const __m256d hi = _mm256_sub_pd(
        vx, _mm256_mul_pd(dk, _mm256_set1_pd(fastmath::kLn2Hi)));
    const __m256d lo =
        _mm256_mul_pd(dk, _mm256_set1_pd(fastmath::kLn2Lo));
    const __m256d r = _mm256_sub_pd(hi, lo);
    const __m256d t2 = _mm256_mul_pd(r, r);
    const __m256d poly = _mm256_add_pd(
        _mm256_set1_pd(fastmath::kExpP1),
        _mm256_mul_pd(
            t2,
            _mm256_add_pd(
                _mm256_set1_pd(fastmath::kExpP2),
                _mm256_mul_pd(
                    t2,
                    _mm256_add_pd(
                        _mm256_set1_pd(fastmath::kExpP3),
                        _mm256_mul_pd(
                            t2,
                            _mm256_add_pd(
                                _mm256_set1_pd(fastmath::kExpP4),
                                _mm256_mul_pd(
                                    t2, _mm256_set1_pd(
                                            fastmath::kExpP5)))))))));
    const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(t2, poly));
    const __m256d y = _mm256_sub_pd(
        _mm256_set1_pd(1.0),
        _mm256_sub_pd(
            _mm256_sub_pd(
                lo, _mm256_div_pd(
                        _mm256_mul_pd(r, c),
                        _mm256_sub_pd(_mm256_set1_pd(2.0), c))),
            hi));

    const __m128i k1 = _mm_srai_epi32(k, 1);
    const __m128i k2 = _mm_sub_epi32(k, k1);
    const __m128i bias = _mm_set1_epi32(1023);
    const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_cvtepi32_epi64(_mm_add_epi32(k1, bias)), 52));
    const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_cvtepi32_epi64(_mm_add_epi32(k2, bias)), 52));
    __m256d res = _mm256_mul_pd(_mm256_mul_pd(y, s1), s2);

    res = _mm256_blendv_pd(res, _mm256_setzero_pd(), m_under);
    res = _mm256_blendv_pd(
        res, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
        m_over);
    res = _mm256_blendv_pd(res, vx, m_nan);
    return res;
}

/** x != 0 && isfinite(x) as a 64-bit lane mask. */
inline __m256i
usableMask4(__m256d vx)
{
    const __m256i iabs = _mm256_and_si256(
        _mm256_castpd_si256(vx),
        _mm256_set1_epi64x((long long)kAbsMask));
    return _mm256_andnot_si256(
        _mm256_cmpeq_epi64(iabs, _mm256_setzero_si256()),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(0x7ff0000000000000ll),
                           iabs));
}

bool
logAbsStatsAvx2(const double *in, double *logs, std::size_t n,
                double *min_log, double *max_log)
{
    const double inf = std::numeric_limits<double>::infinity();
    __m256d vmin = _mm256_set1_pd(inf);
    __m256d vmax = _mm256_set1_pd(-inf);
    unsigned vany = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(in + i);
        const __m256d vl = logAbs4(vx);
        _mm256_storeu_pd(logs + i, vl);
        const __m256d usable = _mm256_castsi256_pd(usableMask4(vx));
        vmin = _mm256_blendv_pd(vmin, _mm256_min_pd(vmin, vl),
                                usable);
        vmax = _mm256_blendv_pd(vmax, _mm256_max_pd(vmax, vl),
                                usable);
        vany |= (unsigned)_mm256_movemask_pd(usable);
    }
    const __m128d mn2 = _mm_min_pd(_mm256_castpd256_pd128(vmin),
                                   _mm256_extractf128_pd(vmin, 1));
    double lo =
        _mm_cvtsd_f64(_mm_min_sd(_mm_unpackhi_pd(mn2, mn2), mn2));
    const __m128d mx2 = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                                   _mm256_extractf128_pd(vmax, 1));
    double hi =
        _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(mx2, mx2), mx2));
    bool any = vany != 0;
    for (; i < n; ++i) {
        const double x = in[i];
        const double l = fastmath::logAbsPinned(x);
        logs[i] = l;
        if (x == 0.0 || !std::isfinite(x))
            continue;
        if (!any) {
            lo = hi = l;
            any = true;
        } else {
            lo = std::min(lo, l);
            hi = std::max(hi, l);
        }
    }
    if (!any) {
        *min_log = *max_log = 0.0;
        return false;
    }
    *min_log = lo;
    *max_log = hi;
    return true;
}

void
magTableAvx2(double min_log, double step, std::uint32_t k_max,
             double *mag)
{
    mag[0] = 0.0;
    const __m256d vmin = _mm256_set1_pd(min_log);
    const __m256d vstep = _mm256_set1_pd(step);
    const __m128i lane_idx = _mm_setr_epi32(0, 1, 2, 3);
    std::uint32_t j = 1;
    for (; j + 3 <= k_max; j += 4) {
        const __m128i vj =
            _mm_add_epi32(_mm_set1_epi32((int)(j - 1)), lane_idx);
        const __m256d varg = _mm256_add_pd(
            vmin, _mm256_mul_pd(vstep, _mm256_cvtepi32_pd(vj)));
        _mm256_storeu_pd(mag + j, exp4(varg));
    }
    for (; j <= k_max; ++j)
        mag[j] =
            fastmath::expPinned(min_log + step * (double)(j - 1));
}

std::uint64_t
logfmtEncodeLogAvx2(const double *values, const double *logs,
                    std::size_t n, double min_log, double step,
                    std::uint32_t k_max, std::uint32_t sign_bit,
                    std::uint32_t *codes)
{
    const __m256d vmin = _mm256_set1_pd(min_log);
    const __m256d vstep = _mm256_set1_pd(step);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vkmax = _mm256_set1_pd((double)k_max);
    const __m256d vzero = _mm256_setzero_pd();
    const __m128i vsign_bit = _mm_set1_epi32((int)sign_bit);
    const double k_max_d = (double)k_max;
    std::uint64_t below = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(values + i);
        const __m256d vl = _mm256_loadu_pd(logs + i);
        const __m256i usable = usableMask4(vx);
        const unsigned ubits = (unsigned)_mm256_movemask_pd(
            _mm256_castsi256_pd(usable));
        const __m256d k_real = _mm256_add_pd(
            _mm256_div_pd(_mm256_sub_pd(vl, vmin), vstep), vone);
        below += std::popcount(
            (unsigned)_mm256_movemask_pd(
                _mm256_cmp_pd(k_real, vone, _CMP_LT_OQ)) &
            ubits);
        const __m256d r = _mm256_round_pd(
            _mm256_add_pd(k_real, vhalf),
            _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m256d cl =
            _mm256_min_pd(_mm256_max_pd(r, vone), vkmax);
        __m128i vcode = _mm256_cvttpd_epi32(cl);
        const __m128i neg32 = qwordLo32(_mm256_castpd_si256(
            _mm256_cmp_pd(vx, vzero, _CMP_LT_OQ)));
        vcode = _mm_or_si128(vcode,
                             _mm_and_si128(neg32, vsign_bit));
        _mm_maskstore_epi32((int *)(codes + i),
                            qwordLo32(usable), vcode);
    }
    for (; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue;
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below;
        const double r = fastmath::roundHalfUpPinned(k_real);
        const double cl = std::min(std::max(r, 1.0), k_max_d);
        codes[i] = sign | (std::uint32_t)cl;
    }
    return below;
}

std::uint64_t
logfmtEncodeLinearAvx2(const double *values, const double *logs,
                       std::size_t n, double min_log, double step,
                       std::uint32_t k_max, std::uint32_t sign_bit,
                       const double *mag, std::uint32_t *codes)
{
    const __m256d vmin = _mm256_set1_pd(min_log);
    const __m256d vstep = _mm256_set1_pd(step);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vkmax = _mm256_set1_pd((double)k_max);
    const __m256d vzero = _mm256_setzero_pd();
    const __m128i vkmax32 = _mm_set1_epi32((int)k_max);
    const __m128i vone32 = _mm_set1_epi32(1);
    const __m128i vsign_bit = _mm_set1_epi32((int)sign_bit);
    const double k_max_d = (double)k_max;
    std::uint64_t below = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(values + i);
        const __m256d vl = _mm256_loadu_pd(logs + i);
        const __m256i usable = usableMask4(vx);
        const unsigned ubits = (unsigned)_mm256_movemask_pd(
            _mm256_castsi256_pd(usable));
        const __m256d k_real = _mm256_add_pd(
            _mm256_div_pd(_mm256_sub_pd(vl, vmin), vstep), vone);
        below += std::popcount(
            (unsigned)_mm256_movemask_pd(
                _mm256_cmp_pd(k_real, vone, _CMP_LT_OQ)) &
            ubits);
        const __m256d fl = _mm256_round_pd(
            k_real, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m256d lo_d =
            _mm256_min_pd(_mm256_max_pd(fl, vone), vkmax);
        const __m128i lo = _mm256_cvttpd_epi32(lo_d);
        const __m128i hi = _mm_min_epu32(
            _mm_add_epi32(lo, vone32), vkmax32);
        const __m256d v_lo = _mm256_i32gather_pd(mag, lo, 8);
        const __m256d v_hi = _mm256_i32gather_pd(mag, hi, 8);
        const __m256d m = absPd(vx);
        const __m256d d_lo = absPd(_mm256_sub_pd(m, v_lo));
        const __m256d d_hi = absPd(_mm256_sub_pd(v_hi, m));
        const __m128i pick_lo = qwordLo32(_mm256_castpd_si256(
            _mm256_cmp_pd(d_lo, d_hi, _CMP_LE_OQ)));
        __m128i vcode = _mm_blendv_epi8(hi, lo, pick_lo);
        const __m128i neg32 = qwordLo32(_mm256_castpd_si256(
            _mm256_cmp_pd(vx, vzero, _CMP_LT_OQ)));
        vcode = _mm_or_si128(vcode,
                             _mm_and_si128(neg32, vsign_bit));
        _mm_maskstore_epi32((int *)(codes + i),
                            qwordLo32(usable), vcode);
    }
    for (; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue;
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below;
        const double fl = std::floor(k_real);
        const double lo_d = std::min(std::max(fl, 1.0), k_max_d);
        const std::uint32_t lo = (std::uint32_t)lo_d;
        const std::uint32_t hi = std::min(lo + 1, k_max);
        const double m = std::fabs(x);
        const std::uint32_t kk =
            std::fabs(m - mag[lo]) <= std::fabs(mag[hi] - m) ? lo
                                                             : hi;
        codes[i] = sign | kk;
    }
    return below;
}

void
logfmtDecodeAvx2(const std::uint32_t *codes, std::size_t n,
                 std::uint32_t sign_bit, const double *mag,
                 double *out)
{
    const __m128i vk_mask = _mm_set1_epi32((int)(sign_bit - 1));
    const __m128i vsign_bit = _mm_set1_epi32((int)sign_bit);
    const __m256d vneg0 = _mm256_set1_pd(-0.0);
    const std::uint32_t k_mask = sign_bit - 1;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i vc =
            _mm_loadu_si128((const __m128i *)(codes + i));
        const __m256d vm = _mm256_i32gather_pd(
            mag, _mm_and_si128(vc, vk_mask), 8);
        // Sign-extend "has sign bit" to a qword mask, then flip the
        // sign via xor like the scalar negation.
        const __m256i mneg = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(
            _mm_and_si128(vc, vsign_bit), vsign_bit));
        _mm256_storeu_pd(
            out + i,
            _mm256_xor_pd(
                vm, _mm256_and_pd(_mm256_castsi256_pd(mneg),
                                  vneg0)));
    }
    for (; i < n; ++i) {
        const std::uint32_t code = codes[i];
        const double m = mag[code & k_mask];
        out[i] = (code & sign_bit) ? -m : m;
    }
}

// ---------------------------------------------------------------
// GEMM lane family and FP22 group-sum helpers
// ---------------------------------------------------------------

// One output cell per lane: lane c of a vector holds cell c0 + c
// and runs that cell's scalar sequence. Columns past the last full
// vector run the scalar entry.

/** fastmath::pinnedDot's fixed tree over its eight k-lanes. */
template <class V, class Add>
inline V
pinnedTree(const V (&lane)[8], Add add)
{
    return add(add(add(lane[0], lane[4]), add(lane[2], lane[6])),
               add(add(lane[1], lane[5]), add(lane[3], lane[7])));
}

/**
 * fastmath::pinnedDot for 4 * W cells in W registers. Their 8 * W
 * k-lane sums do not fit in sixteen registers at W = 4, so each pass
 * over K keeps two k-lanes (rows 8j + 2q and 8j + 2q + 1); every row
 * of B is still read once.
 */
template <int W>
void
dotChunkAvx2(const double *a, const double *b, std::size_t ldb,
             std::size_t n, double *out)
{
    __m256d lane[W][8];
    for (std::size_t q = 0; q < 4; ++q) {
        __m256d acc[W][2];
#pragma GCC unroll 4
        for (int v = 0; v < W; ++v)
            acc[v][0] = acc[v][1] = _mm256_setzero_pd();
        for (std::size_t k = 2 * q; k < n; k += 8) {
#pragma GCC unroll 2
            for (std::size_t l = 0; l < 2; ++l) {
                if (k + l < n) {
                    const __m256d ak = _mm256_set1_pd(a[k + l]);
                    const double *bk = b + (k + l) * ldb;
#pragma GCC unroll 4
                    for (int v = 0; v < W; ++v)
                        acc[v][l] = _mm256_fmadd_pd(
                            ak, _mm256_loadu_pd(bk + 4 * v), acc[v][l]);
                }
            }
        }
#pragma GCC unroll 4
        for (int v = 0; v < W; ++v) {
            lane[v][2 * q] = acc[v][0];
            lane[v][2 * q + 1] = acc[v][1];
        }
    }
    for (int v = 0; v < W; ++v)
        _mm256_storeu_pd(out + 4 * v,
                         pinnedTree(lane[v], [](__m256d x, __m256d y) {
                             return _mm256_add_pd(x, y);
                         }));
}

void
dotLanesAvx2(const double *a, const double *b, std::size_t ldb,
             std::size_t n, std::size_t cols, double *out)
{
    std::size_t c0 = 0;
    for (; c0 + 16 <= cols; c0 += 16)
        dotChunkAvx2<4>(a, b + c0, ldb, n, out + c0);
    for (; c0 + 4 <= cols; c0 += 4)
        dotChunkAvx2<1>(a, b + c0, ldb, n, out + c0);
    if (c0 < cols)
        detail::scalarKernelTable()->dotLanes(a, b + c0, ldb, n,
                                              cols - c0, out + c0);
}

void
dotLanesF32Avx2(const double *a, const double *b, std::size_t ldb,
                std::size_t n, std::size_t cols, float *out)
{
    std::size_t c0 = 0;
    for (; c0 + 8 <= cols; c0 += 8) {
        const double *bc = b + c0;
        // Eight float cells per register; their products come from
        // two double registers.
        __m256 acc[8];
        for (__m256 &v : acc)
            v = _mm256_setzero_ps();
        auto step = [&](std::size_t k, std::size_t l) {
            const __m256d ak = _mm256_set1_pd(a[k]);
            const double *bk = bc + k * ldb;
            acc[l] = _mm256_add_ps(
                acc[l],
                _mm256_set_m128(
                    _mm256_cvtpd_ps(
                        _mm256_mul_pd(ak, _mm256_loadu_pd(bk + 4))),
                    _mm256_cvtpd_ps(
                        _mm256_mul_pd(ak, _mm256_loadu_pd(bk)))));
        };
        std::size_t k = 0;
        for (; k + 8 <= n; k += 8)
#pragma GCC unroll 8
            for (std::size_t l = 0; l < 8; ++l)
                step(k + l, l);
#pragma GCC unroll 8
        for (std::size_t l = 0; l < 8; ++l)
            if (k + l < n)
                step(k + l, l);
        _mm256_storeu_ps(out + c0, pinnedTree(acc, [](__m256 x,
                                                      __m256 y) {
                             return _mm256_add_ps(x, y);
                         }));
    }
    if (c0 < cols)
        detail::scalarKernelTable()->dotLanesF32(a, b + c0, ldb, n,
                                                 cols - c0, out + c0);
}

/**
 * alignedGroupSum + Fp22Register::add per lane, by the argument of
 * fp22FoldLanesAvx512. The max uses _mm256_max_pd on the magnitudes
 * (their order is the bit order), which drops NaN products; a NaN
 * then reaches the group sum, so the new register value is NaN and
 * the lane takes the scalar path anyway.
 */
void
fp22FoldLanesAvx2(const double *a, const double *b, std::size_t ldb,
                  std::size_t n, std::size_t group, std::size_t cols,
                  double *reg)
{
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x((long long)kAbsMask));
    const __m256i keep_m13 = _mm256_set1_epi64x(~((1LL << 39) - 1));
    const int trunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    std::size_t c0 = 0;
    for (; c0 + 4 <= cols; c0 += 4) {
        const double *bc = b + c0;
        __m256d r = _mm256_loadu_pd(reg + c0);
        for (std::size_t k0 = 0; k0 < n; k0 += group) {
            const std::size_t cnt = std::min(group, n - k0);
            const double *ag = a + k0;
            const double *bg = bc + k0 * ldb;
            auto product = [&](std::size_t i) {
                return _mm256_mul_pd(_mm256_set1_pd(ag[i]),
                                     _mm256_loadu_pd(bg + i * ldb));
            };
            __m256d mx0 = _mm256_setzero_pd(), mx1 = mx0;
            std::size_t i = 0;
            for (; i + 2 <= cnt; i += 2) {
                mx0 = _mm256_max_pd(_mm256_and_pd(product(i), abs_mask),
                                    mx0);
                mx1 = _mm256_max_pd(
                    _mm256_and_pd(product(i + 1), abs_mask), mx1);
            }
            if (i < cnt)
                mx0 = _mm256_max_pd(_mm256_and_pd(product(i), abs_mask),
                                    mx0);
            const __m256i e = _mm256_srli_epi64(
                _mm256_castpd_si256(_mm256_max_pd(mx0, mx1)), 52);
            const __m256i fast = _mm256_and_si256(
                _mm256_cmpgt_epi64(e, _mm256_set1_epi64x(12)),
                _mm256_cmpgt_epi64(_mm256_set1_epi64x(2006), e));
            const __m256d quantum = _mm256_castsi256_pd(_mm256_slli_epi64(
                _mm256_sub_epi64(e, _mm256_set1_epi64x(12)), 52));
            const __m256d inv = _mm256_castsi256_pd(_mm256_slli_epi64(
                _mm256_sub_epi64(_mm256_set1_epi64x(2058), e), 52));
            __m256d s0 = _mm256_setzero_pd(), s1 = s0;
            for (i = 0; i + 2 <= cnt; i += 2) {
                s0 = _mm256_add_pd(
                    s0, _mm256_round_pd(_mm256_mul_pd(product(i), inv),
                                        trunc));
                s1 = _mm256_add_pd(
                    s1, _mm256_round_pd(
                            _mm256_mul_pd(product(i + 1), inv), trunc));
            }
            if (i < cnt)
                s0 = _mm256_add_pd(
                    s0, _mm256_round_pd(_mm256_mul_pd(product(i), inv),
                                        trunc));
            const __m256i next = _mm256_castpd_si256(_mm256_add_pd(
                r, _mm256_mul_pd(_mm256_add_pd(s0, s1), quantum)));
            const __m256i mag = _mm256_and_si256(
                next, _mm256_castpd_si256(abs_mask));
            const __m256i nexp = _mm256_srli_epi64(mag, 52);
            const __m256i ok = _mm256_and_si256(
                fast,
                _mm256_or_si256(
                    _mm256_and_si256(
                        _mm256_cmpgt_epi64(nexp,
                                           _mm256_set1_epi64x(1022 - 126)),
                        _mm256_cmpgt_epi64(
                            _mm256_set1_epi64x(1024 + 127), nexp)),
                    _mm256_cmpeq_epi64(mag, _mm256_setzero_si256())));
            r = _mm256_blendv_pd(
                r, _mm256_castsi256_pd(_mm256_and_si256(next, keep_m13)),
                _mm256_castsi256_pd(ok));
            if (const int slow =
                    ~_mm256_movemask_pd(_mm256_castsi256_pd(ok)) & 0xf) {
                alignas(32) double lane[4];
                _mm256_store_pd(lane, r);
                for (int l = 0; l < 4; ++l)
                    if (slow >> l & 1)
                        detail::scalarKernelTable()->fp22FoldLanes(
                            ag, bg + l, ldb, cnt, cnt, 1, lane + l);
                r = _mm256_load_pd(lane);
            }
        }
        _mm256_storeu_pd(reg + c0, r);
    }
    if (c0 < cols)
        detail::scalarKernelTable()->fp22FoldLanes(
            a, b + c0, ldb, n, group, cols - c0, reg + c0);
}

std::uint64_t
absBitsMaxAvx2(const double *in, std::size_t n)
{
    const __m256i vabs_mask =
        _mm256_set1_epi64x((long long)kAbsMask);
    __m256i vmax = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i mag = _mm256_and_si256(
            _mm256_castpd_si256(_mm256_loadu_pd(in + i)), vabs_mask);
        // Magnitudes are < 2^63, so signed compare is an exact
        // unsigned max.
        vmax = _mm256_blendv_epi8(vmax, mag,
                                  _mm256_cmpgt_epi64(mag, vmax));
    }
    alignas(32) std::uint64_t lane[4];
    _mm256_store_si256((__m256i *)lane, vmax);
    std::uint64_t mx = std::max(std::max(lane[0], lane[1]),
                                std::max(lane[2], lane[3]));
    for (; i < n; ++i) {
        const std::uint64_t mag =
            std::bit_cast<std::uint64_t>(in[i]) & kAbsMask;
        mx = std::max(mx, mag);
    }
    return mx;
}

double
truncSumAvx2(const double *in, std::size_t n, double inv_quantum,
             double quantum)
{
    const __m256d vinv = _mm256_set1_pd(inv_quantum);
    const __m256d vq = _mm256_set1_pd(quantum);
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_add_pd(
            acc,
            _mm256_mul_pd(
                _mm256_round_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(in + i), vinv),
                    _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC),
                vq));
    // Exact by the caller's contract, so any reduction order works.
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    double sum = ((lane[0] + lane[1]) + lane[2]) + lane[3];
    for (; i < n; ++i)
        sum += std::trunc(in[i] * inv_quantum) * quantum;
    return sum;
}

const KernelTable kAvx2Table = [] {
    KernelTable t;
    t.isa = KernelIsa::AVX2;
    t.encodeSpan = encodeSpanAvx2;
    t.quantizeSpan = quantizeSpanAvx2;
    t.decodeLutSpan = decodeLutSpanAvx2;
    t.encodeScaledSpan = encodeScaledSpanAvx2;
    t.absMax = absMaxAvx2;
    t.scaleSpan = scaleSpanAvx2;
    t.logAbsStats = logAbsStatsAvx2;
    t.magTable = magTableAvx2;
    t.logfmtEncodeLog = logfmtEncodeLogAvx2;
    t.logfmtEncodeLinear = logfmtEncodeLinearAvx2;
    t.logfmtDecode = logfmtDecodeAvx2;
    t.dotLanes = dotLanesAvx2;
    t.dotLanesF32 = dotLanesF32Avx2;
    t.fp22FoldLanes = fp22FoldLanesAvx2;
    t.absBitsMax = absBitsMaxAvx2;
    t.truncSum = truncSumAvx2;
    return t;
}();

} // namespace

const KernelTable *
detail::avx2KernelTable()
{
    return &kAvx2Table;
}

} // namespace dsv3::numerics

#else // no AVX2+FMA at compile time

namespace dsv3::numerics {

const KernelTable *
detail::avx2KernelTable()
{
    return nullptr;
}

} // namespace dsv3::numerics

#endif
