/**
 * @file
 * AVX-512 KernelTable (8-wide doubles, one zmm per vector).
 *
 * Compiled with -mavx512f -mavx512dq -mavx512vl (src/CMakeLists.txt);
 * on other targets this TU collapses to a nullptr provider. Every
 * entry is bit-identical to kernels_scalar.cc: the codec entries are
 * exact integer bit manipulation (same classification as
 * detail::quantizeCore, lane-parallel), the float entries perform the
 * pinned operation sequences of numerics/fastmath.hh lane-wise with
 * one correctly-rounded instruction per pinned operation. No fused
 * multiply-add appears outside dotLanes, mirroring the scalar
 * definitions (the repo builds with -ffp-contract=off so the compiler
 * cannot introduce any).
 *
 * Lane-exactness notes (the non-obvious intrinsic choices):
 *  - max/min operand order: _mm512_max_pd(|x|, acc) returns acc when
 *    |x| is NaN and the second operand on equal values, matching
 *    std::max(acc, |x|)'s keep-first-on-tie / drop-NaN behavior.
 *  - _CMP_NEQ_UQ for `scaled != 0.0` (true on NaN, like scalar !=);
 *    _CMP_GT_OQ / _CMP_LT_OQ / _CMP_LE_OQ elsewhere (false on NaN,
 *    like scalar <, >, <=).
 *  - vpsrlvq / vpsllvq yield 0 for shift counts >= 64, which the
 *    format-subnormal path exploits; the round-up increment is
 *    additionally masked with s < 64 because the remainder compare
 *    is garbage past that point.
 *  - roundscale imm 0x09 = floor, 0x0B = trunc (round-to-nearest
 *    never used: the pinned helpers round via floor(x + 0.5)).
 *  - Double-subnormal *inputs* (dexp == 0, frac != 0) are rare and
 *    need a count-leading-zeros normalization; those lanes fall back
 *    to scalar detail::quantizeCore via a patch mask.
 */

#include "numerics/dispatch.hh"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics {
namespace {

constexpr std::uint64_t kAbsMask = 0x7fffffffffffffffULL;

inline __mmask8
tailMask8(std::size_t left)
{
    return left >= 8 ? (__mmask8)0xff : (__mmask8)((1u << left) - 1);
}

inline __m512d
absPd(__m512d v)
{
    return _mm512_castsi512_pd(_mm512_and_si512(
        _mm512_castpd_si512(v), _mm512_set1_epi64((long long)kAbsMask)));
}

// ---------------------------------------------------------------
// Minifloat codec family
// ---------------------------------------------------------------

struct Enc8
{
    __m512i code;   //!< per-lane code in the low 32 bits of each qword
    __m512d value;  //!< per-lane quantized value
    __mmask8 patch; //!< double-subnormal inputs: redo in scalar
};

/**
 * Lane-parallel detail::quantizeCore(k, x, false). Follows the scalar
 * classification step for step; every arithmetic op is exact integer
 * bit manipulation except the subnormal magnitude multiply, which is
 * exact in both (power-of-two scale, m < 2^52).
 */
inline Enc8
encode8(const FormatKernels &k, __m512d vx)
{
    const __m512i vbits = _mm512_castpd_si512(vx);
    const __m512i vzero = _mm512_setzero_si512();
    const __m512i vone = _mm512_set1_epi64(1);
    const __m512i vsign = _mm512_srli_epi64(vbits, 63);
    const __m512i vsign63 = _mm512_slli_epi64(vsign, 63);
    const __m512i vsign_code =
        _mm512_sllv_epi64(vsign, _mm512_set1_epi64(k.signShift));
    const __m512i vdexp = _mm512_and_si512(_mm512_srli_epi64(vbits, 52),
                                           _mm512_set1_epi64(0x7ff));
    const __m512i vfrac = _mm512_and_si512(
        vbits, _mm512_set1_epi64((1ll << 52) - 1));

    const __mmask8 m_special =
        _mm512_cmpeq_epi64_mask(vdexp, _mm512_set1_epi64(0x7ff));
    const __mmask8 m_zero =
        _mm512_cmpeq_epi64_mask(_mm512_slli_epi64(vbits, 1), vzero);
    const __mmask8 m_frac = _mm512_test_epi64_mask(vfrac, vfrac);
    const __mmask8 patch =
        _mm512_cmpeq_epi64_mask(vdexp, vzero) & m_frac;
    const __mmask8 m_valid = (__mmask8)~(m_special | m_zero | patch);

    // Normal doubles: mag = sig * 2^(e - 52), sig in [2^52, 2^53).
    const __m512i ve = _mm512_sub_epi64(vdexp, _mm512_set1_epi64(1023));
    const __m512i vsig =
        _mm512_or_si512(vfrac, _mm512_set1_epi64(1ll << 52));
    const __mmask8 m_norm =
        _mm512_cmpge_epi64_mask(ve, _mm512_set1_epi64(k.emin)) &
        m_valid;

    // -- normal range: RNE on the integer significand --
    const int shift = 52 - k.mbits;
    const unsigned long long halfc = 1ull << (shift - 1);
    __m512i vm = _mm512_srlv_epi64(vsig, _mm512_set1_epi64(shift));
    const __m512i vhalf = _mm512_set1_epi64((long long)halfc);
    const __m512i vrem = _mm512_and_si512(
        vsig, _mm512_set1_epi64((long long)((halfc << 1) - 1)));
    const __mmask8 rup =
        _mm512_cmpgt_epu64_mask(vrem, vhalf) |
        (_mm512_cmpeq_epi64_mask(vrem, vhalf) &
         _mm512_test_epi64_mask(vm, vone));
    vm = _mm512_mask_add_epi64(vm, rup, vm, vone);
    const __mmask8 carry =
        _mm512_cmpeq_epi64_mask(vm, _mm512_set1_epi64(2ll << k.mbits));
    vm = _mm512_mask_srli_epi64(vm, carry, vm, 1);
    // e only carries in the normal branch; keep the original ve for
    // the below-range path.
    const __m512i ven = _mm512_mask_add_epi64(ve, carry, ve, vone);

    __mmask8 over =
        _mm512_cmpgt_epi64_mask(ven, _mm512_set1_epi64(k.emax));
    if (k.finiteOnly) {
        over |= _mm512_cmpeq_epi64_mask(ven,
                                        _mm512_set1_epi64(k.emax)) &
                _mm512_cmpeq_epi64_mask(
                    vm, _mm512_set1_epi64((2ll << k.mbits) - 1));
    }
    over &= m_norm;

    const __m512i vmant =
        _mm512_and_si512(vm, _mm512_set1_epi64(k.mantMask));
    const __m512i vcode_norm = _mm512_or_si512(
        vsign_code,
        _mm512_or_si512(
            _mm512_sllv_epi64(
                _mm512_add_epi64(ven, _mm512_set1_epi64(k.bias)),
                _mm512_set1_epi64(k.mbits)),
            vmant));
    const __m512d vvalue_norm = _mm512_castsi512_pd(_mm512_or_si512(
        vsign63,
        _mm512_or_si512(
            _mm512_slli_epi64(
                _mm512_add_epi64(ven, _mm512_set1_epi64(1023)), 52),
            _mm512_sllv_epi64(vmant, _mm512_set1_epi64(shift)))));

    // -- below the normal range: fixed-point at the subnormal ULP --
    const __m512i vs = _mm512_add_epi64(
        _mm512_sub_epi64(_mm512_set1_epi64(k.emin), ve),
        _mm512_set1_epi64(shift));
    const __mmask8 s_ok =
        _mm512_cmplt_epi64_mask(vs, _mm512_set1_epi64(64));
    __m512i vms = _mm512_srlv_epi64(vsig, vs); // 0 when s >= 64
    const __m512i vhalf_s =
        _mm512_sllv_epi64(vone, _mm512_sub_epi64(vs, vone));
    const __m512i vrem_s = _mm512_and_si512(
        vsig,
        _mm512_sub_epi64(_mm512_sllv_epi64(vone, vs), vone));
    const __mmask8 rup_s =
        (_mm512_cmpgt_epu64_mask(vrem_s, vhalf_s) |
         (_mm512_cmpeq_epi64_mask(vrem_s, vhalf_s) &
          _mm512_test_epi64_mask(vms, vone))) &
        s_ok;
    vms = _mm512_mask_add_epi64(vms, rup_s, vms, vone);
    const __m512i vcode_sub = _mm512_or_si512(vsign_code, vms);
    const __m512d vvalue_sub = _mm512_castsi512_pd(_mm512_or_si512(
        _mm512_castpd_si512(_mm512_mul_pd(
            _mm512_cvtepu64_pd(vms), _mm512_set1_pd(k.subScale))),
        vsign63));

    // -- blend the paths, worst case last --
    __m512i vcode = _mm512_mask_mov_epi64(vcode_sub, m_norm, vcode_norm);
    __m512d vvalue = _mm512_mask_mov_pd(vvalue_sub, m_norm, vvalue_norm);

    const auto withSign = [&](double mag) {
        return _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_castpd_si512(_mm512_set1_pd(mag)), vsign63));
    };
    const double inf = std::numeric_limits<double>::infinity();
    const __m512d vsat =
        withSign(k.finiteOnly ? k.maxFinite : inf);
    const __m512i vsat_code = _mm512_or_si512(
        vsign_code,
        _mm512_set1_epi64(k.finiteOnly ? k.maxCode : k.infCode));
    vcode = _mm512_mask_mov_epi64(vcode, over, vsat_code);
    vvalue = _mm512_mask_mov_pd(vvalue, over, vsat);

    vcode = _mm512_mask_mov_epi64(vcode, m_zero, vsign_code);
    vvalue = _mm512_mask_mov_pd(vvalue, m_zero, vx); // +-0 keeps sign

    const __mmask8 m_nan = m_special & m_frac;
    const __mmask8 m_inf = m_special & (__mmask8)~m_frac;
    vcode = _mm512_mask_mov_epi64(
        vcode, m_nan,
        _mm512_or_si512(vsign_code, _mm512_set1_epi64(k.nanCode)));
    vvalue = _mm512_mask_mov_pd(vvalue, m_nan, vx); // payload preserved
    if (k.finiteOnly) {
        vcode = _mm512_mask_mov_epi64(
            vcode, m_inf,
            _mm512_or_si512(vsign_code, _mm512_set1_epi64(k.maxCode)));
        vvalue = _mm512_mask_mov_pd(vvalue, m_inf,
                                    withSign(k.maxFinite));
    } else {
        vcode = _mm512_mask_mov_epi64(
            vcode, m_inf,
            _mm512_or_si512(vsign_code, _mm512_set1_epi64(k.infCode)));
        vvalue = _mm512_mask_mov_pd(vvalue, m_inf, vx);
    }
    return {vcode, vvalue, patch};
}

void
encodeSpanAvx512(const FormatKernels &k, const double *in,
                 std::uint32_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, in + i);
        const Enc8 r = encode8(k, vx);
        _mm256_mask_storeu_epi32(out + i, t,
                                 _mm512_cvtepi64_epi32(r.code));
        unsigned patch = (unsigned)(r.patch & t);
        while (patch) {
            const unsigned l = (unsigned)std::countr_zero(patch);
            patch &= patch - 1;
            out[i + l] =
                detail::quantizeCore(k, in[i + l], false).code;
        }
    }
}

void
quantizeSpanAvx512(const FormatKernels &k, const double *in,
                   double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, in + i);
        const Enc8 r = encode8(k, vx);
        _mm512_mask_storeu_pd(out + i, t, r.value);
        unsigned patch = (unsigned)(r.patch & t);
        while (patch) {
            const unsigned l = (unsigned)std::countr_zero(patch);
            patch &= patch - 1;
            out[i + l] =
                detail::quantizeCore(k, in[i + l], false).value;
        }
    }
}

void
decodeLutSpanAvx512(const double *lut, const std::uint32_t *in,
                    double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m256i vc = _mm256_maskz_loadu_epi32(t, in + i);
        _mm512_mask_storeu_pd(out + i, t,
                              _mm512_i32gather_pd(vc, lut, 8));
    }
}

void
encodeScaledSpanAvx512(const FormatKernels &k, const double *in,
                       double s, std::uint32_t *out, std::size_t n,
                       double fmt_max, std::uint32_t mag_mask,
                       std::uint64_t *saturated, std::uint64_t *flushed)
{
    const __m512d vdiv = _mm512_set1_pd(s);
    const __m512d vfmt_max = _mm512_set1_pd(fmt_max);
    const __m512i vmag_mask = _mm512_set1_epi64(mag_mask);
    const __m512d vzero = _mm512_setzero_pd();
    std::uint64_t sat = 0, flush = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, in + i);
        const __m512d vscaled = _mm512_div_pd(vx, vdiv);
        const Enc8 r = encode8(k, vscaled);
        _mm256_mask_storeu_epi32(out + i, t,
                                 _mm512_cvtepi64_epi32(r.code));
        const __mmask8 vec = t & (__mmask8)~r.patch;
        if (saturated) {
            const __mmask8 msat =
                _mm512_cmp_pd_mask(absPd(vscaled), vfmt_max,
                                   _CMP_GT_OQ) &
                vec;
            const __mmask8 mflush =
                _mm512_cmp_pd_mask(vscaled, vzero, _CMP_NEQ_UQ) &
                _mm512_testn_epi64_mask(r.code, vmag_mask) & vec &
                (__mmask8)~msat;
            sat += std::popcount((unsigned)msat);
            flush += std::popcount((unsigned)mflush);
        }
        unsigned patch = (unsigned)(r.patch & t);
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
    if (saturated) {
        *saturated += sat;
        *flushed += flush;
    }
}

double
absMaxAvx512(const double *in, std::size_t n, double init)
{
    __m512d acc = _mm512_set1_pd(init);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_max_pd(absPd(_mm512_loadu_pd(in + i)), acc);
    if (i < n) {
        const __mmask8 t = tailMask8(n - i);
        acc = _mm512_mask_max_pd(
            acc, t, absPd(_mm512_maskz_loadu_pd(t, in + i)), acc);
    }
    return _mm512_reduce_max_pd(acc);
}

void
scaleSpanAvx512(double *inout, double s, std::size_t n)
{
    const __m512d vs = _mm512_set1_pd(s);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(inout + i,
                         _mm512_mul_pd(_mm512_loadu_pd(inout + i), vs));
    if (i < n) {
        const __mmask8 t = tailMask8(n - i);
        _mm512_mask_storeu_pd(
            inout + i, t,
            _mm512_mul_pd(_mm512_maskz_loadu_pd(t, inout + i), vs));
    }
}

// ---------------------------------------------------------------
// LogFMT log/exp family
// ---------------------------------------------------------------

/** Lane-parallel fastmath::logAbsPinned. */
inline __m512d
logAbs8(__m512d vx)
{
    const __m512i vabs_mask = _mm512_set1_epi64((long long)kAbsMask);
    __m512i ix =
        _mm512_and_si512(_mm512_castpd_si512(vx), vabs_mask);
    const __mmask8 m_zero =
        _mm512_cmpeq_epi64_mask(ix, _mm512_setzero_si512());
    const __mmask8 m_sub =
        _mm512_cmplt_epu64_mask(ix, _mm512_set1_epi64(1ll << 52)) &
        (__mmask8)~m_zero;
    const __mmask8 m_naninf = _mm512_cmpge_epu64_mask(
        ix, _mm512_set1_epi64(0x7ff0000000000000ll));

    const __m512d vabs = _mm512_castsi512_pd(ix);
    // Scale double subnormals up by 2^54 and remember k0 = -54.
    ix = _mm512_mask_mov_epi64(
        ix, m_sub,
        _mm512_castpd_si512(
            _mm512_mul_pd(vabs, _mm512_set1_pd(0x1p54))));
    const __m512i k0 =
        _mm512_maskz_mov_epi64(m_sub, _mm512_set1_epi64(-54));

    const __m512i tmp = _mm512_sub_epi64(
        ix, _mm512_set1_epi64((long long)fastmath::kLogOff));
    const __m512d dk = _mm512_cvtepi64_pd(
        _mm512_add_epi64(_mm512_srai_epi64(tmp, 52), k0));
    const __m512d z = _mm512_castsi512_pd(_mm512_sub_epi64(
        ix, _mm512_and_si512(
                tmp, _mm512_set1_epi64(
                         (long long)0xfff0000000000000ull))));

    // fdlibm core, one correctly-rounded instruction per pinned op.
    const __m512d f = _mm512_sub_pd(z, _mm512_set1_pd(1.0));
    const __m512d hfsq = _mm512_mul_pd(
        _mm512_mul_pd(_mm512_set1_pd(0.5), f), f);
    const __m512d sden = _mm512_add_pd(_mm512_set1_pd(2.0), f);
    const __m512d sred = _mm512_div_pd(f, sden);
    const __m512d z2 = _mm512_mul_pd(sred, sred);
    const __m512d w = _mm512_mul_pd(z2, z2);
    const __m512d t1 = _mm512_mul_pd(
        w, _mm512_add_pd(
               _mm512_set1_pd(fastmath::kLg2),
               _mm512_mul_pd(
                   w, _mm512_add_pd(
                          _mm512_set1_pd(fastmath::kLg4),
                          _mm512_mul_pd(
                              w, _mm512_set1_pd(fastmath::kLg6))))));
    const __m512d t2 = _mm512_mul_pd(
        z2,
        _mm512_add_pd(
            _mm512_set1_pd(fastmath::kLg1),
            _mm512_mul_pd(
                w,
                _mm512_add_pd(
                    _mm512_set1_pd(fastmath::kLg3),
                    _mm512_mul_pd(
                        w,
                        _mm512_add_pd(
                            _mm512_set1_pd(fastmath::kLg5),
                            _mm512_mul_pd(
                                w, _mm512_set1_pd(
                                       fastmath::kLg7))))))));
    const __m512d r = _mm512_add_pd(t2, t1);
    // dk*Hi - ((hfsq - (s*(hfsq+r) + dk*Lo)) - f)
    const __m512d inner = _mm512_add_pd(
        _mm512_mul_pd(sred, _mm512_add_pd(hfsq, r)),
        _mm512_mul_pd(dk, _mm512_set1_pd(fastmath::kLn2Lo)));
    __m512d res = _mm512_sub_pd(
        _mm512_mul_pd(dk, _mm512_set1_pd(fastmath::kLn2Hi)),
        _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f));

    // Specials: logAbs(0) = -inf; inf/NaN via |x| + |x| like scalar.
    res = _mm512_mask_mov_pd(
        res, m_zero,
        _mm512_set1_pd(-std::numeric_limits<double>::infinity()));
    res = _mm512_mask_mov_pd(res, m_naninf,
                             _mm512_add_pd(vabs, vabs));
    return res;
}

/** Lane-parallel fastmath::expPinned. */
inline __m512d
exp8(__m512d vx)
{
    const __mmask8 m_nan = _mm512_cmp_pd_mask(vx, vx, _CMP_NEQ_UQ);
    const __mmask8 m_over = _mm512_cmp_pd_mask(
        vx, _mm512_set1_pd(fastmath::kExpOverflow), _CMP_GT_OQ);
    const __mmask8 m_under = _mm512_cmp_pd_mask(
        vx, _mm512_set1_pd(fastmath::kExpUnderflow), _CMP_LT_OQ);

    const __m512d vmagic = _mm512_set1_pd(fastmath::kRoundMagic);
    const __m512d t = _mm512_add_pd(
        _mm512_mul_pd(vx, _mm512_set1_pd(fastmath::kInvLn2)), vmagic);
    // Low 32 mantissa bits of t are k in two's complement; the
    // truncating qword->dword narrow extracts exactly those.
    const __m256i k = _mm512_cvtepi64_epi32(_mm512_castpd_si512(t));
    const __m512d dk = _mm512_sub_pd(t, vmagic);

    const __m512d hi = _mm512_sub_pd(
        vx, _mm512_mul_pd(dk, _mm512_set1_pd(fastmath::kLn2Hi)));
    const __m512d lo =
        _mm512_mul_pd(dk, _mm512_set1_pd(fastmath::kLn2Lo));
    const __m512d r = _mm512_sub_pd(hi, lo);
    const __m512d t2 = _mm512_mul_pd(r, r);
    const __m512d poly = _mm512_add_pd(
        _mm512_set1_pd(fastmath::kExpP1),
        _mm512_mul_pd(
            t2,
            _mm512_add_pd(
                _mm512_set1_pd(fastmath::kExpP2),
                _mm512_mul_pd(
                    t2,
                    _mm512_add_pd(
                        _mm512_set1_pd(fastmath::kExpP3),
                        _mm512_mul_pd(
                            t2,
                            _mm512_add_pd(
                                _mm512_set1_pd(fastmath::kExpP4),
                                _mm512_mul_pd(
                                    t2, _mm512_set1_pd(
                                            fastmath::kExpP5)))))))));
    const __m512d c = _mm512_sub_pd(r, _mm512_mul_pd(t2, poly));
    // y = 1 - ((lo - (r*c)/(2-c)) - hi)
    const __m512d y = _mm512_sub_pd(
        _mm512_set1_pd(1.0),
        _mm512_sub_pd(
            _mm512_sub_pd(
                lo, _mm512_div_pd(
                        _mm512_mul_pd(r, c),
                        _mm512_sub_pd(_mm512_set1_pd(2.0), c))),
            hi));

    // y * 2^k in two exact power-of-two steps.
    const __m256i k1 = _mm256_srai_epi32(k, 1);
    const __m256i k2 = _mm256_sub_epi32(k, k1);
    const __m256i bias = _mm256_set1_epi32(1023);
    const __m512d s1 = _mm512_castsi512_pd(_mm512_slli_epi64(
        _mm512_cvtepi32_epi64(_mm256_add_epi32(k1, bias)), 52));
    const __m512d s2 = _mm512_castsi512_pd(_mm512_slli_epi64(
        _mm512_cvtepi32_epi64(_mm256_add_epi32(k2, bias)), 52));
    __m512d res = _mm512_mul_pd(_mm512_mul_pd(y, s1), s2);

    res = _mm512_mask_mov_pd(res, m_under, _mm512_setzero_pd());
    res = _mm512_mask_mov_pd(
        res, m_over,
        _mm512_set1_pd(std::numeric_limits<double>::infinity()));
    res = _mm512_mask_mov_pd(res, m_nan, vx);
    return res;
}

/** x != 0 && isfinite(x), from the raw bits. */
inline __mmask8
usableMask8(__m512d vx)
{
    const __m512i iabs = _mm512_and_si512(
        _mm512_castpd_si512(vx), _mm512_set1_epi64((long long)kAbsMask));
    return _mm512_test_epi64_mask(iabs, iabs) &
           _mm512_cmplt_epu64_mask(
               iabs, _mm512_set1_epi64(0x7ff0000000000000ll));
}

bool
logAbsStatsAvx512(const double *in, double *logs, std::size_t n,
                  double *min_log, double *max_log)
{
    const double inf = std::numeric_limits<double>::infinity();
    __m512d vmin = _mm512_set1_pd(inf);
    __m512d vmax = _mm512_set1_pd(-inf);
    __mmask8 any = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, in + i);
        const __m512d vl = logAbs8(vx);
        _mm512_mask_storeu_pd(logs + i, t, vl);
        const __mmask8 usable = usableMask8(vx) & t;
        vmin = _mm512_mask_min_pd(vmin, usable, vmin, vl);
        vmax = _mm512_mask_max_pd(vmax, usable, vmax, vl);
        any |= usable;
    }
    if (!any) {
        *min_log = *max_log = 0.0;
        return false;
    }
    // All usable logs are finite, so min/max are order-independent.
    *min_log = _mm512_reduce_min_pd(vmin);
    *max_log = _mm512_reduce_max_pd(vmax);
    return true;
}

void
magTableAvx512(double min_log, double step, std::uint32_t k_max,
               double *mag)
{
    mag[0] = 0.0;
    const __m512d vmin = _mm512_set1_pd(min_log);
    const __m512d vstep = _mm512_set1_pd(step);
    const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (std::uint32_t j = 1; j <= k_max; j += 8) {
        const __mmask8 t = tailMask8((std::size_t)(k_max - j) + 1);
        const __m256i vj = _mm256_add_epi32(
            _mm256_set1_epi32((int)(j - 1)), lane_idx);
        const __m512d varg = _mm512_add_pd(
            vmin, _mm512_mul_pd(vstep, _mm512_cvtepi32_pd(vj)));
        _mm512_mask_storeu_pd(mag + j, t, exp8(varg));
    }
}

std::uint64_t
logfmtEncodeLogAvx512(const double *values, const double *logs,
                      std::size_t n, double min_log, double step,
                      std::uint32_t k_max, std::uint32_t sign_bit,
                      std::uint32_t *codes)
{
    const __m512d vmin = _mm512_set1_pd(min_log);
    const __m512d vstep = _mm512_set1_pd(step);
    const __m512d vone = _mm512_set1_pd(1.0);
    const __m512d vhalf = _mm512_set1_pd(0.5);
    const __m512d vkmax = _mm512_set1_pd((double)k_max);
    const __m512d vzero = _mm512_setzero_pd();
    const __m256i vsign_bit = _mm256_set1_epi32((int)sign_bit);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, values + i);
        const __m512d vl = _mm512_maskz_loadu_pd(t, logs + i);
        const __mmask8 usable = usableMask8(vx) & t;
        const __m512d k_real = _mm512_add_pd(
            _mm512_div_pd(_mm512_sub_pd(vl, vmin), vstep), vone);
        below += std::popcount(
            (unsigned)(_mm512_cmp_pd_mask(k_real, vone, _CMP_LT_OQ) &
                       usable));
        const __m512d r = _mm512_roundscale_pd(
            _mm512_add_pd(k_real, vhalf), 0x09); // floor
        const __m512d cl =
            _mm512_min_pd(_mm512_max_pd(r, vone), vkmax);
        __m256i vcode = _mm512_cvttpd_epi32(cl);
        const __mmask8 mneg =
            _mm512_cmp_pd_mask(vx, vzero, _CMP_LT_OQ);
        vcode = _mm256_mask_or_epi32(vcode, mneg, vcode, vsign_bit);
        _mm256_mask_storeu_epi32(codes + i, usable, vcode);
    }
    return below;
}

std::uint64_t
logfmtEncodeLinearAvx512(const double *values, const double *logs,
                         std::size_t n, double min_log, double step,
                         std::uint32_t k_max, std::uint32_t sign_bit,
                         const double *mag, std::uint32_t *codes)
{
    const __m512d vmin = _mm512_set1_pd(min_log);
    const __m512d vstep = _mm512_set1_pd(step);
    const __m512d vone = _mm512_set1_pd(1.0);
    const __m512d vkmax = _mm512_set1_pd((double)k_max);
    const __m512d vzero = _mm512_setzero_pd();
    const __m256i vkmax32 = _mm256_set1_epi32((int)k_max);
    const __m256i vone32 = _mm256_set1_epi32(1);
    const __m256i vsign_bit = _mm256_set1_epi32((int)sign_bit);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m512d vx = _mm512_maskz_loadu_pd(t, values + i);
        const __m512d vl = _mm512_maskz_loadu_pd(t, logs + i);
        const __mmask8 usable = usableMask8(vx) & t;
        const __m512d k_real = _mm512_add_pd(
            _mm512_div_pd(_mm512_sub_pd(vl, vmin), vstep), vone);
        below += std::popcount(
            (unsigned)(_mm512_cmp_pd_mask(k_real, vone, _CMP_LT_OQ) &
                       usable));
        const __m512d fl = _mm512_roundscale_pd(k_real, 0x09);
        const __m512d lo_d =
            _mm512_min_pd(_mm512_max_pd(fl, vone), vkmax);
        const __m256i lo = _mm512_cvttpd_epi32(lo_d);
        const __m256i hi = _mm256_min_epu32(
            _mm256_add_epi32(lo, vone32), vkmax32);
        const __m512d v_lo = _mm512_i32gather_pd(lo, mag, 8);
        const __m512d v_hi = _mm512_i32gather_pd(hi, mag, 8);
        const __m512d m = absPd(vx);
        const __m512d d_lo = absPd(_mm512_sub_pd(m, v_lo));
        const __m512d d_hi = absPd(_mm512_sub_pd(v_hi, m));
        const __mmask8 pick_lo =
            _mm512_cmp_pd_mask(d_lo, d_hi, _CMP_LE_OQ);
        __m256i vcode = _mm256_mask_blend_epi32(pick_lo, hi, lo);
        const __mmask8 mneg =
            _mm512_cmp_pd_mask(vx, vzero, _CMP_LT_OQ);
        vcode = _mm256_mask_or_epi32(vcode, mneg, vcode, vsign_bit);
        _mm256_mask_storeu_epi32(codes + i, usable, vcode);
    }
    return below;
}

void
logfmtDecodeAvx512(const std::uint32_t *codes, std::size_t n,
                   std::uint32_t sign_bit, const double *mag,
                   double *out)
{
    const __m256i vk_mask = _mm256_set1_epi32((int)(sign_bit - 1));
    const __m256i vsign_bit = _mm256_set1_epi32((int)sign_bit);
    const __m512d vneg0 = _mm512_set1_pd(-0.0);
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 t = tailMask8(n - i);
        const __m256i vc = _mm256_maskz_loadu_epi32(t, codes + i);
        const __m512d vm = _mm512_i32gather_pd(
            _mm256_and_si256(vc, vk_mask), mag, 8);
        const __mmask8 mneg = _mm256_test_epi32_mask(vc, vsign_bit);
        _mm512_mask_storeu_pd(
            out + i, t, _mm512_mask_xor_pd(vm, mneg, vm, vneg0));
    }
}

// ---------------------------------------------------------------
// GEMM lane family and FP22 group-sum helpers
// ---------------------------------------------------------------

// One output cell per lane: lane c of a chunk holds cell c0 + c and
// runs that cell's scalar sequence. A chunk is V = 2 registers (16
// cells, so each broadcast of a[k] feeds two registers and each k
// reads two adjacent cache lines of B) or, for the last eight or
// fewer cells, V = 1. Out-of-range lanes load zeros and are never
// stored.

/** Live-lane masks of a V-register chunk with @p left cells left. */
template <int V>
inline void
chunkMasks(std::size_t left, __mmask8 (&live)[V])
{
    for (int v = 0; v < V; ++v)
        live[v] = tailMask8(left > 8u * v ? left - 8u * v : 0);
}

/**
 * chunk(V, c0) over [0, cols): 16-cell chunks, then the last eight or
 * fewer cells (V = std::integral_constant<int, 2 or 1>).
 */
template <class Chunk>
inline void
forChunks(std::size_t cols, Chunk chunk)
{
    std::size_t c0 = 0;
    for (; c0 + 8 < cols; c0 += 16)
        chunk(std::integral_constant<int, 2>{}, c0);
    if (c0 < cols)
        chunk(std::integral_constant<int, 1>{}, c0);
}

template <bool F32>
struct DotAcc
{
    using type = __m512d; //!< eight double k-lane sums
};

template <>
struct DotAcc<true>
{
    using type = __m256; //!< eight float k-lane sums
};

/**
 * One dot chunk: fastmath::pinnedDot per cell, or with F32
 * pinnedDotF32 (each double product rounded to float before its
 * float lane add).
 */
template <int V, bool F32>
void
dotChunk(const double *a, const double *b, std::size_t ldb,
         std::size_t n, std::size_t left,
         std::conditional_t<F32, float, double> *out)
{
    using Acc = typename DotAcc<F32>::type;
    __mmask8 live[V];
    chunkMasks(left, live);
    // acc[v][l] holds k-lane l (k mod 8) of register v's cells.
    Acc acc[V][8];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
#pragma GCC unroll 8
        for (int l = 0; l < 8; ++l)
            acc[v][l] = Acc{};
    const auto step = [&](std::size_t k, int l) {
        const __m512d ak = _mm512_set1_pd(a[k]);
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const __m512d bk =
                _mm512_maskz_loadu_pd(live[v], b + k * ldb + 8 * v);
            if constexpr (F32)
                acc[v][l] = _mm256_add_ps(
                    acc[v][l], _mm512_cvtpd_ps(_mm512_mul_pd(ak, bk)));
            else
                acc[v][l] = _mm512_fmadd_pd(ak, bk, acc[v][l]);
        }
    };
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8)
#pragma GCC unroll 8
        for (int l = 0; l < 8; ++l)
            step(k + l, l);
#pragma GCC unroll 8
    for (int l = 0; l < 8; ++l)
        if (k + l < n)
            step(k + l, l);
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
        const auto add = [](Acc x, Acc y) {
            if constexpr (F32)
                return _mm256_add_ps(x, y);
            else
                return _mm512_add_pd(x, y);
        };
        const Acc *l = acc[v];
        const Acc dot = add(add(add(l[0], l[4]), add(l[2], l[6])),
                            add(add(l[1], l[5]), add(l[3], l[7])));
        if constexpr (F32)
            _mm256_mask_storeu_ps(out + 8 * v, live[v], dot);
        else
            _mm512_mask_storeu_pd(out + 8 * v, live[v], dot);
    }
}

void
dotLanesAvx512(const double *a, const double *b, std::size_t ldb,
               std::size_t n, std::size_t cols, double *out)
{
    forChunks(cols, [&](auto v, std::size_t c0) {
        dotChunk<decltype(v)::value, false>(a, b + c0, ldb, n, cols - c0,
                                            out + c0);
    });
}

void
dotLanesF32Avx512(const double *a, const double *b, std::size_t ldb,
                  std::size_t n, std::size_t cols, float *out)
{
    forChunks(cols, [&](auto v, std::size_t c0) {
        dotChunk<decltype(v)::value, true>(a, b + c0, ldb, n, cols - c0,
                                           out + c0);
    });
}

/**
 * alignedGroupSum + Fp22Register::add per lane. A lane whose group
 * is inside alignedGroupSum's truncSum gate with a normal quantum --
 * biased max exponent in [13, 2005] -- sums exactly, so it adds the
 * truncated terms as integers and scales once; a lane whose new
 * register value is zero or E8M13-normal truncates by clearing the
 * low 39 significand bits. Every other lane reruns the scalar entry
 * for that lane and group only.
 */
template <int V>
void
fp22FoldChunk(const double *a, const double *b, std::size_t ldb,
              std::size_t n, std::size_t group, std::size_t left,
              double *reg)
{
    const __m512i abs_mask = _mm512_set1_epi64((long long)kAbsMask);
    const __m512i keep_m13 = _mm512_set1_epi64(~((1LL << 39) - 1));
    const __m512i zero = _mm512_setzero_si512();
    __mmask8 live[V];
    chunkMasks(left, live);
    __m512d r[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
        r[v] = _mm512_maskz_loadu_pd(live[v], reg + 8 * v);
    for (std::size_t k0 = 0; k0 < n; k0 += group) {
        const std::size_t cnt = std::min(group, n - k0);
        const double *ag = a + k0;
        const double *bg = b + k0 * ldb;
        // Pass 1: the max magnitude bits (absBitsMax) per lane.
        __m512i mx[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            mx[v] = zero;
        const double *bk = bg;
        for (std::size_t i = 0; i < cnt; ++i, bk += ldb) {
            const __m512d ak = _mm512_set1_pd(ag[i]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                mx[v] = _mm512_max_epu64(
                    mx[v],
                    _mm512_and_si512(
                        _mm512_castpd_si512(_mm512_mul_pd(
                            ak, _mm512_maskz_loadu_pd(live[v],
                                                      bk + 8 * v))),
                        abs_mask));
        }
        __mmask8 fast[V];
        __m512d quantum[V], inv[V];
        __m512i sum[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const __m512i e = _mm512_srli_epi64(mx[v], 52);
            fast[v] = _mm512_mask_cmple_epu64_mask(
                live[v], _mm512_sub_epi64(e, _mm512_set1_epi64(13)),
                _mm512_set1_epi64(2005 - 13));
            // quantum = 2^(max_e - 13), 1/quantum = 2^(13 - max_e),
            // with max_e = e - 1022 (frexp convention).
            quantum[v] = _mm512_castsi512_pd(_mm512_slli_epi64(
                _mm512_sub_epi64(e, _mm512_set1_epi64(12)), 52));
            inv[v] = _mm512_castsi512_pd(_mm512_slli_epi64(
                _mm512_sub_epi64(_mm512_set1_epi64(2058), e), 52));
            sum[v] = zero;
        }
        // Pass 2: sum trunc(p / quantum) as int64. On a fast lane
        // every term is an integer below 2^13 in magnitude and the
        // sum stays below 2^53, so converting it back is exact.
        bk = bg;
        for (std::size_t i = 0; i < cnt; ++i, bk += ldb) {
            const __m512d ak = _mm512_set1_pd(ag[i]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                sum[v] = _mm512_add_epi64(
                    sum[v],
                    _mm512_cvttpd_epi64(_mm512_mul_pd(
                        _mm512_mul_pd(ak, _mm512_maskz_loadu_pd(
                                              live[v], bk + 8 * v)),
                        inv[v])));
        }
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const __m512i next = _mm512_castpd_si512(_mm512_add_pd(
                r[v], _mm512_mul_pd(_mm512_cvtepi64_pd(sum[v]),
                                    quantum[v])));
            // quantizeTruncateFast(kFP22, .) keeps zeros and clears
            // the low 39 bits of values with exponent in [-126, 127].
            const __m512i mag = _mm512_and_si512(next, abs_mask);
            const __mmask8 ok =
                fast[v] &
                (_mm512_cmple_epu64_mask(
                     _mm512_sub_epi64(_mm512_srli_epi64(mag, 52),
                                      _mm512_set1_epi64(1023 - 126)),
                     _mm512_set1_epi64(126 + 127)) |
                 _mm512_cmpeq_epi64_mask(mag, zero));
            r[v] = _mm512_mask_mov_pd(
                r[v], ok,
                _mm512_castsi512_pd(_mm512_and_si512(next, keep_m13)));
            if (const unsigned slow = live[v] & ~ok) {
                alignas(64) double lane[8];
                _mm512_store_pd(lane, r[v]);
                for (unsigned l = 0; l < 8; ++l)
                    if (slow >> l & 1)
                        detail::scalarKernelTable()->fp22FoldLanes(
                            ag, bg + 8 * v + l, ldb, cnt, cnt, 1,
                            lane + l);
                r[v] = _mm512_load_pd(lane);
            }
        }
    }
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
        _mm512_mask_storeu_pd(reg + 8 * v, live[v], r[v]);
}

void
fp22FoldLanesAvx512(const double *a, const double *b, std::size_t ldb,
                    std::size_t n, std::size_t group, std::size_t cols,
                    double *reg)
{
    forChunks(cols, [&](auto v, std::size_t c0) {
        fp22FoldChunk<decltype(v)::value>(a, b + c0, ldb, n, group,
                                          cols - c0, reg + c0);
    });
}

std::uint64_t
absBitsMaxAvx512(const double *in, std::size_t n)
{
    const __m512i vabs_mask = _mm512_set1_epi64((long long)kAbsMask);
    __m512i vmax = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        vmax = _mm512_max_epu64(
            vmax, _mm512_and_si512(
                      _mm512_castpd_si512(_mm512_loadu_pd(in + i)),
                      vabs_mask));
    if (i < n) {
        const __mmask8 t = tailMask8(n - i);
        // Zero-filled lanes contribute magnitude 0: no effect.
        vmax = _mm512_max_epu64(
            vmax,
            _mm512_and_si512(_mm512_castpd_si512(
                                 _mm512_maskz_loadu_pd(t, in + i)),
                             vabs_mask));
    }
    return _mm512_reduce_max_epu64(vmax);
}

double
truncSumAvx512(const double *in, std::size_t n, double inv_quantum,
               double quantum)
{
    const __m512d vinv = _mm512_set1_pd(inv_quantum);
    const __m512d vq = _mm512_set1_pd(quantum);
    __m512d acc = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_add_pd(
            acc, _mm512_mul_pd(
                     _mm512_roundscale_pd(
                         _mm512_mul_pd(_mm512_loadu_pd(in + i), vinv),
                         0x0b), // trunc
                     vq));
    if (i < n) {
        const __mmask8 t = tailMask8(n - i);
        acc = _mm512_mask_add_pd(
            acc, t, acc,
            _mm512_mul_pd(
                _mm512_roundscale_pd(
                    _mm512_mul_pd(_mm512_maskz_loadu_pd(t, in + i),
                                  vinv),
                    0x0b),
                vq));
    }
    // Exact by the caller's contract, so any reduction order works.
    return _mm512_reduce_add_pd(acc);
}

const KernelTable kAvx512Table = [] {
    KernelTable t;
    t.isa = KernelIsa::AVX512;
    t.encodeSpan = encodeSpanAvx512;
    t.quantizeSpan = quantizeSpanAvx512;
    t.decodeLutSpan = decodeLutSpanAvx512;
    t.encodeScaledSpan = encodeScaledSpanAvx512;
    t.absMax = absMaxAvx512;
    t.scaleSpan = scaleSpanAvx512;
    t.logAbsStats = logAbsStatsAvx512;
    t.magTable = magTableAvx512;
    t.logfmtEncodeLog = logfmtEncodeLogAvx512;
    t.logfmtEncodeLinear = logfmtEncodeLinearAvx512;
    t.logfmtDecode = logfmtDecodeAvx512;
    t.dotLanes = dotLanesAvx512;
    t.dotLanesF32 = dotLanesF32Avx512;
    t.fp22FoldLanes = fp22FoldLanesAvx512;
    t.absBitsMax = absBitsMaxAvx512;
    t.truncSum = truncSumAvx512;
    return t;
}();

} // namespace

const KernelTable *
detail::avx512KernelTable()
{
    return &kAvx512Table;
}

} // namespace dsv3::numerics

#else // no AVX-512 at compile time

namespace dsv3::numerics {

const KernelTable *
detail::avx512KernelTable()
{
    return nullptr;
}

} // namespace dsv3::numerics

#endif
