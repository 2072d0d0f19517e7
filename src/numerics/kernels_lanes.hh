/**
 * @file
 * The codec and LogFMT KernelTable entries, written once over a per-ISA
 * lane-ops struct.
 *
 * Included only by kernels_avx2.cc and kernels_avx512.cc. Each of them
 * defines an ops struct O in an anonymous namespace and instantiates
 * these templates with it; since O has internal linkage, so has every
 * instantiation, and an ISA translation unit exports nothing but its
 * table provider. Everything here sits in an anonymous namespace too,
 * and calls no inline function with external linkage: such a function
 * would be emitted weak and ISA-compiled in the ISA objects, and the
 * linker could hand that copy to baseline callers.
 *
 * O supplies W (lanes per vector), the vector types D (W doubles), I
 * (W 64-bit integers), C (W 32-bit integers, one per double lane) and
 * M (a W-lane mask), and one-line operations over them. Each operation
 * is a fixed instruction choice of its ISA; an emulated one (AVX2 has
 * no unsigned 64-bit compare, no u64 -> double convert and no 64-bit
 * arithmetic shift) states in the ops struct why it is exact here.
 *
 * Every entry is bit-identical to kernels_scalar.cc. The codec entries
 * are exact integer bit manipulation, classified as in
 * detail::quantizeCore; the LogFMT entries perform the pinned operation
 * sequences of numerics/fastmath.hh lane-wise, one correctly-rounded
 * instruction per pinned operation (the repo builds with
 * -ffp-contract=off, so nothing is fused). The non-obvious choices:
 *  - max/min operand order: max(|x|, acc) returns acc when |x| is NaN
 *    and on ties, as std::max(acc, |x|) keeps its first operand;
 *  - ne() is unordered (true on NaN, like scalar !=); lt/gt/le are
 *    ordered (false on NaN, like scalar <, >, <=);
 *  - variable 64-bit shifts yield 0 for counts >= 64, which the
 *    format-subnormal path uses; its round-up increment is masked with
 *    s < 64 because the remainder compare is garbage past that point;
 *  - double-subnormal codec inputs (dexp == 0, frac != 0) are rare and
 *    need a leading-zero normalization, so those lanes rerun the scalar
 *    table's entry for their one element.
 *
 * Tails: a span runs full chunks of W elements with plain loads and
 * stores, then its last partial chunk with masked ones (lanes =
 * O::tail(n - i)). A masked-off lane loads zero, is never stored and is
 * never counted in a tally; its gather indices stay in range because
 * they derive from zero codes or are clamped into [1, k_max].
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "numerics/dispatch.hh"
#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics::lanes {
namespace {

/** The lanes of a full chunk: all live, plain loads and stores. */
struct Full
{};

/** A shift count as a compile-time immediate: O::shl(v, imm<52>). */
template <int N>
constexpr std::integral_constant<int, N> imm{};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kAbsMask = 0x7fffffffffffffff;

/**
 * body(i, lanes) over [0, n) in chunks of O::W: lanes is Full{} for
 * full chunks and O::tail(n - i) for the last partial one.
 */
template <class O, class Body>
inline void
forEachChunk(std::size_t n, Body body)
{
    static_assert((O::W & (O::W - 1)) == 0);
    const std::size_t full = n & ~(O::W - 1);
    for (std::size_t i = 0; i < full; i += O::W)
        body(i, Full{});
    if (full < n)
        body(full, O::tail(n - full));
}

/** fn(l) for each set bit l of @p bits, lowest first. */
template <class Fn>
inline void
forEachLane(unsigned bits, Fn fn)
{
    for (; bits; bits &= bits - 1)
        fn((unsigned)__builtin_ctz(bits));
}

/** c0 + x * (c1 + x * (c2 + ...)): the pinned Horner order. */
template <class O, class... Cs>
inline typename O::D
horner(typename O::D x, double c0, Cs... cs)
{
    if constexpr (sizeof...(cs) == 0)
        return O::splat(c0);
    else
        return O::add(O::splat(c0), O::mul(x, horner<O>(x, cs...)));
}

/**
 * fastmath::pinnedDot's fixed tree over its eight k-lanes, for the
 * per-ISA GEMM lane kernels.
 */
template <class V, class Add>
inline V
pinnedTree(const V (&lane)[8], Add add)
{
    return add(add(add(lane[0], lane[4]), add(lane[2], lane[6])),
               add(add(lane[1], lane[5]), add(lane[3], lane[7])));
}

// ---------------------------------------------------------------
// Minifloat codec family
// ---------------------------------------------------------------

template <class O>
struct Encoded
{
    typename O::I code;  //!< per-lane code in the low 32 bits
    typename O::D value; //!< per-lane quantized value
    typename O::M patch; //!< double-subnormal inputs: rerun in scalar
};

/** Lane-parallel detail::quantizeCore(k, x, false). */
template <class O>
inline Encoded<O>
encode(const FormatConstants &k, typename O::D vx)
{
    using D = typename O::D;
    using I = typename O::I;
    using M = typename O::M;
    const I vbits = O::asInt(vx);
    const I vone = O::splatI(1);
    const I vsign = O::shr(vbits, imm<63>);
    const I vsign63 = O::shl(vsign, imm<63>);
    const I vsign_code = O::shl(vsign, O::splatI(k.signShift));
    const I vdexp = O::bitAnd(O::shr(vbits, imm<52>), O::splatI(0x7ff));
    const I vfrac = O::bitAnd(vbits, O::splatI((1ll << 52) - 1));

    const M m_special = O::eq(vdexp, O::splatI(0x7ff));
    const M m_zero = O::isZero(O::shl(vbits, imm<1>));
    const M m_fracz = O::isZero(vfrac);
    const M m_patch = O::andNot(m_fracz, O::isZero(vdexp));

    // Normal doubles: mag = sig * 2^(e - 52), sig in [2^52, 2^53).
    const I ve = O::sub(vdexp, O::splatI(1023));
    const I vsig = O::bitOr(vfrac, O::splatI(1ll << 52));
    const M m_norm =
        O::andNot(O::bitOr(O::bitOr(m_special, m_zero), m_patch),
                  O::ge(ve, O::splatI(k.emin)));

    // -- normal range: RNE on the integer significand --
    const int shift = 52 - k.mbits;
    const std::int64_t halfc = 1ll << (shift - 1);
    I vm = O::shr(vsig, O::splatI(shift));
    const I vhalf = O::splatI(halfc);
    const I vrem = O::bitAnd(vsig, O::splatI((halfc << 1) - 1));
    vm = O::addOne(vm, O::bitOr(O::gt(vrem, vhalf),
                                O::bitAnd(O::eq(vrem, vhalf), O::odd(vm))));
    const M carry = O::eq(vm, O::splatI(2ll << k.mbits));
    vm = O::select(carry, O::shr(vm, imm<1>), vm);
    // e only carries in the normal branch; ve stays for below-range.
    const I ven = O::addOne(ve, carry);

    M over = O::gt(ven, O::splatI(k.emax));
    if (k.finiteOnly) {
        over = O::bitOr(
            over, O::bitAnd(O::eq(ven, O::splatI(k.emax)),
                            O::eq(vm, O::splatI((2ll << k.mbits) - 1))));
    }
    over = O::bitAnd(over, m_norm);

    const I vmant = O::bitAnd(vm, O::splatI(k.mantMask));
    const I vcode_norm = O::bitOr(
        vsign_code,
        O::bitOr(O::shl(O::add(ven, O::splatI(k.bias)), O::splatI(k.mbits)),
                 vmant));
    const D vvalue_norm = O::asDouble(O::bitOr(
        vsign63, O::bitOr(O::shl(O::add(ven, O::splatI(1023)), imm<52>),
                          O::shl(vmant, O::splatI(shift)))));

    // -- below the normal range: fixed-point at the subnormal ULP --
    const I vs =
        O::add(O::sub(O::splatI(k.emin), ve), O::splatI(shift));
    I vms = O::shr(vsig, vs); // 0 when s >= 64
    const I vhalf_s = O::shl(vone, O::sub(vs, vone));
    const I vrem_s = O::bitAnd(vsig, O::sub(O::shl(vone, vs), vone));
    vms = O::addOne(
        vms, O::bitAnd(O::bitOr(O::gt(vrem_s, vhalf_s),
                                O::bitAnd(O::eq(vrem_s, vhalf_s),
                                          O::odd(vms))),
                       O::gt(O::splatI(64), vs)));
    const I vcode_sub = O::bitOr(vsign_code, vms);
    const D vvalue_sub = O::asDouble(O::bitOr(
        O::asInt(O::mul(O::smallToDouble(vms), O::splat(k.subScale))),
        vsign63));

    // -- blend the paths, worst case last --
    I vcode = O::select(m_norm, vcode_norm, vcode_sub);
    D vvalue = O::select(m_norm, vvalue_norm, vvalue_sub);

    const auto withSign = [&](double mag) {
        return O::asDouble(O::bitOr(O::asInt(O::splat(mag)), vsign63));
    };
    const auto codeWithSign = [&](std::uint32_t code) {
        return O::bitOr(vsign_code, O::splatI(code));
    };
    vcode = O::select(over,
                      codeWithSign(k.finiteOnly ? k.maxCode : k.infCode),
                      vcode);
    vvalue = O::select(over, withSign(k.finiteOnly ? k.maxFinite : kInf),
                       vvalue);

    vcode = O::select(m_zero, vsign_code, vcode);
    vvalue = O::select(m_zero, vx, vvalue); // +-0 keeps its sign

    const M m_nan = O::andNot(m_fracz, m_special);
    const M m_inf = O::bitAnd(m_special, m_fracz);
    vcode = O::select(m_nan, codeWithSign(k.nanCode), vcode);
    vvalue = O::select(m_nan, vx, vvalue); // payload preserved
    if (k.finiteOnly) {
        vcode = O::select(m_inf, codeWithSign(k.maxCode), vcode);
        vvalue = O::select(m_inf, withSign(k.maxFinite), vvalue);
    } else {
        vcode = O::select(m_inf, codeWithSign(k.infCode), vcode);
        vvalue = O::select(m_inf, vx, vvalue);
    }
    return {vcode, vvalue, m_patch};
}

template <class O>
void
quantizeSpan(const FormatKernels &k, const double *in, double *out,
             std::size_t n)
{
    const KernelTable &scalar = *detail::scalarKernelTable();
    // A copy no output store can alias, so chunks need not reload it.
    const FormatConstants f = k;
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const Encoded<O> r = encode<O>(f, O::load(in + i, lanes));
        O::store(out + i, r.value, lanes);
        forEachLane(O::bits(O::bitAnd(r.patch, O::live(lanes))),
                    [&](unsigned l) {
                        scalar.quantizeSpan(k, in + i + l, out + i + l, 1);
                    });
    });
}

template <class O>
void
decodeLutSpan(const double *lut, const std::uint32_t *in, double *out,
              std::size_t n)
{
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        O::store(out + i, O::gather(lut, O::loadC(in + i, lanes)), lanes);
    });
}

template <class O>
void
encodeScaledSpan(const FormatKernels &k, const double *in, double s,
                 std::uint32_t *out, std::size_t n, double fmt_max,
                 std::uint32_t mag_mask, std::uint64_t *saturated,
                 std::uint64_t *flushed)
{
    using D = typename O::D;
    using M = typename O::M;
    const KernelTable &scalar = *detail::scalarKernelTable();
    const D vdiv = O::splat(s);
    const D vfmt_max = O::splat(fmt_max);
    const D vzero = O::splat(0.0);
    const typename O::I vmag_mask = O::splatI(mag_mask);
    const FormatConstants f = k; // unaliased, as in quantizeSpan
    std::uint64_t sat = 0, flush = 0;
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const D vscaled = O::div(O::load(in + i, lanes), vdiv);
        const Encoded<O> r = encode<O>(f, vscaled);
        O::storeC(out + i, O::narrow(r.code), lanes);
        const M patch = O::bitAnd(r.patch, O::live(lanes));
        if (saturated) {
            const M vec = O::andNot(patch, O::live(lanes));
            const M msat =
                O::bitAnd(O::gt(O::abs(vscaled), vfmt_max), vec);
            const M mflush = O::bitAnd(
                O::andNot(msat, O::ne(vscaled, vzero)),
                O::bitAnd(O::isZero(O::bitAnd(r.code, vmag_mask)), vec));
            sat += (unsigned)__builtin_popcount(O::bits(msat));
            flush += (unsigned)__builtin_popcount(O::bits(mflush));
        }
        forEachLane(O::bits(patch), [&](unsigned l) {
            scalar.encodeScaledSpan(k, in + i + l, s, out + i + l, 1,
                                    fmt_max, mag_mask, saturated,
                                    flushed);
        });
    });
    if (saturated) {
        *saturated += sat;
        *flushed += flush;
    }
}

template <class O>
double
absMax(const double *in, std::size_t n, double init)
{
    typename O::D acc = O::splat(init);
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        acc = O::select(lanes, O::max(O::abs(O::load(in + i, lanes)), acc),
                        acc);
    });
    return O::reduceMax(acc);
}

template <class O>
void
scaleSpan(double *inout, double s, std::size_t n)
{
    const typename O::D vs = O::splat(s);
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        O::store(inout + i, O::mul(O::load(inout + i, lanes), vs), lanes);
    });
}

// ---------------------------------------------------------------
// LogFMT log/exp family
// ---------------------------------------------------------------

/** Lane-parallel fastmath::logAbsPinned. */
template <class O>
inline typename O::D
logAbs(typename O::D vx)
{
    using D = typename O::D;
    using I = typename O::I;
    using M = typename O::M;
    I ix = O::bitAnd(O::asInt(vx), O::splatI(kAbsMask));
    const M m_zero = O::isZero(ix);
    const M m_sub = O::andNot(m_zero, O::gt(O::splatI(1ll << 52), ix));
    const M m_naninf = O::gt(ix, O::splatI(0x7fefffffffffffff));

    const D vabs = O::asDouble(ix);
    // Scale double subnormals up by 2^54; exponent() takes 54 off.
    ix = O::select(m_sub, O::asInt(O::mul(vabs, O::splat(0x1p54))), ix);
    const I tmp = O::sub(ix, O::splatI((std::int64_t)fastmath::kLogOff));
    const D dk = O::exponent(tmp, m_sub);
    const D z = O::asDouble(O::sub(
        ix, O::bitAnd(tmp, O::splatI((std::int64_t)0xfff0000000000000))));

    // fdlibm core, one correctly-rounded instruction per pinned op.
    const D f = O::sub(z, O::splat(1.0));
    const D hfsq = O::mul(O::mul(O::splat(0.5), f), f);
    const D sred = O::div(f, O::add(O::splat(2.0), f));
    const D z2 = O::mul(sred, sred);
    const D w = O::mul(z2, z2);
    const D t1 = O::mul(
        w, horner<O>(w, fastmath::kLg2, fastmath::kLg4, fastmath::kLg6));
    const D t2 =
        O::mul(z2, horner<O>(w, fastmath::kLg1, fastmath::kLg3,
                             fastmath::kLg5, fastmath::kLg7));
    const D r = O::add(t2, t1);
    // dk*Hi - ((hfsq - (s*(hfsq+r) + dk*Lo)) - f)
    const D inner = O::add(O::mul(sred, O::add(hfsq, r)),
                           O::mul(dk, O::splat(fastmath::kLn2Lo)));
    D res = O::sub(O::mul(dk, O::splat(fastmath::kLn2Hi)),
                   O::sub(O::sub(hfsq, inner), f));

    // Specials: logAbs(0) = -inf; inf/NaN via |x| + |x| like scalar.
    res = O::select(m_zero, O::splat(-kInf), res);
    return O::select(m_naninf, O::add(vabs, vabs), res);
}

/** Lane-parallel fastmath::expPinned. */
template <class O>
inline typename O::D
exp(typename O::D vx)
{
    using D = typename O::D;
    using C = typename O::C;
    using M = typename O::M;
    const M m_nan = O::ne(vx, vx);
    const M m_over = O::gt(vx, O::splat(fastmath::kExpOverflow));
    const M m_under = O::lt(vx, O::splat(fastmath::kExpUnderflow));

    const D vmagic = O::splat(fastmath::kRoundMagic);
    const D t = O::add(O::mul(vx, O::splat(fastmath::kInvLn2)), vmagic);
    // The low 32 mantissa bits of t are k in two's complement.
    const C k = O::narrow(O::asInt(t));
    const D dk = O::sub(t, vmagic);

    const D hi = O::sub(vx, O::mul(dk, O::splat(fastmath::kLn2Hi)));
    const D lo = O::mul(dk, O::splat(fastmath::kLn2Lo));
    const D r = O::sub(hi, lo);
    const D t2 = O::mul(r, r);
    const D c = O::sub(
        r, O::mul(t2, horner<O>(t2, fastmath::kExpP1, fastmath::kExpP2,
                                fastmath::kExpP3, fastmath::kExpP4,
                                fastmath::kExpP5)));
    // y = 1 - ((lo - (r*c)/(2-c)) - hi)
    const D y = O::sub(
        O::splat(1.0),
        O::sub(O::sub(lo, O::div(O::mul(r, c),
                                 O::sub(O::splat(2.0), c))),
               hi));

    // y * 2^k in two exact power-of-two steps.
    const C k1 = O::sra(k, imm<1>);
    const C k2 = O::sub(k, k1);
    const C bias = O::splatC(1023);
    const D s1 = O::asDouble(O::shl(O::widen(O::add(k1, bias)), imm<52>));
    const D s2 = O::asDouble(O::shl(O::widen(O::add(k2, bias)), imm<52>));
    D res = O::mul(O::mul(y, s1), s2);

    res = O::select(m_under, O::splat(0.0), res);
    res = O::select(m_over, O::splat(kInf), res);
    return O::select(m_nan, vx, res);
}

/** x != 0 && isfinite(x), from the raw bits. */
template <class O>
inline typename O::M
usable(typename O::D vx)
{
    const typename O::I iabs = O::bitAnd(O::asInt(vx), O::splatI(kAbsMask));
    return O::andNot(O::isZero(iabs),
                     O::gt(O::splatI(0x7ff0000000000000), iabs));
}

template <class O>
bool
logAbsStats(const double *in, double *logs, std::size_t n,
            double *min_log, double *max_log)
{
    using D = typename O::D;
    D vmin = O::splat(kInf);
    D vmax = O::splat(-kInf);
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const D vx = O::load(in + i, lanes);
        const D vl = logAbs<O>(vx);
        O::store(logs + i, vl, lanes);
        const typename O::M use =
            O::bitAnd(usable<O>(vx), O::live(lanes));
        vmin = O::select(use, O::min(vmin, vl), vmin);
        vmax = O::select(use, O::max(vmax, vl), vmax);
    });
    // The log of a usable element is finite, so a lane moved off
    // +inf exactly when it saw one, and min/max are order-independent.
    const double lo = O::reduceMin(vmin);
    if (lo == kInf) {
        *min_log = *max_log = 0.0;
        return false;
    }
    *min_log = lo;
    *max_log = O::reduceMax(vmax);
    return true;
}

template <class O>
void
magTable(double min_log, double step, std::uint32_t k_max, double *mag)
{
    mag[0] = 0.0;
    const typename O::D vmin = O::splat(min_log);
    const typename O::D vstep = O::splat(step);
    // Lane l of chunk j fills mag[j + l + 1] from index j + l.
    forEachChunk<O>(k_max, [&](std::size_t j, auto lanes) {
        O::store(mag + j + 1,
                 exp<O>(O::add(vmin,
                               O::mul(vstep, O::iota((std::uint32_t)j)))),
                 lanes);
    });
}

/** Shared body of the two LogFMT encoders: the tile index and tally. */
template <class O, class Pick>
std::uint64_t
logfmtEncode(const double *values, const double *logs, std::size_t n,
             double min_log, double step, std::uint32_t sign_bit,
             std::uint32_t *codes, Pick pick)
{
    using D = typename O::D;
    const D vmin = O::splat(min_log);
    const D vstep = O::splat(step);
    const D vone = O::splat(1.0);
    const D vzero = O::splat(0.0);
    const typename O::C vsign_bit = O::splatC(sign_bit);
    std::uint64_t below = 0;
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const D vx = O::load(values + i, lanes);
        const typename O::M use = O::bitAnd(usable<O>(vx), O::live(lanes));
        const D k_real = O::add(
            O::div(O::sub(O::load(logs + i, lanes), vmin), vstep), vone);
        below += (unsigned)__builtin_popcount(
            O::bits(O::bitAnd(O::lt(k_real, vone), use)));
        O::storeC(codes + i,
                  O::orWhere(O::lt(vx, vzero), pick(vx, k_real),
                             vsign_bit),
                  use);
    });
    return below;
}

template <class O>
std::uint64_t
logfmtEncodeLog(const double *values, const double *logs, std::size_t n,
                double min_log, double step, std::uint32_t k_max,
                std::uint32_t sign_bit, std::uint32_t *codes)
{
    const typename O::D vone = O::splat(1.0);
    const typename O::D vhalf = O::splat(0.5);
    const typename O::D vkmax = O::splat((double)k_max);
    return logfmtEncode<O>(
        values, logs, n, min_log, step, sign_bit, codes,
        [&](typename O::D, typename O::D k_real) {
            // clamp(roundHalfUpPinned(k_real), 1, k_max)
            const typename O::D r = O::floor(O::add(k_real, vhalf));
            return O::truncate(O::min(O::max(r, vone), vkmax));
        });
}

template <class O>
std::uint64_t
logfmtEncodeLinear(const double *values, const double *logs,
                   std::size_t n, double min_log, double step,
                   std::uint32_t k_max, std::uint32_t sign_bit,
                   const double *mag, std::uint32_t *codes)
{
    using D = typename O::D;
    using C = typename O::C;
    const D vone = O::splat(1.0);
    const D vkmax = O::splat((double)k_max);
    const C vone32 = O::splatC(1);
    const C vkmax32 = O::splatC(k_max);
    return logfmtEncode<O>(
        values, logs, n, min_log, step, sign_bit, codes,
        [&](D vx, D k_real) {
            // Floor and ceil candidates clamped into [1, k_max]; pick
            // whichever decodes closer to |x|.
            const C lo =
                O::truncate(O::min(O::max(O::floor(k_real), vone), vkmax));
            const C hi = O::minU(O::add(lo, vone32), vkmax32);
            const D m = O::abs(vx);
            const D d_lo = O::abs(O::sub(m, O::gather(mag, lo)));
            const D d_hi = O::abs(O::sub(O::gather(mag, hi), m));
            return O::select(O::le(d_lo, d_hi), lo, hi);
        });
}

template <class O>
void
logfmtDecode(const std::uint32_t *codes, std::size_t n,
             std::uint32_t sign_bit, const double *mag, double *out)
{
    const typename O::C vk_mask = O::splatC(sign_bit - 1);
    const typename O::C vsign_bit = O::splatC(sign_bit);
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const typename O::C vc = O::loadC(codes + i, lanes);
        const typename O::D vm = O::gather(mag, O::bitAnd(vc, vk_mask));
        O::store(out + i, O::negateWhere(O::hasBit(vc, vsign_bit), vm),
                 lanes);
    });
}

/** Fill the ten codec and LogFMT entries of @p t with O's lanes. */
template <class O>
constexpr void
fillLaneEntries(KernelTable &t)
{
    t.quantizeSpan = quantizeSpan<O>;
    t.decodeLutSpan = decodeLutSpan<O>;
    t.encodeScaledSpan = encodeScaledSpan<O>;
    t.absMax = absMax<O>;
    t.scaleSpan = scaleSpan<O>;
    t.logAbsStats = logAbsStats<O>;
    t.magTable = magTable<O>;
    t.logfmtEncodeLog = logfmtEncodeLog<O>;
    t.logfmtEncodeLinear = logfmtEncodeLinear<O>;
    t.logfmtDecode = logfmtDecode<O>;
}

} // namespace
} // namespace dsv3::numerics::lanes
