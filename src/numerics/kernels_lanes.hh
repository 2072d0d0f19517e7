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
 * no unsigned 64-bit compare and no 64-bit arithmetic shift) states in
 * the ops struct why it is exact here.
 *
 * Every entry is bit-identical to kernels_scalar.cc. The codec entries
 * run quantizeValue()'s steps lane-wise (integer rounding on the
 * magnitude bits, one exact add-subtract below 2^emin), with no lane
 * left to a scalar rerun; the LogFMT entries perform the pinned
 * operation sequences of numerics/fastmath.hh lane-wise, one
 * correctly-rounded instruction per pinned operation (the repo builds
 * with -ffp-contract=off, so nothing is fused). The non-obvious
 * choices:
 *  - max/min operand order: max(|x|, acc) returns acc when |x| is NaN
 *    and on ties, as std::max(acc, |x|) keeps its first operand;
 *  - ne() is unordered (true on NaN, like scalar !=); lt/gt/le are
 *    ordered (false on NaN, like scalar <, >, <=).
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
constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
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

/** One chunk through quantizeValue(), before its sign and NaN rules. */
template <class O>
struct Rounded
{
    typename O::I mag;   //!< |x|
    typename O::I q;     //!< |quantizeValue(k, x)|, unless x is NaN
    typename O::I fixed; //!< |x| + subMagic; below 2^emin its low bits
                         //!< are the count of subnormal ULPs
    typename O::M low;   //!< |x| < 2^emin
    typename O::M nan;
};

/** The bits of @p v (the builtin: std::bit_cast would be a weak copy). */
inline std::int64_t
bitsOf(double v)
{
    return __builtin_bit_cast(std::int64_t, v);
}

/** Lane-parallel quantizeValue() on |x|, by the steps kernels.hh argues. */
template <class O>
inline Rounded<O>
roundMagnitude(const FormatConstants &k, typename O::D vx)
{
    using I = typename O::I;
    const int s = 52 - k.mbits;
    const I mag = O::asInt(O::abs(vx));
    const I lsb = O::bitAnd(O::shr(mag, O::splatI(s)), O::splatI(1));
    I q = O::bitAnd(O::add(O::add(mag, O::splatI((1ll << (s - 1)) - 1)), lsb),
                    O::splatI(-(1ll << s)));
    const typename O::D vmagic = O::splat(k.subMagic);
    const typename O::D fixed = O::add(O::asDouble(mag), vmagic);
    const typename O::M low = O::gt(O::splatI(bitsOf(k.minNormal)), mag);
    q = O::select(low, O::asInt(O::sub(fixed, vmagic)), q);
    // A NaN's q may have carried into bit 63; no caller reads it.
    q = O::select(O::gt(q, O::splatI(bitsOf(k.maxFinite))),
                  O::splatI(bitsOf(k.overflow)), q);
    return {mag, q, O::asInt(fixed), low,
            O::gt(mag, O::splatI((std::int64_t)detail::kInfBits))};
}

/** The quantizeSpan tallies of one chunk's live lanes. */
template <class O, class Lanes>
inline void
tally(const Rounded<O> &r, typename O::D vmax, Lanes lanes,
      std::uint64_t &sat, std::uint64_t &flush)
{
    const typename O::M live = O::live(lanes);
    sat += (unsigned)__builtin_popcount(
        O::bits(O::bitAnd(O::gt(O::asDouble(r.mag), vmax), live)));
    flush += (unsigned)__builtin_popcount(O::bits(O::bitAnd(
        O::andNot(O::isZero(r.mag), O::isZero(r.q)), live)));
}

/** quantizeSpan for one (division, tally) choice. */
template <class O, bool kDivide, bool kTally>
void
quantizeLanes(const FormatKernels &k, const double *in, double div,
              double *out, std::size_t n, bool canonical_nan,
              std::uint64_t *saturated, std::uint64_t *flushed)
{
    using D = typename O::D;
    // A copy no output store can alias, so chunks need not reload it.
    const FormatConstants f = k;
    const D vdiv = O::splat(div);
    const D vmax = O::splat(f.maxFinite);
    const D vqnan = O::splat(kQuietNaN);
    // All lanes or none: which NaN a NaN lane takes.
    const typename O::M canonical = O::tail(canonical_nan ? O::W : 0);
    const typename O::I vsign = O::splatI((std::int64_t)detail::kSignBit);
    std::uint64_t sat = 0, flush = 0;
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        D vx = O::load(in + i, lanes);
        if constexpr (kDivide)
            vx = O::div(vx, vdiv);
        const Rounded<O> r = roundMagnitude<O>(f, vx);
        const D q =
            O::asDouble(O::bitOr(r.q, O::bitAnd(O::asInt(vx), vsign)));
        O::store(out + i,
                 O::select(r.nan, O::select(canonical, vqnan, vx), q),
                 lanes);
        if constexpr (kTally)
            tally<O>(r, vmax, lanes, sat, flush);
    });
    if constexpr (kTally) {
        *saturated += sat;
        *flushed += flush;
    }
}

template <class O>
void
quantizeSpan(const FormatKernels &k, const double *in, double div,
             double *out, std::size_t n, bool canonical_nan,
             std::uint64_t *saturated, std::uint64_t *flushed)
{
    using Loop = decltype(&quantizeLanes<O, false, false>);
    static constexpr Loop kLoops[2][2] = {
        {quantizeLanes<O, false, false>, quantizeLanes<O, false, true>},
        {quantizeLanes<O, true, false>, quantizeLanes<O, true, true>}};
    kLoops[div != 1.0][saturated != nullptr](k, in, div, out, n,
                                             canonical_nan, saturated,
                                             flushed);
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

/**
 * Codes from roundMagnitude(): below 2^emin the subnormal count in
 * fixed's low bits, at or above it the rounded bits shifted down to
 * the format's mantissa width with the double's exponent bias swapped
 * for the format's; then +inf, NaN and the sign.
 */
template <class O>
void
encodeScaledSpan(const FormatKernels &k, const double *in, double s,
                 std::uint32_t *out, std::size_t n,
                 std::uint64_t *saturated, std::uint64_t *flushed)
{
    using I = typename O::I;
    const FormatConstants f = k; // unaliased, as in quantizeLanes
    const typename O::D vdiv = O::splat(s);
    const typename O::D vmax = O::splat(f.maxFinite);
    const I vshift = O::splatI(52 - f.mbits);
    const I vrebias = O::splatI((std::int64_t)(1023 - f.bias) << f.mbits);
    const I vmagic = O::splatI(bitsOf(f.subMagic));
    const I vinf = O::splatI((std::int64_t)detail::kInfBits);
    const I vsign_shift = O::splatI(f.signShift);
    std::uint64_t sat = 0, flush = 0;
    forEachChunk<O>(n, [&](std::size_t i, auto lanes) {
        const typename O::D vx = O::div(O::load(in + i, lanes), vdiv);
        const Rounded<O> r = roundMagnitude<O>(f, vx);
        I code = O::select(r.low, O::sub(r.fixed, vmagic),
                           O::sub(O::shr(r.q, vshift), vrebias));
        code = O::select(O::eq(r.q, vinf), O::splatI(f.infCode), code);
        code = O::select(r.nan, O::splatI(f.nanCode), code);
        code = O::bitOr(
            code, O::shl(O::shr(O::asInt(vx), imm<63>), vsign_shift));
        O::storeC(out + i, O::narrow(code), lanes);
        if (saturated)
            tally<O>(r, vmax, lanes, sat, flush);
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
