/**
 * @file
 * AVX-512 KernelTable (8-wide doubles, one zmm per vector, k-masks).
 *
 * Compiled with -mavx512f -mavx512dq -mavx512vl (src/CMakeLists.txt);
 * on other targets this TU collapses to a nullptr provider. The codec
 * and LogFMT entries are the kernels_lanes.hh templates over the
 * Avx512 lane ops below; the GEMM lane kernels are written here,
 * because their register shape is this ISA's own (see dotChunk). Every
 * entry is bit-identical to kernels_scalar.cc. Everything but the
 * table provider has internal linkage, so no AVX-512 code can stand in
 * for a baseline copy.
 */

#include "numerics/dispatch.hh"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cstdint>
#include <type_traits>

#include "numerics/kernels_lanes.hh"

namespace dsv3::numerics {
namespace {

using lanes::Full;
using lanes::kAbsMask;

/** AVX-512 lane ops: 8 doubles per __m512d, k-masks, masked tails. */
struct Avx512
{
    using D = __m512d;
    using I = __m512i;
    using C = __m256i; //!< one dword per double lane
    using M = __mmask8;
    static constexpr std::size_t W = 8;

    static M
    tail(std::size_t left)
    {
        return left >= 8 ? (M)0xff : (M)((1u << left) - 1);
    }
    static M live(Full) { return 0xff; }
    static M live(M m) { return m; }
    static unsigned bits(M m) { return m; }
    static D load(const double *p, Full) { return _mm512_loadu_pd(p); }
    static D load(const double *p, M m) { return _mm512_maskz_loadu_pd(m, p); }
    static void store(double *p, D v, Full) { _mm512_storeu_pd(p, v); }
    static void
    store(double *p, D v, M m)
    {
        _mm512_mask_storeu_pd(p, m, v);
    }
    static C
    loadC(const std::uint32_t *p, Full)
    {
        return _mm256_loadu_si256((const __m256i *)p);
    }
    static C
    loadC(const std::uint32_t *p, M m)
    {
        return _mm256_maskz_loadu_epi32(m, p);
    }
    static void
    storeC(std::uint32_t *p, C v, M m)
    {
        _mm256_mask_storeu_epi32(p, m, v);
    }

    // -- doubles --
    static D splat(double x) { return _mm512_set1_pd(x); }
    static D add(D a, D b) { return _mm512_add_pd(a, b); }
    static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
    static D div(D a, D b) { return _mm512_div_pd(a, b); }
    static D min(D a, D b) { return _mm512_min_pd(a, b); }
    static D max(D a, D b) { return _mm512_max_pd(a, b); }
    static D abs(D v) { return asDouble(bitAnd(asInt(v), splatI(kAbsMask))); }
    static D
    floor(D v)
    {
        return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF |
                                           _MM_FROUND_NO_EXC);
    }
    static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
    static M le(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
    static M gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
    static M ne(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
    static D select(M m, D a, D b) { return _mm512_mask_mov_pd(b, m, a); }
    static D select(Full, D a, D) { return a; }
    static D
    negateWhere(M m, D v)
    {
        return _mm512_mask_xor_pd(v, m, v, splat(-0.0));
    }
    static double reduceMin(D v) { return _mm512_reduce_min_pd(v); }
    static double reduceMax(D v) { return _mm512_reduce_max_pd(v); }
    static D
    gather(const double *base, C idx)
    {
        return _mm512_i32gather_pd(idx, base, 8);
    }
    /** Lanes j, j + 1, ..., j + 7. */
    static D
    iota(std::uint32_t j)
    {
        return _mm512_cvtepi32_pd(
            add(splatC(j), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
    }
    static C truncate(D v) { return _mm512_cvttpd_epi32(v); }

    // -- 64-bit integer lanes --
    static I asInt(D v) { return _mm512_castpd_si512(v); }
    static D asDouble(I v) { return _mm512_castsi512_pd(v); }
    static I splatI(std::int64_t x) { return _mm512_set1_epi64(x); }
    static I add(I a, I b) { return _mm512_add_epi64(a, b); }
    static I sub(I a, I b) { return _mm512_sub_epi64(a, b); }
    static I bitAnd(I a, I b) { return _mm512_and_si512(a, b); }
    static I bitOr(I a, I b) { return _mm512_or_si512(a, b); }
    static M bitAnd(M a, M b) { return (M)(a & b); }
    /** ~a & b. */
    static M andNot(M a, M b) { return (M)(~a & b); }
    template <int N>
    static I shl(I v, std::integral_constant<int, N>)
    {
        return _mm512_slli_epi64(v, N);
    }
    static I shr(I v, I n) { return _mm512_srlv_epi64(v, n); }
    /** Signed; exact on the unsigned values compared too (< 2^63). */
    static M gt(I a, I b) { return _mm512_cmpgt_epi64_mask(a, b); }
    static M isZero(I v) { return _mm512_testn_epi64_mask(v, v); }
    static I select(M m, I a, I b) { return _mm512_mask_mov_epi64(b, m, a); }
    /** double((int64)v >> 52), minus 54 on the lanes of @p m. */
    static D
    exponent(I v, M m)
    {
        return _mm512_cvtepi64_pd(_mm512_add_epi64(
            _mm512_srai_epi64(v, 52), _mm512_maskz_mov_epi64(m, splatI(-54))));
    }
    /** The low dword of each qword. */
    static C narrow(I v) { return _mm512_cvtepi64_epi32(v); }
    static I widen(C v) { return _mm512_cvtepi32_epi64(v); }

    // -- 32-bit lanes --
    static C splatC(std::uint32_t x) { return _mm256_set1_epi32((int)x); }
    static C add(C a, C b) { return _mm256_add_epi32(a, b); }
    static C sub(C a, C b) { return _mm256_sub_epi32(a, b); }
    static C bitAnd(C a, C b) { return _mm256_and_si256(a, b); }
    static C minU(C a, C b) { return _mm256_min_epu32(a, b); }
    template <int N>
    static C sra(C v, std::integral_constant<int, N>)
    {
        return _mm256_srai_epi32(v, N);
    }
    static C select(M m, C a, C b) { return _mm256_mask_blend_epi32(m, b, a); }
    /** v | x on the lanes of m. */
    static C
    orWhere(M m, C v, C x)
    {
        return _mm256_mask_or_epi32(v, m, v, x);
    }
    /** Lanes whose v has the single bit @p bit set. */
    static M hasBit(C v, C bit) { return _mm256_test_epi32_mask(v, bit); }
};

// ---------------------------------------------------------------
// GEMM lane family
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
        live[v] = Avx512::tail(left > 8u * v ? left - 8u * v : 0);
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

// Not std::conditional_t: vector-type template arguments lose attributes.
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
        const Acc dot = lanes::pinnedTree(acc[v], add);
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
 * alignedGroupSum + Fp22Register::add per lane. On a lane whose group's
 * biased max exponent is in [13, 2005], the quantum and its reciprocal
 * are normal powers of two and every truncated term is an integer
 * below 2^13 in magnitude, so alignedGroupSum's sequential double sum
 * (of far fewer than 2^40 terms) is exact: it equals the int64 sum of
 * the terms, scaled once. A lane whose new register value is zero or
 * E8M13-normal truncates by clearing the low 39 significand bits.
 * Every other lane reruns the scalar entry for that lane and group
 * only.
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
        const std::size_t cnt = n - k0 < group ? n - k0 : group;
        const double *ag = a + k0;
        const double *bg = b + k0 * ldb;
        // Pass 1: the max magnitude bits per lane.
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

constexpr KernelTable kAvx512Table = [] {
    KernelTable t;
    t.isa = KernelIsa::AVX512;
    lanes::fillLaneEntries<Avx512>(t);
    t.dotLanes = dotLanesAvx512;
    t.dotLanesF32 = dotLanesF32Avx512;
    t.fp22FoldLanes = fp22FoldLanesAvx512;
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
