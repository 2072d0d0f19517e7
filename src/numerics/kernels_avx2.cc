/**
 * @file
 * AVX2+FMA KernelTable (4-wide doubles, vector-mask blends).
 *
 * Compiled with -mavx2 -mfma (src/CMakeLists.txt); elsewhere this TU
 * collapses to a nullptr provider. The codec and LogFMT entries are the
 * kernels_lanes.hh templates over the Avx2 lane ops below; the GEMM
 * lane kernels are written here, because their register shape is this
 * ISA's own (see dotChunkAvx2). Every entry is bit-identical to
 * kernels_scalar.cc. Everything but the table provider has internal
 * linkage, so no AVX-compiled code can stand in for a baseline copy.
 */

#include "numerics/dispatch.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstdint>

#include "numerics/kernels_lanes.hh"

namespace dsv3::numerics {
namespace {

using lanes::Full;
using lanes::kAbsMask;
using lanes::pinnedTree;

/**
 * AVX2 lane ops: 4 doubles per __m256d, masks as all-ones qwords, and
 * masked loads and stores for tails. Two operations are emulated, each
 * exact on the values the kernels give it: see gt and exponent.
 */
struct Avx2
{
    using D = __m256d;
    using I = __m256i;
    using C = __m128i; //!< one dword per double lane
    using M = __m256i; //!< all-ones or all-zero qwords
    static constexpr std::size_t W = 4;

    static M
    tail(std::size_t left)
    {
        return _mm256_cmpgt_epi64(_mm256_set1_epi64x((long long)left),
                                  _mm256_setr_epi64x(0, 1, 2, 3));
    }
    static M live(Full) { return splatI(-1); }
    static M live(M m) { return m; }
    static unsigned bits(M m) { return _mm256_movemask_pd(asDouble(m)); }
    static D load(const double *p, Full) { return _mm256_loadu_pd(p); }
    static D load(const double *p, M m) { return _mm256_maskload_pd(p, m); }
    static void store(double *p, D v, Full) { _mm256_storeu_pd(p, v); }
    static void store(double *p, D v, M m) { _mm256_maskstore_pd(p, m, v); }
    static C
    loadC(const std::uint32_t *p, Full)
    {
        return _mm_loadu_si128((const __m128i *)p);
    }
    static C
    loadC(const std::uint32_t *p, M m)
    {
        return _mm_maskload_epi32((const int *)p, narrow(m));
    }
    static void
    storeC(std::uint32_t *p, C v, M m)
    {
        _mm_maskstore_epi32((int *)p, narrow(m), v);
    }

    // -- doubles --
    static D splat(double x) { return _mm256_set1_pd(x); }
    static D add(D a, D b) { return _mm256_add_pd(a, b); }
    static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
    static D div(D a, D b) { return _mm256_div_pd(a, b); }
    static D min(D a, D b) { return _mm256_min_pd(a, b); }
    static D max(D a, D b) { return _mm256_max_pd(a, b); }
    static D abs(D v) { return asDouble(bitAnd(asInt(v), splatI(kAbsMask))); }
    static D
    floor(D v)
    {
        return _mm256_round_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    }
    static M lt(D a, D b) { return asInt(_mm256_cmp_pd(a, b, _CMP_LT_OQ)); }
    static M le(D a, D b) { return asInt(_mm256_cmp_pd(a, b, _CMP_LE_OQ)); }
    static M gt(D a, D b) { return asInt(_mm256_cmp_pd(a, b, _CMP_GT_OQ)); }
    static M ne(D a, D b) { return asInt(_mm256_cmp_pd(a, b, _CMP_NEQ_UQ)); }
    static D
    select(M m, D a, D b)
    {
        return _mm256_blendv_pd(b, a, asDouble(m));
    }
    static D select(Full, D a, D) { return a; }
    static D
    negateWhere(M m, D v)
    {
        return _mm256_xor_pd(v, _mm256_and_pd(asDouble(m), splat(-0.0)));
    }
    static double
    reduceMin(D v)
    {
        const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(v),
                                      _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_min_sd(_mm_unpackhi_pd(m2, m2), m2));
    }
    static double
    reduceMax(D v)
    {
        const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(v),
                                      _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(m2, m2), m2));
    }
    static D
    gather(const double *base, C idx)
    {
        return _mm256_i32gather_pd(base, idx, 8);
    }
    /** Lanes j, j + 1, j + 2, j + 3. */
    static D
    iota(std::uint32_t j)
    {
        return _mm256_cvtepi32_pd(
            add(splatC(j), _mm_setr_epi32(0, 1, 2, 3)));
    }
    static C truncate(D v) { return _mm256_cvttpd_epi32(v); }

    // -- 64-bit integer lanes --
    static I asInt(D v) { return _mm256_castpd_si256(v); }
    static D asDouble(I v) { return _mm256_castsi256_pd(v); }
    static I splatI(std::int64_t x) { return _mm256_set1_epi64x(x); }
    static I add(I a, I b) { return _mm256_add_epi64(a, b); }
    static I sub(I a, I b) { return _mm256_sub_epi64(a, b); }
    static I bitAnd(I a, I b) { return _mm256_and_si256(a, b); }
    static I bitOr(I a, I b) { return _mm256_or_si256(a, b); }
    /** ~a & b. */
    static I andNot(I a, I b) { return _mm256_andnot_si256(a, b); }
    template <int N>
    static I shl(I v, std::integral_constant<int, N>)
    {
        return _mm256_slli_epi64(v, N);
    }
    static I shr(I v, I n) { return _mm256_srlv_epi64(v, n); }
    /**
     * Signed. Where the scalar compares unsigned values there is no
     * unsigned 64-bit compare to use; the signed one is exact because
     * every such value is below 2^63 (magnitude bits, and rounded
     * magnitudes but a NaN lane's, which is replaced afterwards).
     */
    static M gt(I a, I b) { return _mm256_cmpgt_epi64(a, b); }
    static M
    isZero(I v)
    {
        return _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
    }
    static I select(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
    /**
     * double((int64)v >> 52), minus 54 on the lanes of @p m. There
     * is no arithmetic 64-bit shift: the high dwords shifted right by
     * 20 hold the same sign-extended value.
     */
    static D
    exponent(I v, M m)
    {
        const C k = hi32(_mm256_srai_epi32(v, 20));
        return _mm256_cvtepi32_pd(
            add(k, bitAnd(hi32(m), splatC((std::uint32_t)-54))));
    }
    /** The low dword of each qword. */
    static C
    narrow(I v)
    {
        return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            v, _mm256_setr_epi32(0, 2, 4, 6, 4, 5, 6, 7)));
    }
    static I widen(C v) { return _mm256_cvtepi32_epi64(v); }

    // -- 32-bit lanes --
    static C splatC(std::uint32_t x) { return _mm_set1_epi32((int)x); }
    static C add(C a, C b) { return _mm_add_epi32(a, b); }
    static C sub(C a, C b) { return _mm_sub_epi32(a, b); }
    static C bitAnd(C a, C b) { return _mm_and_si128(a, b); }
    static C minU(C a, C b) { return _mm_min_epu32(a, b); }
    template <int N>
    static C sra(C v, std::integral_constant<int, N>)
    {
        return _mm_srai_epi32(v, N);
    }
    static C select(M m, C a, C b) { return _mm_blendv_epi8(b, a, narrow(m)); }
    /** v | x on the lanes of m. */
    static C
    orWhere(M m, C v, C x)
    {
        return _mm_or_si128(v, bitAnd(narrow(m), x));
    }
    /** Lanes whose v has the single bit @p bit set. */
    static M
    hasBit(C v, C bit)
    {
        return widen(_mm_cmpeq_epi32(bitAnd(v, bit), bit));
    }

  private:
    /** The high dword of each qword. */
    static C
    hi32(I v)
    {
        return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            v, _mm256_setr_epi32(1, 3, 5, 7, 4, 5, 6, 7)));
    }
};

// ---------------------------------------------------------------
// GEMM lane family
// ---------------------------------------------------------------

// One output cell per lane: lane c of a vector holds cell c0 + c
// and runs that cell's scalar sequence. Columns past the last full
// vector run the scalar entry.

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
            const std::size_t cnt = n - k0 < group ? n - k0 : group;
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

constexpr KernelTable kAvx2Table = [] {
    KernelTable t;
    t.isa = KernelIsa::AVX2;
    lanes::fillLaneEntries<Avx2>(t);
    t.dotLanes = dotLanesAvx2;
    t.dotLanesF32 = dotLanesF32Avx2;
    t.fp22FoldLanes = fp22FoldLanesAvx2;
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
