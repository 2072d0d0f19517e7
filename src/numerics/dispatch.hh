/**
 * @file
 * Runtime CPU dispatch for the numerics kernels.
 *
 * The hot numerics loops (minifloat codecs, LogFMT log/exp, the GEMM
 * lane reductions) exist as one scalar table and two SIMD tables,
 * compiled into separate translation units with per-TU ISA flags (see
 * src/CMakeLists.txt). The SIMD tables share one source for their ten
 * codec and LogFMT entries: templates in numerics/kernels_lanes.hh,
 * instantiated by each ISA TU over its own lane-ops struct. Their GEMM
 * lane entries are written per ISA. At first use the process picks one
 * KernelTable of function pointers -- the OpenVINO inference-engine
 * plugin idiom -- based on what the CPU supports:
 *
 *   x86:     __builtin_cpu_supports("avx512f"/"avx2"/"fma") at
 *            runtime; the binary itself stays baseline x86-64, because
 *            an ISA TU exports nothing but its table provider.
 *   other:   scalar (every SIMD table is fuzzed bit-identical to it).
 *
 * DSV3_KERNEL_DISPATCH=scalar|avx2|avx512 forces a specific
 * table (for testing, bisection, and the forced-dispatch golden
 * ctests).
 * Naming an ISA the host cannot run warns once and falls back to the
 * best available path -- it never crashes and never silently picks
 * scalar.
 *
 * Every entry of every table is bit-compatible: for any input, any
 * ISA's entry returns byte-identical results to the scalar entry
 * (which in turn matches the seed *Ref oracles). The codecs are exact
 * integer bit manipulation; the float paths follow the pinned
 * operation orders in numerics/fastmath.hh. tests/numerics/
 * test_dispatch.cc fuzzes every available table against scalar.
 *
 * The chosen ISA is observable as registry stats
 * `numerics.dispatch.{isa,forced}` and as the "dispatch" field of
 * dsv3-bench-report/v1 documents.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dsv3::numerics {

struct FormatKernels;

/** Dispatchable instruction-set families, worst to best. The values
 *  are the `numerics.dispatch.isa` gauge's and stay fixed. */
enum class KernelIsa
{
    SCALAR = 0,
    AVX2 = 2,
    AVX512 = 3,
};

/** Stable lowercase name ("scalar", "avx2", "avx512"). */
const char *isaName(KernelIsa isa);

/**
 * One complete set of kernel entry points. Instances are constexpr
 * tables defined by the per-ISA TUs (so they are filled before any
 * dynamic initializer can call kernels()), and every table fills
 * every entry.
 *
 * Span arguments are raw pointer + length: entries sit below the
 * public span APIs in kernels.hh and are called with the format
 * lookup already hoisted.
 */
struct KernelTable
{
    KernelIsa isa = KernelIsa::SCALAR;

    // -- minifloat codec family ------------------------------------
    /**
     * out[i] = quantizeValue(k, in[i] / div), with no division when
     * div == 1 (a signalling NaN then passes through unquieted). A NaN
     * keeps its payload, or with @p canonical_nan becomes the quiet
     * NaN decode() returns for every NaN code, so out[i] is
     * decode(encode(in[i] / div)) bit for bit. When @p saturated /
     * @p flushed are non-null, adds the count of |in[i] / div| >
     * k.maxFinite to *saturated, and of nonzero in[i] / div that
     * quantize to +-0 to *flushed.
     */
    void (*quantizeSpan)(const FormatKernels &k, const double *in,
                         double div, double *out, std::size_t n,
                         bool canonical_nan, std::uint64_t *saturated,
                         std::uint64_t *flushed) = nullptr;
    /** out[i] = lut[in[i]] (decode gather; lut from FormatKernels). */
    void (*decodeLutSpan)(const double *lut, const std::uint32_t *in,
                          double *out, std::size_t n) = nullptr;
    /**
     * QuantizedMatrix codes: out[i] = encodeFast(k, in[i] / s), with
     * the optional tallies of quantizeSpan (a code with no magnitude
     * bits is a flush).
     */
    void (*encodeScaledSpan)(const FormatKernels &k, const double *in,
                             double s, std::uint32_t *out,
                             std::size_t n, std::uint64_t *saturated,
                             std::uint64_t *flushed) = nullptr;
    /**
     * Quantization amax: the running max. Returns
     * max(init, max_i |in[i]|) with NaNs ignored (matching
     * std::max(run, std::fabs(x)) which keeps `run` against NaN).
     */
    double (*absMax)(const double *in, std::size_t n,
                     double init) = nullptr;
    /** inout[i] *= s (dequantize scale application). */
    void (*scaleSpan)(double *inout, double s, std::size_t n) = nullptr;

    // -- LogFMT log/exp family -------------------------------------
    /**
     * logs[i] = logAbsPinned(in[i]) for all i; *min_log / *max_log
     * become the min/max of logs[i] over usable elements (in[i] != 0
     * and finite). Returns whether any element was usable; min/max
     * are meaningless when it returns false.
     */
    bool (*logAbsStats)(const double *in, double *logs, std::size_t n,
                        double *min_log, double *max_log) = nullptr;
    /**
     * Magnitude table for one LogFMT tile: mag[0] = 0.0 and
     * mag[j] = expPinned(min_log + step * (j - 1)) for j in
     * [1, k_max] -- the eager form of logfmt.cc's MagnitudeCache.
     */
    void (*magTable)(double min_log, double step, std::uint32_t k_max,
                     double *mag) = nullptr;
    /**
     * LogFMT encode, LOG_SPACE rounding, non-degenerate tile
     * (step != 0). codes[i] (pre-zeroed by the caller) gets
     * sign | clamp(roundHalfUpPinned(k_real), 1, k_max) for usable
     * elements, where k_real = (logs[i] - min_log) / step + 1.
     * Returns the below-range count (usable elements with
     * k_real < 1).
     */
    std::uint64_t (*logfmtEncodeLog)(const double *values,
                                     const double *logs, std::size_t n,
                                     double min_log, double step,
                                     std::uint32_t k_max,
                                     std::uint32_t sign_bit,
                                     std::uint32_t *codes) = nullptr;
    /**
     * LogFMT encode, LINEAR_SPACE rounding: picks between the floor
     * and ceil candidate codes by comparing decoded magnitudes from
     * @p mag (a magTable() of this tile). Same contract as
     * logfmtEncodeLog otherwise.
     */
    std::uint64_t (*logfmtEncodeLinear)(const double *values,
                                        const double *logs,
                                        std::size_t n, double min_log,
                                        double step,
                                        std::uint32_t k_max,
                                        std::uint32_t sign_bit,
                                        const double *mag,
                                        std::uint32_t *codes) = nullptr;
    /**
     * LogFMT decode through a magTable(): out[i] = +-mag[code & mask]
     * with the sign taken from code's sign bit (mask = sign_bit - 1).
     */
    void (*logfmtDecode)(const std::uint32_t *codes, std::size_t n,
                         std::uint32_t sign_bit, const double *mag,
                         double *out) = nullptr;

    // -- GEMM lane family -------------------------------------------
    // Each entry computes `cols` adjacent output cells of one A row
    // over one K range of length n: cell c reduces a[0..n) against
    // the B column b[c], b[c + ldb], ..., b[c + (n - 1) * ldb] (B
    // row-major, read in place). Every cell runs its own scalar
    // sequence, starting at the range start, so a SIMD entry may hold
    // one cell per lane.
    /** out[c] = fastmath::pinnedDot(a, b + c, n, ldb). */
    void (*dotLanes)(const double *a, const double *b, std::size_t ldb,
                     std::size_t n, std::size_t cols,
                     double *out) = nullptr;
    /** out[c] = fastmath::pinnedDotF32(a, b + c, n, ldb). */
    void (*dotLanesF32)(const double *a, const double *b,
                        std::size_t ldb, std::size_t n, std::size_t cols,
                        float *out) = nullptr;
    /**
     * FP22 tensor-core fold: for each group of @p group >= 1
     * products a[k] * b[c + k * ldb] (the last may be short), in K
     * order, reg[c] = Fp22Register::add(alignedGroupSum(group)) on
     * the register value reg[c] the caller holds per cell.
     */
    void (*fp22FoldLanes)(const double *a, const double *b,
                          std::size_t ldb, std::size_t n,
                          std::size_t group, std::size_t cols,
                          double *reg) = nullptr;
};

/**
 * The table the process dispatches to: resolved once at first use
 * (CPU detection + DSV3_KERNEL_DISPATCH), constant afterwards.
 * Cheap enough for per-call use, but hot loops should hoist the
 * reference like they hoist formatKernels().
 */
const KernelTable &kernels();

/** ISA of the table kernels() returns. */
KernelIsa activeIsa();

/** Whether DSV3_KERNEL_DISPATCH forced the active table. */
bool dispatchForced();

/**
 * The table for @p isa, or nullptr when the host cannot run it (not
 * compiled in, or the CPU lacks the features). kernelTable(SCALAR)
 * never returns null. Tests iterate ISAs with this and skip the
 * unavailable ones.
 */
const KernelTable *kernelTable(KernelIsa isa);

/**
 * RAII test hook: make kernels() return the given table until the
 * scope ends. Not thread-safe against concurrently running kernels;
 * for use in serial test bodies only.
 */
class ScopedKernelOverride
{
  public:
    explicit ScopedKernelOverride(const KernelTable &table);
    ~ScopedKernelOverride();
    ScopedKernelOverride(const ScopedKernelOverride &) = delete;
    ScopedKernelOverride &operator=(const ScopedKernelOverride &) =
        delete;

  private:
    const KernelTable *prev_;
};

namespace detail {

/** Bitmask of runnable ISAs (bit = 1 << (int)isa); scalar always set. */
unsigned availableIsaMask();

struct DispatchChoice
{
    KernelIsa isa = KernelIsa::SCALAR;
    bool forced = false;       //!< env named a runnable ISA
    bool unsupported = false;  //!< env named an ISA the host lacks
    bool unknown = false;      //!< env value not a known ISA name
};

/**
 * Pure resolution logic (unit-tested directly): pick the ISA for
 * @p env ("" or nullptr = unset) given runnable-ISA mask
 * @p available. Unset or invalid requests select the best available
 * ISA; the caller is responsible for warning on
 * unsupported/unknown.
 */
DispatchChoice chooseIsa(const char *env, unsigned available);

// Per-ISA table providers, defined in kernels_<isa>.cc. Return
// nullptr when the implementation is not compiled in; the dispatcher
// still checks CPU features before using a non-null table.
const KernelTable *scalarKernelTable();
const KernelTable *avx2KernelTable();
const KernelTable *avx512KernelTable();

} // namespace detail

} // namespace dsv3::numerics
