/**
 * @file
 * Golden bit-exactness tests for the fast numerics kernels
 * (kernels.hh): the LUT/bit-classification codec, the span APIs, the
 * batched QuantizedMatrix pipeline, and the blocked + parallel GEMMs
 * must be byte-identical to the scalar reference implementations for
 * every format, granularity, accumulation mode, shape, and thread
 * width. A separate suite pins down ties-to-even rounding on every
 * code midpoint of every 8-bit format (the encode/quantize rounding
 * unification).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "numerics/gemm.hh"
#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"
#include "numerics/logfmt.hh"
#include "numerics/matrix.hh"
#include "numerics/minifloat.hh"
#include "numerics/quantize.hh"

namespace dsv3::numerics {
namespace {

const FloatFormat *const kAllFormats[] = {&kE4M3, &kE5M2, &kE5M6,
                                          &kBF16, &kFP16, &kFP22};

std::uint64_t
dbits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Bit equality, except any NaN matches any NaN. */
bool
sameBits(double a, double b)
{
    return dbits(a) == dbits(b) || (std::isnan(a) && std::isnan(b));
}

void
expectBitEqual(const Matrix &got, const Matrix &want, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            ASSERT_TRUE(sameBits(got.at(r, c), want.at(r, c)))
                << what << " differs at (" << r << ", " << c
                << "): " << got.at(r, c) << " vs " << want.at(r, c);
        }
    }
}

/** Restores the parallelFor width cap on scope exit. */
struct WidthGuard
{
    explicit WidthGuard(std::size_t w) { setParallelForWidth(w); }
    ~WidthGuard() { setParallelForWidth(0); }
};

/** Check the fast codec against the reference for one input. */
void
checkOneInput(const FloatFormat &fmt, const FormatKernels &k, double x)
{
    ASSERT_EQ(encodeFast(k, x), encodeRef(fmt, x))
        << fmt.name << " encode(" << x << ")";
    ASSERT_TRUE(sameBits(quantizeFast(k, x), quantizeRef(fmt, x)))
        << fmt.name << " quantize(" << x << ")";
    ASSERT_TRUE(sameBits(quantizeTruncateFast(k, x),
                         quantizeTruncateRef(fmt, x)))
        << fmt.name << " quantizeTruncate(" << x << ")";
}

TEST(Kernels, DecodeMatchesReferenceForEveryCode)
{
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        EXPECT_EQ(k.hasLut(), fmt->totalBits() <= kMaxLutBits)
            << fmt->name;
        // Formats wider than the LUT limit are sampled with a stride
        // that is coprime to the code count, so every exponent binade
        // and mantissa parity is still visited.
        const std::uint32_t stride = k.hasLut() ? 1 : 97;
        for (std::uint32_t code = 0; code < fmt->codeCount();
             code += stride) {
            ASSERT_TRUE(sameBits(decodeFast(k, code),
                                 decodeRef(*fmt, code)))
                << fmt->name << " code " << code;
        }
    }
}

TEST(Kernels, EncodeMatchesReferenceOnGridAndSpecials)
{
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        const std::uint32_t stride =
            fmt->totalBits() <= kMaxLutBits ? 1 : 97;
        for (std::uint32_t code = 0; code < fmt->codeCount();
             code += stride) {
            const double v = decodeRef(*fmt, code);
            if (!std::isfinite(v)) {
                checkOneInput(*fmt, k, v);
                continue;
            }
            // The representable value itself, its neighbourhood, and
            // the tie midpoint with the next-larger magnitude.
            checkOneInput(*fmt, k, v);
            checkOneInput(*fmt, k, std::nextafter(v, 1e308));
            checkOneInput(*fmt, k, std::nextafter(v, -1e308));
            const double up = decodeRef(*fmt, code + 1);
            if (code + 1 < fmt->codeCount() && std::isfinite(up) &&
                std::signbit(up) == std::signbit(v)) {
                const double mid = (v + up) / 2.0; // exact
                checkOneInput(*fmt, k, mid);
                checkOneInput(*fmt, k, std::nextafter(mid, 1e308));
                checkOneInput(*fmt, k, std::nextafter(mid, -1e308));
            }
        }
    }
}

TEST(Kernels, EncodeMatchesReferenceOnSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double dmin = std::numeric_limits<double>::denorm_min();
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        const double probes[] = {0.0,
                                 -0.0,
                                 inf,
                                 -inf,
                                 nan,
                                 -nan,
                                 dmin,
                                 -dmin,
                                 dmin * 4096,
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::max(),
                                 fmt->maxFinite(),
                                 -fmt->maxFinite(),
                                 std::nextafter(fmt->maxFinite(), inf),
                                 fmt->minSubnormal(),
                                 fmt->minSubnormal() / 2,
                                 fmt->minNormal(),
                                 1.0,
                                 -1.0};
        for (double x : probes)
            checkOneInput(*fmt, k, x);
        // +-0 must keep the sign bit.
        EXPECT_EQ(encodeFast(k, -0.0) >> k.signShift, 1u) << fmt->name;
        EXPECT_EQ(encodeFast(k, 0.0), 0u) << fmt->name;
    }
}

TEST(Kernels, EncodeMatchesReferenceOnRandomBitPatterns)
{
    // Raw 64-bit patterns cover NaN payloads, both infinities, double
    // subnormals, and wild exponents; scaled uniforms concentrate on
    // each format's interesting binades.
    Rng rng(0xfeedbeef);
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        for (int i = 0; i < 20000; ++i) {
            checkOneInput(*fmt, k,
                          std::bit_cast<double>(rng.nextU64()));
        }
        for (int i = 0; i < 40000; ++i) {
            const double u =
                (double)(rng.nextU64() >> 11) * 0x1p-52 - 1.0;
            const int e = (int)rng.nextBounded(80) - 40;
            checkOneInput(*fmt, k, std::ldexp(u, e));
        }
    }
}

// Satellite (b): encode() and quantize() both round ties to even.
// Every midpoint between adjacent representable values of every 8-bit
// format must land on the even-mantissa neighbour, through both the
// value path and the code path.
TEST(Kernels, TiesRoundToEvenOnEveryCodeMidpoint)
{
    const FloatFormat *const byte_formats[] = {&kE4M3, &kE5M2};
    for (const FloatFormat *fmt : byte_formats) {
        for (std::uint32_t code = 0; code + 1 < fmt->codeCount();
             ++code) {
            const double lo = decode(*fmt, code);
            const double hi = decode(*fmt, code + 1);
            if (!std::isfinite(lo) || !std::isfinite(hi))
                continue;
            if (std::signbit(lo) != std::signbit(hi) ||
                std::fabs(hi) < std::fabs(lo)) {
                continue; // not an adjacent same-sign magnitude pair
            }
            // Adjacent minifloat values: sum and half are exact.
            const double mid = (lo + hi) / 2.0;
            if (mid == lo || mid == hi)
                continue; // degenerate (0 <-> minSubnormal underflow)
            // The mantissa LSB is the code LSB, so exactly one of the
            // pair is even -- that is the one ties must pick.
            const std::uint32_t even =
                (code & 1u) == 0u ? code : code + 1;
            EXPECT_EQ(encode(*fmt, mid), even)
                << fmt->name << " encode midpoint of codes " << code
                << "/" << code + 1;
            EXPECT_EQ(dbits(quantize(*fmt, mid)),
                      dbits(decode(*fmt, even)))
                << fmt->name << " quantize midpoint of codes " << code
                << "/" << code + 1;
        }
    }
}

TEST(Kernels, SpanApisMatchScalarReference)
{
    Rng rng(42);
    std::vector<double> in(1537); // odd length, not a tile multiple
    for (double &x : in) {
        const double u = (double)(rng.nextU64() >> 11) * 0x1p-52 - 1.0;
        x = std::ldexp(u, (int)rng.nextBounded(40) - 20);
    }
    in[0] = 0.0;
    in[1] = -0.0;
    in[2] = std::numeric_limits<double>::infinity();
    in[3] = std::numeric_limits<double>::quiet_NaN();

    for (const FloatFormat *fmt : kAllFormats) {
        std::vector<std::uint32_t> codes(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            codes[i] = encode(*fmt, in[i]);
        std::vector<double> quant(in.size());
        quantizeSpan(*fmt, in, quant.data());
        std::vector<double> dec(in.size());
        decodeSpan(*fmt, codes, dec.data());
        for (std::size_t i = 0; i < in.size(); ++i) {
            ASSERT_EQ(codes[i], encodeRef(*fmt, in[i]))
                << fmt->name << " i=" << i;
            ASSERT_TRUE(sameBits(quant[i], quantizeRef(*fmt, in[i])))
                << fmt->name << " i=" << i;
            ASSERT_TRUE(sameBits(dec[i], decodeRef(*fmt, codes[i])))
                << fmt->name << " i=" << i;
        }
    }
}

// Reference QuantizedMatrix: the original per-element two-pass
// algorithm, built on the reference codec.
struct RefQuantized
{
    std::vector<std::uint32_t> codes;
    std::vector<double> scales;
};

RefQuantized
refQuantize(const Matrix &m, const FloatFormat &fmt, Granularity g,
            std::size_t tile)
{
    const std::size_t rows = m.rows(), cols = m.cols();
    const std::size_t tiles_x = (cols + tile - 1) / tile;
    const std::size_t tiles_y = (rows + tile - 1) / tile;
    std::size_t scale_cols = 1, nscales = 1;
    if (g == Granularity::TILE_1X128) {
        scale_cols = tiles_x;
        nscales = rows * tiles_x;
    } else if (g == Granularity::BLOCK_128X128) {
        scale_cols = tiles_x;
        nscales = tiles_y * tiles_x;
    }
    auto scale_index = [&](std::size_t r, std::size_t c) -> std::size_t {
        switch (g) {
          case Granularity::PER_TENSOR:
            return 0;
          case Granularity::TILE_1X128:
            return r * scale_cols + c / tile;
          case Granularity::BLOCK_128X128:
            return (r / tile) * scale_cols + c / tile;
        }
        return 0;
    };

    RefQuantized out;
    std::vector<double> amax(nscales, 0.0);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            std::size_t idx = scale_index(r, c);
            amax[idx] = std::max(amax[idx], std::fabs(m.at(r, c)));
        }
    out.scales.resize(nscales);
    for (std::size_t i = 0; i < nscales; ++i)
        out.scales[i] = amax[i] > 0.0 ? amax[i] / fmt.maxFinite() : 1.0;

    out.codes.resize(rows * cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            double s = out.scales[scale_index(r, c)];
            out.codes[r * cols + c] = encodeRef(fmt, m.at(r, c) / s);
        }
    return out;
}

TEST(Kernels, QuantizedMatrixMatchesReference)
{
    Rng rng(7);
    const Granularity grans[] = {Granularity::PER_TENSOR,
                                 Granularity::TILE_1X128,
                                 Granularity::BLOCK_128X128};
    const struct
    {
        std::size_t rows, cols, tile;
    } shapes[] = {{1, 1, 128},   {13, 37, 128}, {5, 128, 128},
                  {129, 131, 128}, {64, 256, 16}, {128, 128, 128}};
    for (const FloatFormat *fmt : {&kE4M3, &kE5M2, &kBF16}) {
        for (auto g : grans) {
            for (const auto &sh : shapes) {
                Matrix m(sh.rows, sh.cols);
                m.fillActivationLike(rng, 1.0, 0.02, 100.0);
                m.at(0, 0) = 0.0; // exercise the all-zero scale guard

                QuantizedMatrix q(m, *fmt, g, sh.tile);
                RefQuantized ref = refQuantize(m, *fmt, g, sh.tile);
                ASSERT_TRUE(std::equal(q.codes().begin(),
                                       q.codes().end(),
                                       ref.codes.begin(),
                                       ref.codes.end()))
                    << fmt->name << " " << granularityName(g) << " "
                    << sh.rows << "x" << sh.cols;
                ASSERT_EQ(q.scaleGrid().size(), ref.scales.size());
                for (std::size_t i = 0; i < ref.scales.size(); ++i)
                    ASSERT_EQ(dbits(q.scaleGrid()[i]),
                              dbits(ref.scales[i]))
                        << fmt->name << " scale " << i;

                // dequantize() must equal element-wise value(), which
                // in turn is rawValue * scale of the reference codes.
                Matrix deq = q.dequantize();
                for (std::size_t r = 0; r < sh.rows; ++r)
                    for (std::size_t c = 0; c < sh.cols; ++c)
                        ASSERT_TRUE(
                            sameBits(deq.at(r, c), q.value(r, c)))
                            << fmt->name << " (" << r << "," << c
                            << ")";
            }
        }
    }
}

TEST(Kernels, QuantizedMatrixDecodeRawIntoMatchesRawValue)
{
    Rng rng(11);
    Matrix m(37, 130);
    m.fillNormal(rng);
    QuantizedMatrix q(m, kE4M3, Granularity::TILE_1X128, 128);
    std::vector<double> raw(m.rows() * m.cols());
    q.decodeRawInto(raw.data());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            ASSERT_TRUE(sameBits(raw[r * m.cols() + c],
                                 q.rawValue(r, c)));
}

TEST(Kernels, GemmQuantizedMatchesScalarReferenceAtAnyWidth)
{
    Rng rng(3);
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{8, 128, 8}, {7, 130, 9}, {1, 32, 5}, {17, 257, 3}};
    const std::size_t widths[] = {1, 2, 0};

    for (const auto &sh : shapes) {
        Matrix a(sh.m, sh.k), b(sh.k, sh.n);
        a.fillActivationLike(rng, 1.0, 0.02, 100.0);
        b.fillNormal(rng);

        for (const FloatFormat *fmt : {&kE4M3, &kE5M2}) {
            GemmOptions opt;
            opt.fmt = fmt;
            for (AccumMode mode : {AccumMode::FP32, AccumMode::FP22,
                                   AccumMode::FP22_NO_PROMOTION}) {
                opt.accum = mode;
                opt.fineGrained =
                    mode != AccumMode::FP22_NO_PROMOTION;
                for (const std::size_t tile_k : {64, 128}) {
                    for (const std::size_t group : {32, 48, 96}) {
                        opt.tileK = tile_k;
                        opt.groupSize = group;
                        const std::string what =
                            std::string(accumModeName(mode)) +
                            " tileK=" + std::to_string(tile_k) +
                            " group=" + std::to_string(group);
                        Matrix want = gemmQuantizedRef(a, b, opt);
                        for (std::size_t w : widths) {
                            WidthGuard guard(w);
                            Matrix got = gemmQuantized(a, b, opt);
                            expectBitEqual(got, want, what.c_str());
                        }
                    }
                }
            }
        }
    }
}

TEST(Kernels, GemmBf16AndRefMatchScalarReferenceAtAnyWidth)
{
    Rng rng(5);
    Matrix a(13, 67), b(67, 19);
    a.fillNormal(rng);
    b.fillActivationLike(rng, 1.0, 0.02, 50.0);
    Matrix want_bf16 = gemmBf16Ref(a, b);
    Matrix want_ref = gemmRefScalar(a, b);
    for (std::size_t w : {std::size_t{1}, std::size_t{2},
                          std::size_t{0}}) {
        WidthGuard guard(w);
        expectBitEqual(gemmBf16(a, b), want_bf16, "gemmBf16");
        expectBitEqual(gemmRef(a, b), want_ref, "gemmRef");
    }
}

// Reference LogFMT encoder: the original per-element implementation
// (including the per-element candidate decode in linear rounding).
// Uses the same pinned log/exp as the product code -- the reference
// pins the OPERATION ORDER, while fastmath pins the transcendental
// result bits, and both are needed for byte equality.
LogFmtTile
refLogFmtEncode(std::span<const double> values, int bits,
                LogFmtRounding rounding, double max_range_ln)
{
    LogFmtTile tile;
    tile.bits = bits;
    tile.codes.resize(values.size(), 0);

    double min_log = 0.0, max_log = 0.0;
    bool any = false;
    for (double x : values) {
        if (x == 0.0 || !std::isfinite(x))
            continue;
        double l = fastmath::logAbsPinned(x);
        if (!any) {
            min_log = max_log = l;
            any = true;
        } else {
            min_log = std::min(min_log, l);
            max_log = std::max(max_log, l);
        }
    }
    if (!any)
        return tile;
    min_log = std::max(min_log, max_log - max_range_ln);

    const std::uint32_t k_max = (1u << (bits - 1)) - 1;
    const double step = k_max > 1
        ? (max_log - min_log) / (double)(k_max - 1) : 0.0;
    tile.minLog = min_log;
    tile.step = step;
    auto decode_mag = [&](std::uint32_t k) {
        return k == 0 ? 0.0
                      : fastmath::expPinned(min_log +
                                            step * (double)(k - 1));
    };

    const std::uint32_t sign_bit = 1u << (bits - 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
        double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue;
        std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        double mag = std::fabs(x);
        double l = fastmath::logAbsPinned(x);
        std::uint32_t k;
        if (step == 0.0) {
            k = 1;
        } else {
            double k_real = (l - min_log) / step + 1.0;
            if (rounding == LogFmtRounding::LOG_SPACE) {
                long rounded = std::lround(k_real);
                k = (std::uint32_t)std::clamp<long>(rounded, 1,
                                                    (long)k_max);
            } else {
                double fl = std::floor(k_real);
                long lo = std::clamp<long>((long)fl, 1, (long)k_max);
                long hi = std::clamp<long>(lo + 1, 1, (long)k_max);
                double v_lo = decode_mag((std::uint32_t)lo);
                double v_hi = decode_mag((std::uint32_t)hi);
                k = std::fabs(mag - v_lo) <= std::fabs(v_hi - mag)
                    ? (std::uint32_t)lo : (std::uint32_t)hi;
            }
        }
        tile.codes[i] = sign | k;
    }
    return tile;
}

TEST(Kernels, LogFmtMatchesScalarReference)
{
    Rng rng(9);
    std::vector<double> values(1000);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double u = (double)(rng.nextU64() >> 11) * 0x1p-52 - 1.0;
        values[i] = std::ldexp(u, (int)rng.nextBounded(120) - 60);
    }
    // Zeros, non-finites, and a constant run (step == 0 inside its
    // own tile would need the whole tile constant; covered below).
    values[0] = 0.0;
    values[17] = -0.0;
    values[33] = std::numeric_limits<double>::infinity();
    values[51] = std::numeric_limits<double>::quiet_NaN();

    const double range_ln = 32.0 * std::log(2.0);
    for (int bits : {3, 4, 8, 10, 16}) {
        for (LogFmtRounding r : {LogFmtRounding::LINEAR_SPACE,
                                 LogFmtRounding::LOG_SPACE}) {
            LogFmtCodec codec(bits, r);
            for (std::size_t lo = 0; lo < values.size(); lo += 128) {
                std::size_t hi = std::min(values.size(), lo + 128);
                std::span<const double> tile_in(values.data() + lo,
                                                hi - lo);
                LogFmtTile got = codec.encode(tile_in);
                LogFmtTile want =
                    refLogFmtEncode(tile_in, bits, r, range_ln);
                ASSERT_EQ(got.codes, want.codes)
                    << "bits=" << bits << " tile@" << lo;
                ASSERT_EQ(dbits(got.minLog), dbits(want.minLog));
                ASSERT_EQ(dbits(got.step), dbits(want.step));

                // Decode: every element reconstructed from the same
                // exp() expression the reference uses.
                std::vector<double> dec = codec.decode(got);
                const std::uint32_t sign_bit = 1u << (bits - 1);
                for (std::size_t i = 0; i < dec.size(); ++i) {
                    std::uint32_t k = want.codes[i] & (sign_bit - 1);
                    double mag = k == 0
                        ? 0.0
                        : fastmath::expPinned(
                              want.minLog +
                              want.step * (double)(k - 1));
                    double expect = (want.codes[i] & sign_bit)
                        ? -mag : mag;
                    ASSERT_TRUE(sameBits(dec[i], expect))
                        << "bits=" << bits << " i=" << i;
                }
            }
        }
    }

    // Degenerate tiles: all zero, and single repeated magnitude.
    LogFmtCodec codec(8);
    std::vector<double> zeros(64, 0.0);
    LogFmtTile zt = codec.encode(zeros);
    for (std::uint32_t c : zt.codes)
        EXPECT_EQ(c, 0u);
    std::vector<double> constant(64, -3.25);
    LogFmtTile ct = codec.encode(constant);
    std::vector<double> cdec = codec.decode(ct);
    for (double v : cdec)
        EXPECT_TRUE(sameBits(v, -3.25));
}

TEST(Kernels, LogFmtRoundTripMatchesTiledEncodeDecode)
{
    Rng rng(13);
    std::vector<double> values(777); // odd tail tile
    for (double &x : values) {
        const double u = (double)(rng.nextU64() >> 11) * 0x1p-52 - 1.0;
        x = std::ldexp(u, (int)rng.nextBounded(30) - 15);
    }
    LogFmtCodec codec(8);
    std::vector<double> rt = codec.roundTrip(values, 128);
    ASSERT_EQ(rt.size(), values.size());
    for (std::size_t lo = 0; lo < values.size(); lo += 128) {
        std::size_t hi = std::min(values.size(), lo + 128);
        LogFmtTile tile = codec.encode(
            std::span<const double>(values.data() + lo, hi - lo));
        std::vector<double> dec = codec.decode(tile);
        for (std::size_t i = 0; i < dec.size(); ++i)
            ASSERT_TRUE(sameBits(rt[lo + i], dec[i]));
    }
}

} // namespace
} // namespace dsv3::numerics
