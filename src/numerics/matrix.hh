/**
 * @file
 * Minimal dense row-major matrix of doubles used by the numerics
 * experiments. This is deliberately not a linear-algebra library; it
 * exists to carry operands through the quantized-GEMM emulation.
 */

#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "common/rng.hh"

namespace dsv3::numerics {

namespace detail {

/** Over-aligned allocation shim (definitions in matrix.cc). */
void *alignedAlloc(std::size_t bytes, std::size_t align);
void alignedFree(void *p, std::size_t align) noexcept;

} // namespace detail

/**
 * Minimal std allocator returning @p Align -byte-aligned storage.
 * Matrix payloads, quantized code planes, and the GEMM packed panels
 * use it at 64 bytes so a full cache line -- and therefore any
 * aligned vector register width up to 512 bits -- can be loaded from
 * element 0 of every row-major buffer the SIMD kernels stream over.
 *
 * Elements inserted without a value are default-initialized: an
 * AlignedVector<double>(n) or resize(n) leaves its doubles unwritten
 * (no zero-fill pass over a panel the kernels then overwrite), so
 * every such buffer must be written before it is read.
 */
template <typename T, std::size_t Align = 64>
struct AlignedAlloc
{
    static_assert((Align & (Align - 1)) == 0, "Align: power of two");
    using value_type = T;

    AlignedAlloc() = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, Align> &) noexcept
    {}

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            detail::alignedAlloc(n * sizeof(T), Align));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        detail::alignedFree(p, Align);
    }

    /** Insertion with a value falls back to allocator_traits. */
    template <typename U>
    void construct(U *p) noexcept
    {
        ::new ((void *)p) U;
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAlloc<U, Align>;
    };
};

template <typename T, typename U, std::size_t Align>
bool
operator==(const AlignedAlloc<T, Align> &, const AlignedAlloc<U, Align> &)
{
    return true;
}

/** Cache-line-aligned vector (the SIMD kernels' native operand). */
template <typename T>
using AlignedVector = std::vector<T, AlignedAlloc<T>>;

class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &at(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    const AlignedVector<double> &data() const { return data_; }
    AlignedVector<double> &data() { return data_; }

    /** Fill with N(mean, stddev) samples. */
    void fillNormal(Rng &rng, double mean = 0.0, double stddev = 1.0);

    /** Fill with U[lo, hi) samples. */
    void fillUniform(Rng &rng, double lo, double hi);

    /**
     * Fill with an activation-like heavy-tailed distribution: normal
     * body with a fraction of outliers scaled by @p outlier_gain. LLM
     * activations have rare large-magnitude channels; this is what
     * makes per-tensor FP8 scaling lossy and motivates the paper's
     * fine-grained (1x128 / 128x128) quantization.
     */
    void fillActivationLike(Rng &rng, double stddev = 1.0,
                            double outlier_prob = 0.002,
                            double outlier_gain = 50.0);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    AlignedVector<double> data_;
};

} // namespace dsv3::numerics
