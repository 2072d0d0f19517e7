/**
 * @file
 * Allocation-shy sequence containers for simulator hot loops.
 *
 * SmallVec<T, N>: a vector with N elements of inline storage. The
 * serving simulator's per-engine resident sets are nearly always
 * tiny; keeping them inline removes the per-engine heap churn that
 * dominated commitStep() profiles. Spills to the heap beyond N and
 * stays there (capacity never shrinks), so a warmed-up engine
 * allocates nothing per step.
 *
 * FlatDeque<T>: a power-of-two ring-buffer deque (push_back /
 * pop_front / random access). std::deque allocates ~512-byte chunks
 * as queues slosh; the ring reuses one buffer forever.
 *
 * Both require trivially copyable T (they memmove on growth) — the
 * simulator stores ids and small PODs.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace dsv3 {

template <typename T, std::size_t N>
class SmallVec
{
    static_assert(N >= 1, "SmallVec needs at least one inline slot");
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec requires trivially copyable T");

  public:
    SmallVec() = default;

    SmallVec(const SmallVec &other) { *this = other; }

    SmallVec &
    operator=(const SmallVec &other)
    {
        if (this == &other)
            return *this;
        size_ = 0;
        reserve(other.size_);
        std::memcpy(data(), other.data(), other.size_ * sizeof(T));
        size_ = other.size_;
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    T *data() { return cap_ > N ? heap_.data() : inline_; }
    const T *
    data() const
    {
        return cap_ > N ? heap_.data() : inline_;
    }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    void clear() { size_ = 0; }

    void
    reserve(std::size_t want)
    {
        if (want <= cap_)
            return;
        std::size_t cap = cap_;
        while (cap < want)
            cap *= 2;
        std::vector<T> grown(cap);
        std::memcpy(grown.data(), data(), size_ * sizeof(T));
        heap_ = std::move(grown);
        cap_ = cap;
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            reserve(size_ + 1);
        data()[size_++] = v;
    }

    void
    pop_back()
    {
        DSV3_ASSERT(size_ > 0);
        --size_;
    }

    /** Drop to @p n elements (n <= size()); keeps capacity. */
    void
    truncate(std::size_t n)
    {
        DSV3_ASSERT(n <= size_);
        size_ = n;
    }

  private:
    T inline_[N];
    std::vector<T> heap_;
    std::size_t size_ = 0;
    std::size_t cap_ = N;
};

template <typename T>
class FlatDeque
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "FlatDeque requires trivially copyable T");

  public:
    explicit FlatDeque(std::size_t initialCap = 8)
    {
        std::size_t cap = 4;
        while (cap < initialCap)
            cap <<= 1;
        buf_.resize(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    T &
    operator[](std::size_t i)
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    void
    push_front(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
        buf_[head_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        DSV3_ASSERT(size_ > 0);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    pop_back()
    {
        DSV3_ASSERT(size_ > 0);
        --size_;
    }

  private:
    void
    grow()
    {
        std::vector<T> grown(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = (*this)[i];
        buf_ = std::move(grown);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dsv3
