/**
 * @file
 * WinnerTree<Key>: the least key over a fixed set of slots, each
 * either inactive or holding a key, as a tournament tree. Every
 * internal node stores the index of the winning slot of its subtree
 * (least key, ties to the left subtree, so the lowest index wins a
 * tie), which makes the query O(1) and a slot update one replay of
 * the O(log n) matches on its path to the root.
 *
 * The serving simulator keeps two: the dispatch index (engine load
 * over admitting engines) and the parked engine-event index ((time,
 * order) over live slots), replacing a scan of every engine per
 * request and per event. The flow engine keeps one over edge ids
 * keyed by fair share, picking each water-fill bottleneck.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dsv3 {

template <typename Key>
class WinnerTree
{
  public:
    static constexpr std::size_t kNone = (std::size_t)-1;

    explicit WinnerTree(std::size_t n = 0) { reset(n); }

    /** @p n slots, all inactive. */
    void
    reset(std::size_t n)
    {
        leaves_ = 1;
        while (leaves_ < n)
            leaves_ *= 2;
        keys_.assign(n, Key{});
        win_.assign(2 * leaves_, kNone);
    }

    /** Active slot with the least key, lowest index on ties; kNone
     *  when every slot is inactive. */
    std::size_t top() const { return win_[1]; }

    bool active(std::size_t i) const { return win_[leaves_ + i] != kNone; }

    /** Last key set on slot @p i (meaningful while active). */
    const Key &key(std::size_t i) const { return keys_[i]; }

    /** Activate slot @p i with @p key, or re-key it. */
    void
    set(std::size_t i, const Key &key)
    {
        keys_[i] = key;
        win_[leaves_ + i] = i;
        replay(i);
    }

    /** Deactivate slot @p i. */
    void
    clear(std::size_t i)
    {
        win_[leaves_ + i] = kNone;
        replay(i);
    }

  private:
    void
    replay(std::size_t i)
    {
        for (std::size_t p = (leaves_ + i) / 2; p >= 1; p /= 2) {
            const std::size_t a = win_[2 * p];
            const std::size_t b = win_[2 * p + 1];
            win_[p] = a == kNone || (b != kNone && keys_[b] < keys_[a])
                          ? b
                          : a;
        }
    }

    std::size_t leaves_ = 1;       //!< power of two >= slot count
    std::vector<Key> keys_;
    std::vector<std::size_t> win_; //!< heap-ordered; leaves at leaves_
};

} // namespace dsv3
