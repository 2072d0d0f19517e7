/**
 * @file
 * Fuzz tests for WinnerTree against a linear scan: random activations,
 * deactivations and key changes at several sizes, lowest-index
 * tie-break, and "none" when every slot is inactive — the contract
 * the serving simulator's dispatch and parked-event indexes rest on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/winner_tree.hh"

namespace dsv3 {
namespace {

using Tree = WinnerTree<std::uint64_t>;

/** Reference: the least active key, first (lowest) index on ties. */
std::size_t
scanTop(const std::vector<bool> &active,
        const std::vector<std::uint64_t> &keys)
{
    std::size_t best = Tree::kNone;
    for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i] && (best == Tree::kNone || keys[i] < keys[best]))
            best = i;
    }
    return best;
}

TEST(WinnerTree, EmptyAndAllInactiveAreNone)
{
    EXPECT_EQ(Tree(0).top(), Tree::kNone);
    Tree t(5);
    EXPECT_EQ(t.top(), Tree::kNone);
    t.set(3, 7);
    EXPECT_EQ(t.top(), 3u);
    t.clear(3);
    EXPECT_EQ(t.top(), Tree::kNone);
    EXPECT_FALSE(t.active(3));
}

TEST(WinnerTree, TiesGoToTheLowestIndex)
{
    Tree t(6);
    for (std::size_t i = 0; i < 6; ++i)
        t.set(5 - i, 4);
    EXPECT_EQ(t.top(), 0u);
    t.clear(0);
    EXPECT_EQ(t.top(), 1u);
    t.set(4, 3);
    EXPECT_EQ(t.top(), 4u);
    t.set(2, 3);
    EXPECT_EQ(t.top(), 2u);
}

TEST(WinnerTree, FuzzAgainstLinearScan)
{
    Rng rng(0x7ee5ull);
    for (std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
        Tree t(n);
        std::vector<bool> active(n, false);
        std::vector<std::uint64_t> keys(n, 0);
        for (int op = 0; op < 20000; ++op) {
            const std::size_t i = rng.nextBounded(n);
            // Few distinct keys so ties are common; bias toward
            // activation so the tree is rarely empty but sometimes is.
            if (rng.bernoulli(0.3)) {
                t.clear(i);
                active[i] = false;
            } else {
                keys[i] = rng.nextBounded(8);
                t.set(i, keys[i]);
                active[i] = true;
            }
            ASSERT_EQ(t.top(), scanTop(active, keys))
                << "n=" << n << " op=" << op;
            ASSERT_EQ(t.active(i), active[i]);
            if (active[i]) {
                ASSERT_EQ(t.key(i), keys[i]);
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            t.clear(i);
        EXPECT_EQ(t.top(), Tree::kNone) << "n=" << n;
    }
}

TEST(WinnerTree, PairKeysOrderLexicographically)
{
    // The parked-event index keys slots by (time, order).
    WinnerTree<std::pair<double, std::uint64_t>> t(3);
    t.set(0, {2.0, 5});
    t.set(1, {1.0, 9});
    t.set(2, {1.0, 4});
    EXPECT_EQ(t.top(), 2u);
    t.clear(2);
    EXPECT_EQ(t.top(), 1u);
    t.set(1, {3.0, 1});
    EXPECT_EQ(t.top(), 0u);
}

} // namespace
} // namespace dsv3
