/**
 * @file
 * Unit tests for the generic set-associative directory and SectorMeta.
 */

#include <gtest/gtest.h>

#include "cache/assoc_cache.hh"
#include "cache/sector.hh"

namespace dapsim
{
namespace
{

TEST(AssocCache, MissThenHit)
{
    AssocCache<int> c(4, 2);
    EXPECT_EQ(c.find(0, 10), nullptr);
    c.insert(0, 10, 42);
    ASSERT_NE(c.find(0, 10), nullptr);
    EXPECT_EQ(*c.find(0, 10), 42);
}

TEST(AssocCache, SetsAreIndependent)
{
    AssocCache<int> c(4, 2);
    c.insert(0, 10, 1);
    EXPECT_EQ(c.find(1, 10), nullptr);
}

TEST(AssocCache, LruEvictsLeastRecentlyUsed)
{
    AssocCache<int> c(1, 2, ReplPolicy::LRU);
    c.insert(0, 1, 11);
    c.insert(0, 2, 22);
    c.touch(0, 1); // 2 is now LRU
    const auto v = c.insert(0, 3, 33);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.tag, 2u);
    EXPECT_EQ(v.value, 22);
    EXPECT_NE(c.find(0, 1), nullptr);
}

TEST(AssocCache, NruProtectsReferencedLines)
{
    AssocCache<int> c(1, 4, ReplPolicy::NRU);
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.insert(0, t, static_cast<int>(t));
    c.touch(0, 1);
    c.touch(0, 2);
    // 3 and 4 are not-recently-used; a new insert must evict one.
    const auto v = c.insert(0, 5, 55);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.tag == 3 || v.tag == 4);
    EXPECT_NE(c.find(0, 1), nullptr);
    EXPECT_NE(c.find(0, 2), nullptr);
}

TEST(AssocCache, NruAllReferencedStillFindsVictim)
{
    AssocCache<int> c(1, 2, ReplPolicy::NRU);
    c.insert(0, 1, 1);
    c.insert(0, 2, 2);
    c.touch(0, 1);
    c.touch(0, 2); // touch clears the others when all are referenced
    const auto v = c.insert(0, 3, 3);
    EXPECT_TRUE(v.valid);
}

TEST(AssocCache, InvalidWaysFillBeforeEviction)
{
    AssocCache<int> c(1, 4);
    for (std::uint64_t t = 1; t <= 4; ++t) {
        const auto v = c.insert(0, t, 0);
        EXPECT_FALSE(v.valid) << t;
    }
    EXPECT_TRUE(c.insert(0, 5, 0).valid);
}

TEST(AssocCache, EraseRemoves)
{
    AssocCache<int> c(2, 2);
    c.insert(1, 9, 99);
    EXPECT_TRUE(c.erase(1, 9));
    EXPECT_EQ(c.find(1, 9), nullptr);
    EXPECT_FALSE(c.erase(1, 9));
}

TEST(AssocCache, FlushSetVisitsAndInvalidates)
{
    AssocCache<int> c(2, 4);
    c.insert(0, 1, 10);
    c.insert(0, 2, 20);
    c.insert(1, 3, 30);
    int sum = 0;
    c.flushSet(0, [&](std::uint64_t, int &v) { sum += v; });
    EXPECT_EQ(sum, 30);
    EXPECT_EQ(c.occupancy(0), 0u);
    EXPECT_EQ(c.occupancy(1), 1u);
}

TEST(AssocCacheDeathTest, DuplicateInsertPanics)
{
    AssocCache<int> c(1, 2);
    c.insert(0, 1, 1);
    EXPECT_DEATH(c.insert(0, 1, 2), "duplicate");
}

TEST(AssocCacheDeathTest, OutOfRangeSetPanics)
{
    AssocCache<int> c(4, 2);
    EXPECT_DEATH((void)c.find(4, 0), "range");
}

TEST(SectorMeta, ValidAndDirtyBitmaps)
{
    SectorMeta m;
    EXPECT_FALSE(m.isValid(5));
    m.setValid(5);
    EXPECT_TRUE(m.isValid(5));
    EXPECT_FALSE(m.isDirty(5));
    m.setDirty(5);
    EXPECT_TRUE(m.isDirty(5));
    EXPECT_TRUE(m.isValid(5));
    EXPECT_EQ(m.validCount(), 1u);
    EXPECT_EQ(m.dirtyCount(), 1u);
}

TEST(SectorMeta, SetDirtyImpliesValid)
{
    SectorMeta m;
    m.setDirty(63);
    EXPECT_TRUE(m.isValid(63));
}

TEST(SectorMeta, ClearBlockResetsBoth)
{
    SectorMeta m;
    m.setDirty(3);
    m.clearBlock(3);
    EXPECT_FALSE(m.isValid(3));
    EXPECT_FALSE(m.isDirty(3));
}

TEST(SectorMeta, TouchedMaskIsSeparate)
{
    SectorMeta m;
    m.touch(7);
    EXPECT_EQ(m.touchedMask, 1ULL << 7);
    EXPECT_FALSE(m.isValid(7));
}

TEST(SectorMeta, AnyDirty)
{
    SectorMeta m;
    EXPECT_FALSE(m.anyDirty());
    m.setDirty(0);
    EXPECT_TRUE(m.anyDirty());
}

/** Property sweep: occupancy never exceeds associativity. */
class AssocCacheStress
    : public ::testing::TestWithParam<std::tuple<int, ReplPolicy>>
{
};

TEST_P(AssocCacheStress, OccupancyBounded)
{
    const auto [ways, policy] = GetParam();
    AssocCache<int> c(8, static_cast<std::uint32_t>(ways), policy);
    std::uint64_t x = 99;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ULL + 1;
        const std::uint64_t set = x % 8;
        const std::uint64_t tag = (x >> 8) % 64;
        if (c.find(set, tag) != nullptr)
            c.touch(set, tag);
        else
            c.insert(set, tag, 0);
        EXPECT_LE(c.occupancy(set), static_cast<std::uint32_t>(ways));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocCacheStress,
    ::testing::Combine(::testing::Values(1, 2, 4, 16),
                       ::testing::Values(ReplPolicy::LRU,
                                         ReplPolicy::NRU)));

} // namespace
} // namespace dapsim
