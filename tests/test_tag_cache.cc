/**
 * @file
 * Unit tests for the SRAM tag cache (MS$ metadata filter).
 */

#include <gtest/gtest.h>

#include "cache/tag_cache.hh"

namespace dapsim
{
namespace
{

TagCacheConfig
smallConfig()
{
    TagCacheConfig c;
    c.entries = 16;
    c.ways = 4;
    return c;
}

TEST(TagCache, FirstAccessMissesThenHits)
{
    TagCache tc(smallConfig());
    EXPECT_FALSE(tc.access(3).hit);
    EXPECT_TRUE(tc.access(3).hit);
    EXPECT_EQ(tc.hits.value(), 1u);
    EXPECT_EQ(tc.misses.value(), 1u);
}

TEST(TagCache, ContainsDoesNotAllocate)
{
    TagCache tc(smallConfig());
    EXPECT_FALSE(tc.contains(7));
    EXPECT_FALSE(tc.contains(7));
    EXPECT_FALSE(tc.access(7).hit); // still a miss: probe didn't allocate
}

TEST(TagCache, DirtyEvictionRequiresWriteback)
{
    TagCacheConfig c;
    c.entries = 4; // 1 set x 4 ways
    c.ways = 4;
    TagCache tc(c);
    tc.access(0);
    tc.markDirty(0);
    // Fill the set and overflow it.
    tc.access(1);
    tc.access(2);
    tc.access(3);
    bool saw_writeback = false;
    for (std::uint64_t s = 4; s < 8; ++s)
        saw_writeback |= tc.access(s).writebackNeeded;
    EXPECT_TRUE(saw_writeback);
    EXPECT_GE(tc.writebacks.value(), 1u);
}

TEST(TagCache, CleanEvictionNeedsNoWriteback)
{
    TagCacheConfig c;
    c.entries = 4;
    c.ways = 4;
    TagCache tc(c);
    for (std::uint64_t s = 0; s < 12; ++s)
        EXPECT_FALSE(tc.access(s).writebackNeeded) << s;
    EXPECT_EQ(tc.writebacks.value(), 0u);
}

TEST(TagCache, MarkDirtyOnAbsentEntryIsIgnored)
{
    TagCache tc(smallConfig());
    tc.markDirty(99); // not resident: no crash, no effect
    EXPECT_FALSE(tc.contains(99));
}

TEST(TagCache, DisabledAlwaysMisses)
{
    TagCacheConfig c = smallConfig();
    c.enabled = false;
    TagCache tc(c);
    EXPECT_FALSE(tc.access(1).hit);
    EXPECT_FALSE(tc.access(1).hit);
    EXPECT_EQ(tc.missRatio(), 1.0);
}

TEST(TagCache, MissRatioTracksCounts)
{
    TagCache tc(smallConfig());
    tc.access(1); // miss
    tc.access(1); // hit
    tc.access(1); // hit
    tc.access(2); // miss
    EXPECT_NEAR(tc.missRatio(), 0.5, 1e-12);
}

TEST(TagCache, CapacityThrashingRaisesMissRatio)
{
    TagCache tc(smallConfig()); // 16 entries
    // Cycle through 64 distinct sets twice: everything misses.
    for (int round = 0; round < 2; ++round)
        for (std::uint64_t s = 0; s < 64; ++s)
            tc.access(s * 16); // same tag-cache set, distinct tags
    EXPECT_GT(tc.missRatio(), 0.9);
}

/** A crafted value byte other than 0/1 restores without undefined
 *  behaviour (the dirty flag is a byte, not a bool) and reads dirty. */
TEST(TagCache, RestoresNonBooleanDirtyByteAsDirty)
{
    TagCacheConfig c;
    c.entries = 4; // 1 set x 4 ways
    c.ways = 4;
    TagCache tc(c), back(c);
    tc.access(0); // clean, way 0
    ckpt::Serializer s;
    tc.save(s);
    std::vector<std::uint8_t> img = s.buffer();
    // Tail: raw-value tag 1, four value bytes, three u64 counters.
    ASSERT_EQ(img[img.size() - 24 - 5], 1u);
    img[img.size() - 24 - 4] = 2;
    ckpt::Deserializer d(img);
    back.restore(d);
    EXPECT_TRUE(d.atEnd());
    for (std::uint64_t set = 1; set < 4; ++set)
        back.access(set);
    EXPECT_TRUE(back.access(4).writebackNeeded); // evicts set 0's entry
}

} // namespace
} // namespace dapsim
