/**
 * @file
 * Differential and checkpoint tests for the Alloy frame store.
 *
 * AlloyFrames (one packed word per direct-mapped frame) replaced a
 * 1-way LRU AssocCache as the Alloy cache's tag store. The
 * differential suite replays pinned-RNG streams of lookups, installs
 * and dirty updates through both and requires identical set mapping,
 * presence, dirty bits and victims at every step, for power-of-two and
 * other set counts and for block numbers near the 2^58 tag limit. The
 * checkpoint tests pin the round trip and the refusal of malformed
 * frame words.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/assoc_cache.hh"
#include "ckpt/serializer.hh"
#include "common/rng.hh"
#include "memside/alloy_cache.hh"

namespace dapsim
{
namespace
{

/** The per-line value the Alloy directory used to carry. */
struct OldLine
{
    bool dirty = false;
};

/** Block numbers to draw from: a pool about twice the frame count so
 *  streams see hits and conflict evictions, with a third of it just
 *  below the 2^58 tag limit and a third anywhere below it. */
std::vector<std::uint64_t>
blockPool(Rng &rng, std::uint64_t sets)
{
    std::vector<std::uint64_t> pool;
    const std::uint64_t n = 2 * sets + 5;
    for (std::uint64_t i = 0; i < n; ++i) {
        switch (i % 3) {
          case 0:
            pool.push_back(rng.below(1 << 20));
            break;
          case 1:
            pool.push_back(AlloyFrames::kTagMask - rng.below(1 << 16));
            break;
          default:
            pool.push_back(rng.next() & AlloyFrames::kTagMask);
            break;
        }
    }
    return pool;
}

class AlloyFramesDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AlloyFramesDiff, MatchesOneWayLruDirectory)
{
    const std::uint64_t sets = GetParam();
    AlloyFrames frames(sets);
    AssocCache<OldLine> ref(sets, 1, ReplPolicy::LRU);
    Rng rng(0xa110c + sets);
    const std::vector<std::uint64_t> pool = blockPool(rng, sets);

    std::uint64_t hits = 0, dirtyVictims = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t block = pool[rng.below(pool.size())];
        const std::uint64_t set = frames.setOf(block);
        ASSERT_EQ(set, ref.mapSet(indexHash(block))) << "step " << step;

        OldLine *l = ref.find(set, block);
        const bool present = AlloyFrames::holds(frames[set], block);
        ASSERT_EQ(present, l != nullptr) << "step " << step;
        if (present) {
            ++hits;
            ASSERT_EQ(AlloyFrames::dirty(frames[set]), l->dirty)
                << "step " << step;
        }

        const bool dirty = rng.below(2) != 0;
        if (!present) {
            // Install (clean, as a fill or warm miss does), then maybe
            // dirty it (a write miss or a warm write).
            const auto victim = ref.insert(set, block, OldLine{});
            const std::uint64_t w = frames.install(set, block);
            ASSERT_EQ(AlloyFrames::valid(w), victim.valid)
                << "step " << step;
            if (victim.valid) {
                ASSERT_EQ(AlloyFrames::tagOf(w), victim.tag)
                    << "step " << step;
                ASSERT_EQ(AlloyFrames::dirty(w), victim.value.dirty)
                    << "step " << step;
                dirtyVictims += victim.value.dirty;
            } else {
                ASSERT_EQ(w, 0u) << "step " << step;
            }
            l = ref.find(set, block);
        }
        // A write hit, write-through or warm write updates the bit.
        if (rng.below(3) != 0) {
            l->dirty = dirty;
            frames[set] = AlloyFrames::word(block, dirty);
        }
    }
    // The stream exercised both sides of every compare.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(dirtyVictims, 100u);

    // End state: a frame is valid exactly where the old directory
    // holds a line, and each valid frame is that line with its dirty
    // bit.
    for (std::uint64_t s = 0; s < sets; ++s) {
        const std::uint64_t w = frames[s];
        ASSERT_EQ(AlloyFrames::valid(w) ? 1u : 0u, ref.occupancy(s))
            << "set " << s;
        if (!AlloyFrames::valid(w))
            continue;
        const OldLine *line = ref.find(s, AlloyFrames::tagOf(w));
        ASSERT_NE(line, nullptr) << "set " << s;
        EXPECT_EQ(AlloyFrames::dirty(w), line->dirty) << "set " << s;
        EXPECT_EQ(w & AlloyFrames::kReserved, 0u) << "set " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(SetCounts, AlloyFramesDiff,
                         ::testing::Values(1u, 7u, 1000u, 1024u, 4096u));

TEST(AlloyFrames, WordLayout)
{
    const std::uint64_t top = AlloyFrames::kTagMask;
    EXPECT_EQ(AlloyFrames::word(top, true),
              AlloyFrames::kValid | AlloyFrames::kDirty | top);
    EXPECT_TRUE(AlloyFrames::holds(AlloyFrames::word(top, true), top));
    EXPECT_TRUE(AlloyFrames::holds(AlloyFrames::word(top, false), top));
    EXPECT_FALSE(AlloyFrames::holds(0, 0)); // empty frame holds nothing
    EXPECT_EQ(AlloyFrames::kReserved, std::uint64_t(0xf) << 58);
}

/** A store with a mix of empty, clean and dirty frames. */
AlloyFrames
filledFrames(std::uint64_t sets)
{
    AlloyFrames f(sets);
    for (std::uint64_t b = 0; b < sets; b += 3) {
        const std::uint64_t set = f.setOf(b);
        f.install(set, b);
        if (b % 2)
            f[set] |= AlloyFrames::kDirty;
    }
    return f;
}

class AlloyFramesCkpt : public ::testing::Test
{
  protected:
    std::vector<std::uint8_t>
    saved(const AlloyFrames &f) const
    {
        ckpt::Serializer s;
        f.save(s);
        return s.buffer();
    }

    void
    restoreInto(AlloyFrames &f, const std::vector<std::uint8_t> &b) const
    {
        ckpt::Deserializer d(b);
        f.restore(d);
        EXPECT_TRUE(d.atEnd());
    }

    /** @p b with frame @p i's word replaced by @p w. */
    static std::vector<std::uint8_t>
    withWord(std::vector<std::uint8_t> b, std::size_t i, std::uint64_t w)
    {
        const std::size_t at = 8 + 8 * i; // after the u64 frame count
        for (int k = 0; k < 8; ++k)
            b[at + k] = static_cast<std::uint8_t>(w >> (8 * k));
        return b;
    }
};

TEST_F(AlloyFramesCkpt, RoundTripsEveryFrame)
{
    const AlloyFrames a = filledFrames(100);
    const std::vector<std::uint8_t> b = saved(a);
    EXPECT_EQ(b.size(), 8u + 8u * 100u);
    AlloyFrames r(100);
    restoreInto(r, b);
    for (std::uint64_t s = 0; s < 100; ++s)
        EXPECT_EQ(r[s], a[s]) << "set " << s;
}

TEST_F(AlloyFramesCkpt, RefusesSetCountMismatch)
{
    const std::vector<std::uint8_t> b = saved(filledFrames(100));
    AlloyFrames other(128);
    EXPECT_THROW(restoreInto(other, b), ckpt::CkptError);
}

TEST_F(AlloyFramesCkpt, RefusesReservedBits)
{
    const std::vector<std::uint8_t> b = saved(filledFrames(100));
    for (int bit = 58; bit < 62; ++bit) {
        AlloyFrames r(100);
        EXPECT_THROW(
            restoreInto(r, withWord(b, 3,
                                    AlloyFrames::word(5, false) |
                                        (std::uint64_t(1) << bit))),
            ckpt::CkptError)
            << "bit " << bit;
    }
}

TEST_F(AlloyFramesCkpt, RefusesDirtyWithoutValid)
{
    const std::vector<std::uint8_t> b = saved(filledFrames(100));
    AlloyFrames r(100);
    EXPECT_THROW(restoreInto(r, withWord(b, 7, AlloyFrames::kDirty | 5)),
                 ckpt::CkptError);
    AlloyFrames r2(100);
    EXPECT_THROW(restoreInto(r2, withWord(b, 7, AlloyFrames::kDirty)),
                 ckpt::CkptError);
}

TEST_F(AlloyFramesCkpt, RefusesTagWithoutValid)
{
    const std::vector<std::uint8_t> b = saved(filledFrames(100));
    AlloyFrames r(100);
    EXPECT_THROW(restoreInto(r, withWord(b, 9, 5)), ckpt::CkptError);
}

} // namespace
} // namespace dapsim
