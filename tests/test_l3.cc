/**
 * @file
 * Unit tests for the shared L3 cache.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "memside/sectored_dram_cache.hh"
#include "policy_stub.hh"
#include "sim/l3_cache.hh"

namespace dapsim
{
namespace
{

class L3Test : public ::testing::Test
{
  protected:
    L3Test()
        : mm(eq, presets::ddr4_2400()),
          ms(eq, mm, policy, msConfig()), l3(eq, l3Config(), ms)
    {
    }

    static SectoredDramCacheConfig
    msConfig()
    {
        SectoredDramCacheConfig c;
        c.capacityBytes = 4 * kMiB;
        return c;
    }

    static L3Config
    l3Config()
    {
        L3Config c;
        c.capacityBytes = 64 * kKiB;
        return c;
    }

    bool
    read(Addr a)
    {
        bool fired = false;
        l3.access(a, false, [&] { fired = true; });
        eq.run();
        return fired;
    }

    EventQueue eq;
    DramSystem mm;
    StubPolicy policy;
    SectoredDramCache ms;
    L3Cache l3;
};

TEST_F(L3Test, MissGoesDownHitStaysLocal)
{
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(l3.misses.value(), 1u);
    EXPECT_EQ(ms.readMisses.value(), 1u);
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(l3.hits.value(), 1u);
    EXPECT_EQ(ms.readMisses.value() + ms.readHits.value(), 1u);
}

TEST_F(L3Test, HitLatencyIsTwentyCycles)
{
    read(0x2000);
    Tick t0 = eq.now();
    Tick done = 0;
    l3.access(0x2000, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done - t0, cpuCyclesToTicks(20));
}

TEST_F(L3Test, WritebackAllocatesDirty)
{
    l3.access(0x3000, true, nullptr);
    eq.run();
    EXPECT_EQ(l3.misses.value(), 1u);
    // No traffic reaches the MS$ until the dirty line is evicted.
    EXPECT_EQ(ms.writeHits.value() + ms.writeMisses.value(), 0u);
}

TEST_F(L3Test, DirtyEvictionsBecomeMsWrites)
{
    // Fill the L3 with dirty lines far beyond its capacity.
    const std::uint64_t lines = l3Config().capacityBytes / kBlockBytes;
    for (std::uint64_t i = 0; i < lines * 3; ++i)
        l3.access(static_cast<Addr>(i) * kBlockBytes, true, nullptr);
    eq.run();
    EXPECT_GT(l3.writebacksToMs.value(), 0u);
    EXPECT_GT(ms.writeHits.value() + ms.writeMisses.value(), 0u);
}

TEST_F(L3Test, ReadMissLatencyIsSampled)
{
    read(0x4000);
    EXPECT_EQ(l3.readMissLatency.count(), 1u);
    EXPECT_GT(l3.meanReadMissLatency(),
              static_cast<double>(cpuCyclesToTicks(20)));
}

TEST_F(L3Test, WarmTouchFillsWithoutTiming)
{
    l3.warmTouch(0x5000, false);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(l3.hits.value() + l3.misses.value(), 0u);
    read(0x5000);
    EXPECT_EQ(l3.hits.value(), 1u);
}

TEST_F(L3Test, WarmTouchReportsMsTouchesWithoutCallingTheMs)
{
    const L3Cache::WarmOutcome o = l3.warmTouch(0x7000, false);
    EXPECT_FALSE(o.l3Hit);
    EXPECT_TRUE(o.msRead);
    EXPECT_FALSE(o.msWriteback);
    EXPECT_FALSE(ms.isBlockResident(0x7000)); // the MS$ is untouched
    EXPECT_FALSE(L3Cache::forwardWarm(ms, 0x7000, o)); // cold MS$ miss
    EXPECT_TRUE(ms.isBlockResident(0x7000));
    const L3Cache::WarmOutcome again = l3.warmTouch(0x7000, false);
    EXPECT_TRUE(again.l3Hit);
    EXPECT_FALSE(again.msRead);
}

TEST_F(L3Test, WarmDirtyEvictionsPropagateFunctionally)
{
    const std::uint64_t lines = l3Config().capacityBytes / kBlockBytes;
    std::uint64_t writebacks = 0;
    for (std::uint64_t i = 0; i < lines * 3; ++i) {
        const Addr a = static_cast<Addr>(i) * kBlockBytes;
        const L3Cache::WarmOutcome o = l3.warmTouch(a, true);
        EXPECT_FALSE(o.msRead); // full-block writes fetch nothing
        if (o.msWriteback)
            ++writebacks;
        L3Cache::forwardWarm(ms, a, o);
    }
    // At most `lines` of the 3 * lines dirty blocks stay in the L3;
    // every other one was reported as an MS$ write.
    EXPECT_GE(writebacks, 2 * lines);
    // The evicted dirty lines reached the MS$ warm path.
    EXPECT_TRUE(ms.isBlockResident(0x0));
    read(0x0);
    EXPECT_EQ(ms.readHits.value(), 1u);
}

TEST_F(L3Test, MissRatioTracksCounts)
{
    read(0x6000); // miss
    read(0x6000); // hit
    EXPECT_NEAR(l3.missRatio(), 0.5, 1e-12);
}

/** Crafted value bytes other than 0/1 restore without undefined
 *  behaviour (the dirty flag is a byte, not a bool) and read dirty. */
TEST_F(L3Test, RestoresNonBooleanDirtyBytesAsDirty)
{
    const std::size_t lines = l3Config().capacityBytes / kBlockBytes;
    for (Addr a = 0; a < lines; ++a)
        read(a * kBlockBytes); // clean lines
    ckpt::Serializer s;
    l3.save(s);
    std::vector<std::uint8_t> img = s.buffer();
    // Tail: raw-value tag 1, one byte per line, six 8-byte stats.
    const std::size_t values = img.size() - 6 * 8 - lines;
    ASSERT_EQ(img[values - 1], 1u);
    std::fill_n(img.begin() + values, lines, 2);
    ckpt::Deserializer d(img);
    l3.restore(d);
    EXPECT_TRUE(d.atEnd());
    for (Addr a = lines; a < 3 * lines; ++a)
        read(a * kBlockBytes);
    EXPECT_GT(l3.writebacksToMs.value(), 0u);
}

} // namespace
} // namespace dapsim
