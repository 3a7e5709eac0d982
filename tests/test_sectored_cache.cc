/**
 * @file
 * Unit tests for the sectored memory-side cache controller, in both
 * configurations it models: the HBM DRAM cache and the eDRAM cache.
 */

#include <gtest/gtest.h>

#include "dram/presets.hh"
#include "memside/sectored_dram_cache.hh"
#include "policy_stub.hh"

namespace dapsim
{
namespace
{

/** The sectored architectures under test. */
enum class Arch
{
    Hbm,
    Edram,
};

const char *
archName(Arch arch)
{
    return arch == Arch::Hbm ? "Hbm" : "Edram";
}

void
PrintTo(Arch arch, std::ostream *os)
{
    *os << archName(arch);
}

/** Small test geometries of the two architectures. */
SectoredDramCacheConfig
testConfig(Arch arch)
{
    if (arch == Arch::Edram) {
        SectoredDramCacheConfig cfg = edramCacheConfig();
        cfg.capacityBytes = 1 * kMiB;
        return cfg;
    }
    SectoredDramCacheConfig cfg;
    cfg.capacityBytes = 4 * kMiB; // small for tests
    cfg.tagCache.entries = 64;
    return cfg;
}

/** Cache + main memory on a private event queue. */
class CacheHarness
{
  protected:
    explicit CacheHarness(Arch arch)
        : mm(eq, presets::ddr4_2400()), cfg(testConfig(arch))
    {
    }

    SectoredDramCache &
    cache()
    {
        if (!ms)
            ms = std::make_unique<SectoredDramCache>(eq, mm, policy,
                                                     cfg);
        return *ms;
    }

    /** Run a read to completion and return whether done fired. */
    bool
    read(Addr a)
    {
        bool fired = false;
        cache().handleRead(a, [&] { fired = true; });
        eq.run();
        return fired;
    }

    EventQueue eq;
    DramSystem mm;
    StubPolicy policy;
    SectoredDramCacheConfig cfg;
    std::unique_ptr<SectoredDramCache> ms;
};

/** The HBM DRAM cache (metadata in the array, one channel set). */
class SectoredCacheTest : public ::testing::Test, protected CacheHarness
{
  protected:
    SectoredCacheTest() : CacheHarness(Arch::Hbm) {}
};

/** The eDRAM cache (on-die tags, split read/write channels). */
class EdramCacheTest : public ::testing::Test, protected CacheHarness
{
  protected:
    EdramCacheTest() : CacheHarness(Arch::Edram) {}

    /** The write channels (cache().array() serves the reads). */
    DramSystem &
    writeArray()
    {
        return *cache().arrays().back().dram;
    }
};

/** Policy hooks both architectures must honour. */
class SectoredHookTest : public ::testing::TestWithParam<Arch>,
                         protected CacheHarness
{
  protected:
    SectoredHookTest() : CacheHarness(GetParam()) {}
};

INSTANTIATE_TEST_SUITE_P(
    Arch, SectoredHookTest, ::testing::Values(Arch::Hbm, Arch::Edram),
    [](const ::testing::TestParamInfo<Arch> &info) {
        return archName(info.param);
    });

TEST_F(SectoredCacheTest, ColdReadMissesAndFills)
{
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(cache().readMisses.value(), 1u);
    EXPECT_EQ(cache().readHits.value(), 0u);
    EXPECT_GT(cache().fills.value(), 0u);
    EXPECT_GT(mm.casReads(), 0u);
}

TEST_F(SectoredCacheTest, SecondReadHits)
{
    read(0x1000);
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().cleanReadHits.value(), 1u);
}

TEST_F(SectoredCacheTest, FootprintPrefetchMakesNeighboursHit)
{
    read(0x1000); // cold fetch brings a run of neighbours
    EXPECT_TRUE(read(0x1040));
    EXPECT_EQ(cache().readHits.value(), 1u);
}

TEST_F(SectoredCacheTest, WarmTouchPrimesTheDirectory)
{
    cache().warmTouch(0x2000, false);
    EXPECT_TRUE(cache().isBlockResident(0x2000));
    read(0x2000);
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().readMisses.value(), 0u);
}

TEST_F(SectoredCacheTest, WriteAllocatesAndMarksDirty)
{
    cache().handleWrite(0x3000);
    eq.run();
    EXPECT_EQ(cache().writeMisses.value(), 1u);
    read(0x3000);
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().cleanReadHits.value(), 0u); // dirty hit
}

TEST_F(SectoredCacheTest, WriteHitAfterSectorResident)
{
    read(0x4000);
    cache().handleWrite(0x4000);
    eq.run();
    EXPECT_EQ(cache().writeHits.value(), 1u);
}

TEST_F(SectoredCacheTest, FillBypassLeavesBlockNonResident)
{
    policy.bypassFill = true;
    read(0x5000);
    EXPECT_GT(cache().fillsBypassed.value(), 0u);
    EXPECT_EQ(cache().fills.value(), 0u);
    EXPECT_FALSE(cache().isBlockResident(0x5000));
    // The dropped fill means the block misses again (the delta-cost
    // the paper accepts).
    policy.bypassFill = false;
    read(0x5000);
    EXPECT_EQ(cache().readMisses.value(), 2u);
}

TEST_F(SectoredCacheTest, WriteBypassGoesToMemoryAndInvalidates)
{
    read(0x6000); // make the block resident & clean
    const auto mm_writes_before = mm.casWrites();
    policy.bypassWrite = true;
    cache().handleWrite(0x6000);
    eq.run();
    EXPECT_EQ(cache().writesBypassed.value(), 1u);
    EXPECT_GT(mm.casWrites(), mm_writes_before);
    // The stale cached copy must have been invalidated.
    EXPECT_FALSE(cache().isBlockResident(0x6000));
}

TEST_F(SectoredCacheTest, IfrmServesCleanHitFromMemory)
{
    read(0x7000);
    policy.forceReadMiss = true;
    const auto mm_reads_before = mm.casReads();
    EXPECT_TRUE(read(0x7000));
    EXPECT_EQ(cache().forcedReadMisses.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads_before);
    // Still counted as a (clean) hit; the block stays resident.
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_TRUE(cache().isBlockResident(0x7000));
}

TEST_F(SectoredCacheTest, IfrmNotAppliedToDirtyHits)
{
    cache().handleWrite(0x7100); // dirty block
    eq.run();
    policy.forceReadMiss = true;
    const auto mm_reads_before = mm.casReads();
    read(0x7100);
    EXPECT_EQ(cache().forcedReadMisses.value(), 0u);
    EXPECT_EQ(mm.casReads(), mm_reads_before);
}

/** Evict @p target_addr's tag-cache entry without touching its MS$
 *  set (warm sectors sharing the set would legitimately re-cache the
 *  metadata). */
void
thrashTagCacheAround(SectoredDramCache &ms,
                     const SectoredDramCacheConfig &cfg,
                     Addr target_addr)
{
    const std::uint64_t target =
        indexHash(target_addr / cfg.sectorBytes) % cfg.numSets();
    int warmed = 0;
    for (std::uint64_t sec = 0x40000000; warmed < 400; ++sec) {
        if (indexHash(sec) % cfg.numSets() == target)
            continue;
        ms.warmTouch(sec * cfg.sectorBytes, false);
        ++warmed;
    }
}

TEST_F(SectoredCacheTest, SfrmWastedOnDirtyHit)
{
    // Make the tag cache miss by thrashing it after priming a dirty
    // block.
    cache().handleWrite(0x8000);
    eq.run();
    thrashTagCacheAround(cache(), cfg, 0x8000);
    policy.speculate = true;
    read(0x8000);
    EXPECT_EQ(cache().speculativeReads.value(), 1u);
    EXPECT_EQ(cache().speculativeWasted.value(), 1u);
}

TEST_F(SectoredCacheTest, SfrmServesCleanDataEarly)
{
    read(0x9000);
    thrashTagCacheAround(cache(), cfg, 0x9000);
    policy.speculate = true;
    EXPECT_TRUE(read(0x9000));
    EXPECT_EQ(cache().speculativeReads.value(), 1u);
    EXPECT_EQ(cache().speculativeWasted.value(), 0u);
}

TEST_P(SectoredHookTest, DisabledSetServedByMemory)
{
    read(0xA000);
    // Disable every set: all traffic must go to memory.
    for (std::uint64_t s = 0; s < cfg.numSets(); ++s)
        policy.disabledSets.insert(s);
    const auto array_cas = cache().arrayCasOps();
    EXPECT_TRUE(read(0xA000));
    cache().handleWrite(0xB000);
    eq.run();
    EXPECT_EQ(cache().arrayCasOps(), array_cas);
}

TEST_P(SectoredHookTest, SteerServesCleanBlocksFromMemory)
{
    read(0xC000);
    policy.steer = true;
    const auto mm_reads = mm.casReads();
    EXPECT_TRUE(read(0xC000));
    EXPECT_EQ(cache().steeredToMemory.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads);
}

TEST_P(SectoredHookTest, SteerOverriddenForDirtyBlocks)
{
    cache().handleWrite(0xD000);
    eq.run();
    policy.steer = true;
    EXPECT_TRUE(read(0xD000));
    EXPECT_EQ(cache().steerOverridden.value(), 1u);
    EXPECT_EQ(cache().steeredToMemory.value(), 0u);
}

TEST_P(SectoredHookTest, CleanSectorWritesDirtyBlocksBack)
{
    cache().handleWrite(0xE000);
    cache().handleWrite(0xE040);
    eq.run();
    cache().cleanSector(0xE000);
    eq.run();
    EXPECT_EQ(cache().dirtyWritebacks.value(), 2u);
    // Blocks stay resident but clean.
    policy.forceReadMiss = false;
    read(0xE000);
    EXPECT_EQ(cache().cleanReadHits.value(), 1u);
}

TEST_P(SectoredHookTest, FlushSetWritesDirtyBlocksBack)
{
    cache().handleWrite(0xE000);
    cache().handleWrite(0xE040);
    eq.run();
    const std::uint64_t set =
        indexHash(0xE000 / cfg.sectorBytes) % cfg.numSets();
    cache().flushSet(set);
    eq.run();
    EXPECT_EQ(cache().dirtyWritebacks.value(), 2u);
    EXPECT_EQ(cache().sectorEvictions.value(), 1u);
    // The sector is gone: the next read misses.
    EXPECT_FALSE(cache().isBlockResident(0xE000));
    read(0xE000);
    EXPECT_EQ(cache().readMisses.value(), 1u);
}

TEST_P(SectoredHookTest, WriteThroughKeepsBlocksClean)
{
    read(0xE800);
    policy.writeThrough = true;
    const auto mm_writes = mm.casWrites();
    cache().handleWrite(0xE800);
    eq.run();
    EXPECT_GT(mm.casWrites(), mm_writes);
    // Memory is current, so the later hit is clean.
    read(0xE800);
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().cleanReadHits.value(), 1u);
}

TEST_F(SectoredCacheTest, EvictionWritesBackDirtyBlocks)
{
    // Fill one set beyond associativity with dirty sectors.
    cache(); // construct
    std::vector<Addr> in_one_set;
    const std::uint64_t target_set = 3;
    for (Addr sec = 0; in_one_set.size() < cfg.ways + 1; ++sec) {
        const Addr a = sec * cfg.sectorBytes;
        // Recreate the controller's set mapping via residence probing:
        // warm-touch and check which sectors collide is overkill; use
        // the same hash the cache uses.
        if (indexHash(sec) % cfg.numSets() == target_set)
            in_one_set.push_back(a);
    }
    for (Addr a : in_one_set) {
        cache().handleWrite(a);
        eq.run();
    }
    EXPECT_GE(cache().sectorEvictions.value(), 1u);
    EXPECT_GE(cache().dirtyWritebacks.value(), 1u);
}

TEST_F(SectoredCacheTest, WindowCountersAccumulateDemand)
{
    cache().startWindows(64);
    bool fired = false;
    cache().handleRead(0xF000, [&] { fired = true; });
    cache().handleWrite(0xF040);
    // The window event self-reschedules forever; run a bounded slice.
    eq.run(cpuCyclesToTicks(100'000));
    EXPECT_TRUE(fired);
    EXPECT_GT(policy.windows, 0);
    cache().stopWindows();
}

TEST_F(SectoredCacheTest, MetadataTrafficWithoutTagCache)
{
    cfg.tagCache.enabled = false;
    read(0x1000);
    read(0x1000);
    // Without a tag cache every lookup costs a metadata CAS, so the
    // array sees more than just the data accesses.
    EXPECT_GT(cache().arrayCasOps(), 2u);
}

TEST_F(SectoredCacheTest, TagCacheFiltersMetadataReads)
{
    read(0x1000);
    const auto cas_after_first = cache().arrayCasOps();
    read(0x1000); // tag cache hit: only the data CAS is added
    EXPECT_EQ(cache().arrayCasOps(), cas_after_first + 1);
}

TEST_F(SectoredCacheTest, HitRatioCombinesReadsAndWrites)
{
    read(0x1000);        // miss
    read(0x1000);        // hit
    cache().handleWrite(0x1000); // hit
    eq.run();
    EXPECT_NEAR(cache().hitRatio(), 2.0 / 3.0, 1e-9);
}

// eDRAM-specific behaviour: on-die tags and split channels.

TEST_F(EdramCacheTest, SplitChannels)
{
    // A miss + fill consumes write-channel bandwidth only; the later
    // hit consumes read-channel bandwidth only.
    read(0x1000);
    EXPECT_EQ(cache().array().casOps(), 0u);
    EXPECT_GT(writeArray().casWrites(), 0u);
    read(0x1000);
    EXPECT_EQ(cache().array().casReads(), 1u);
}

TEST_F(EdramCacheTest, OneKiloByteSectors)
{
    EXPECT_EQ(cfg.blocksPerSector(), 16u);
    read(0x2000);
    // The cold footprint run cannot exceed the sector.
    EXPECT_LE(cache().fills.value(), 16u);
}

TEST_F(EdramCacheTest, HitLatencyIncludesOnDieTagLookup)
{
    read(0x3000);
    Tick start = eq.now();
    Tick done_at = 0;
    cache().handleRead(0x3000, [&] { done_at = eq.now(); });
    eq.run();
    EXPECT_GE(done_at - start, cpuCyclesToTicks(*cfg.onDieTagCycles));
}

TEST_F(EdramCacheTest, NoMetadataTrafficNoSfrm)
{
    policy.speculate = true; // would be SFRM on the DRAM cache
    read(0x4000);
    read(0x4000);
    EXPECT_EQ(cache().speculativeReads.value(), 0u);
    EXPECT_EQ(policy.sfrmAsked, 0);
}

TEST_F(EdramCacheTest, WritesGoToWriteChannels)
{
    cache().handleWrite(0x5000);
    eq.run();
    EXPECT_GT(writeArray().casWrites(), 0u);
    EXPECT_EQ(cache().array().casOps(), 0u);
}

TEST_F(EdramCacheTest, EvictionReadsUseReadChannels)
{
    cache(); // construct
    // Build dirty sectors that collide in one set until eviction.
    const std::uint64_t target = 5;
    std::vector<Addr> colliding;
    for (std::uint64_t sec = 0;
         colliding.size() < cfg.ways + 1; ++sec) {
        if (indexHash(sec) % cfg.numSets() == target)
            colliding.push_back(sec * cfg.sectorBytes);
    }
    for (Addr a : colliding) {
        cache().handleWrite(a);
        eq.run();
    }
    EXPECT_GE(cache().sectorEvictions.value(), 1u);
    EXPECT_GT(cache().array().casReads(), 0u); // eviction read-out
    EXPECT_GT(cache().dirtyWritebacks.value(), 0u);
}

TEST_F(EdramCacheTest, IfrmOnCleanHits)
{
    read(0x6000);
    policy.forceReadMiss = true;
    const auto mm_reads = mm.casReads();
    const auto rd_cas = cache().array().casOps();
    EXPECT_TRUE(read(0x6000));
    EXPECT_EQ(cache().forcedReadMisses.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads);
    EXPECT_EQ(cache().array().casOps(), rd_cas);
}

TEST_F(EdramCacheTest, FillBypassHonored)
{
    policy.bypassFill = true;
    read(0x7000);
    EXPECT_EQ(cache().fills.value(), 0u);
    EXPECT_GT(cache().fillsBypassed.value(), 0u);
    EXPECT_EQ(writeArray().casWrites(), 0u);
}

TEST_F(EdramCacheTest, WriteBypassInvalidates)
{
    read(0x8000);
    policy.bypassWrite = true;
    const auto mm_writes = mm.casWrites();
    cache().handleWrite(0x8000);
    eq.run();
    EXPECT_GT(mm.casWrites(), mm_writes);
    EXPECT_EQ(cache().writesBypassed.value(), 1u);
    // Invalidated: the next read misses.
    policy.bypassWrite = false;
    read(0x8000);
    EXPECT_EQ(cache().readMisses.value(), 2u);
}

TEST_F(EdramCacheTest, WarmTouchPrimes)
{
    cache().warmTouch(0x9000, false);
    read(0x9000);
    EXPECT_EQ(cache().readHits.value(), 1u);
}

} // namespace
} // namespace dapsim
