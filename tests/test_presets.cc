/**
 * @file
 * Tests pinning the Section V system presets and their scaling
 * invariants (coverage ratios preserved at the 64x reduced scale).
 */

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "trace/workloads.hh"

namespace dapsim
{
namespace
{

TEST(Presets, SectoredSystemMatchesSectionFive)
{
    const SystemConfig cfg = presets::sectoredSystem8();
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.arch, MsArch::Sectored);
    EXPECT_EQ(cfg.sectored.sectorBytes, 4 * kKiB);
    EXPECT_EQ(cfg.sectored.ways, 4u);
    EXPECT_NEAR(cfg.sectored.array.peakGBps(), 102.4, 1e-9);
    EXPECT_NEAR(cfg.mainMemory.peakGBps(), 38.4, 1e-9);
    EXPECT_EQ(cfg.windowCycles, 64u);
    EXPECT_EQ(cfg.core.retireWidth, 4u);
    EXPECT_EQ(cfg.core.robEntries, 224u);
}

TEST(Presets, TagCacheCoverageRatioPreserved)
{
    // Paper: 32K entries over 1M sectors (~3.1%); scaled: 512 over
    // 16K sectors — the same coverage ratio.
    const SystemConfig cfg = presets::sectoredSystem8();
    const double coverage =
        static_cast<double>(cfg.sectored.tagCache.entries) /
        static_cast<double>(cfg.sectored.numSectors());
    EXPECT_NEAR(coverage, 32768.0 / (1 << 20), 1e-3);
}

TEST(Presets, DbcCoverageRatioPreserved)
{
    // Paper: 32K entries x 64 sets over 64M Alloy sets; scaled: 512 x
    // 64 over 1M sets.
    const SystemConfig cfg = presets::alloySystem8();
    const double coverage =
        static_cast<double>(cfg.alloy.dbc.entries *
                            cfg.alloy.dbc.setsPerEntry) /
        static_cast<double>(cfg.alloy.numSets());
    EXPECT_NEAR(coverage, 32768.0 * 64 / (64.0 * (1 << 20)), 1e-3);
}

TEST(Presets, EdramCapacityPoints)
{
    EXPECT_EQ(presets::edramSystem8(4).edram.capacityBytes, 4 * kMiB);
    EXPECT_EQ(presets::edramSystem8(8).edram.capacityBytes, 8 * kMiB);
    const SystemConfig cfg = presets::edramSystem8(4);
    EXPECT_EQ(cfg.edram.sectorBytes, 1 * kKiB);
    EXPECT_EQ(cfg.edram.ways, 16u);
    EXPECT_NEAR(cfg.edram.array.peakGBps(), 51.2, 1e-9);
    ASSERT_TRUE(cfg.edram.writeChannels.has_value());
    EXPECT_NEAR(cfg.edram.writeChannels->peakGBps(), 51.2, 1e-9);
    EXPECT_EQ(cfg.edram.onDieTagCycles, Cycle{8});
}

TEST(Presets, SixteenCoreScalesEverything)
{
    const SystemConfig cfg = presets::sectoredSystem16();
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.l3.capacityBytes, 2 * kMiB);
    EXPECT_EQ(cfg.sectored.capacityBytes, 128 * kMiB);
    EXPECT_NEAR(cfg.sectored.array.peakGBps(), 204.8, 1e-9);
    EXPECT_NEAR(cfg.mainMemory.peakGBps(), 51.2, 1e-9);
}

TEST(Presets, MsPeakAccPerCycleByArch)
{
    SystemConfig cfg = presets::sectoredSystem8();
    EXPECT_NEAR(msPeakAccPerCycle(cfg), 0.4, 1e-6);
    cfg = presets::alloySystem8();
    EXPECT_NEAR(msPeakAccPerCycle(cfg), 0.4 * 2.0 / 3.0, 1e-6);
    cfg = presets::edramSystem8(4);
    EXPECT_NEAR(msPeakAccPerCycle(cfg), 0.2, 1e-6);
    cfg.arch = MsArch::None;
    EXPECT_EQ(msPeakAccPerCycle(cfg), 0.0);
}

TEST(Presets, MsCapacityBytesByArch)
{
    SystemConfig cfg = presets::sectoredSystem8();
    EXPECT_EQ(cfg.msCapacityBytes(), 64 * kMiB);
    cfg = presets::edramSystem8(8);
    EXPECT_EQ(cfg.msCapacityBytes(), 8 * kMiB);
    cfg.arch = MsArch::None;
    EXPECT_EQ(cfg.msCapacityBytes(), 0u);
}

TEST(Presets, NoTagCacheVariantOnlyDisablesTheTagCache)
{
    const SystemConfig a = presets::sectoredSystem8();
    const SystemConfig b = presets::sectoredSystemNoTagCache8();
    EXPECT_TRUE(a.sectored.tagCache.enabled);
    EXPECT_FALSE(b.sectored.tagCache.enabled);
    EXPECT_EQ(a.sectored.capacityBytes, b.sectored.capacityBytes);
}

TEST(Presets, DerivedDapConfigUsesArchBandwidths)
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.policy = PolicyKind::Dap;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(workloadByName("hpcg"), i));
    System sys(cfg, std::move(gens));
    DapPolicy *dap = sys.dapPolicy();
    ASSERT_NE(dap, nullptr);
    EXPECT_NEAR(dap->config().msPeakAccPerCycle, 0.4, 1e-6);
    EXPECT_NEAR(dap->config().mmPeakAccPerCycle, 0.15, 1e-3);
    // K = 102.4/38.4 quantized to 11/4, the paper's worked example.
    EXPECT_EQ(dap->config().ratioK().numerator(), 11u);
}

} // namespace
} // namespace dapsim
