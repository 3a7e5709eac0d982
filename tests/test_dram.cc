/**
 * @file
 * Unit and behaviour tests for the DRAM timing substrate.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "dram/dram_system.hh"
#include "dram/presets.hh"

namespace dapsim
{
namespace
{

TEST(DramConfig, PresetPeakBandwidths)
{
    EXPECT_NEAR(presets::ddr4_2400().peakGBps(), 38.4, 1e-9);
    EXPECT_NEAR(presets::ddr4_3200().peakGBps(), 51.2, 1e-9);
    EXPECT_NEAR(presets::lpddr4_2400().peakGBps(), 38.4, 1e-9);
    EXPECT_NEAR(presets::hbm_102().peakGBps(), 102.4, 1e-9);
    EXPECT_NEAR(presets::hbm_128().peakGBps(), 128.0, 1e-9);
    EXPECT_NEAR(presets::hbm_205().peakGBps(), 204.8, 1e-9);
    EXPECT_NEAR(presets::edram_dir_51().peakGBps(), 51.2, 1e-9);
}

TEST(DramConfig, EveryPresetMovesOneBlockPerBurst)
{
    for (const auto &cfg :
         {presets::ddr4_2400(), presets::ddr4_3200(),
          presets::lpddr4_2400(), presets::hbm_102(), presets::hbm_128(),
          presets::hbm_205(), presets::edram_dir_51()}) {
        EXPECT_EQ(cfg.burstBytes(), kBlockBytes) << cfg.name;
        EXPECT_NO_FATAL_FAILURE(cfg.validate());
    }
}

TEST(DramConfig, AccessesPerCpuCycle)
{
    // 38.4 GB/s over 64B blocks at 4 GHz = 0.15 accesses per cycle.
    EXPECT_NEAR(presets::ddr4_2400().peakAccessesPerCpuCycle(), 0.15,
                1e-3);
    EXPECT_NEAR(presets::hbm_102().peakAccessesPerCpuCycle(), 0.4,
                1e-3);
}

TEST(DramConfig, BurstTicks)
{
    // DDR4 BL8 = 4 command clocks at 833 ps.
    EXPECT_EQ(presets::ddr4_2400().burstTicks(), 4 * 833u);
    // HBM BL4 on a DDR bus = 2 clocks at 1250 ps.
    EXPECT_EQ(presets::hbm_102().burstTicks(), 2 * 1250u);
}

TEST(DramConfigDeathTest, ValidationCatchesNonsense)
{
    DramConfig c = presets::ddr4_2400();
    c.channelWidthBits = 32; // burst now moves 32B, not one block
    EXPECT_DEATH(c.validate(), "64B");
    DramConfig z = presets::ddr4_2400();
    z.channels = 0;
    EXPECT_DEATH(z.validate(), "geometry");
    DramConfig w = presets::ddr4_2400();
    w.writeQueueLow = w.writeQueueHigh;
    EXPECT_DEATH(w.validate(), "watermarks");
}

TEST(DramConfigDeathTest, ScanDepthOutsideOneToSixtyFourIsFatal)
{
    // Depth 0 leaves every pick empty (data ready at 2^64 - 1, so the
    // kick parks there with requests queued); past 64 the window no
    // longer fits the scheduler's 64-bit position masks.
    for (const std::uint32_t depth : {0u, 65u}) {
        DramConfig c = presets::ddr4_2400();
        c.schedulerScanDepth = depth;
        EXPECT_DEATH(c.validate(), "scan depth") << depth;
    }
    DramConfig ok = presets::ddr4_2400();
    ok.schedulerScanDepth = 64;
    ok.validate();
    ok.schedulerScanDepth = 1;
    ok.validate();
}

TEST(DramConfigDeathTest, MoreThanSixtyFourBanksPerChannelIsFatal)
{
    DramConfig c = presets::ddr4_2400();
    c.ranksPerChannel = 4;
    c.banksPerRank = 32;
    EXPECT_DEATH(c.validate(), "banks per channel");
    c.banksPerRank = 16;
    c.validate();
}

TEST(Bank, RowHitIsFasterThanMissIsFasterThanConflict)
{
    const DramConfig cfg = presets::ddr4_2400();
    const Tick period = cfg.periodPs();

    Bank b;
    // Page-empty access: tRCD + tCAS.
    const auto first = b.reserve(cfg, 0, 7);
    EXPECT_TRUE(first.rowEmpty);
    EXPECT_EQ(first.dataReadyAt, (cfg.tRCD + cfg.tCAS) * period);

    // Row hit: tCAS from the bank-ready point.
    const Tick t1 = first.dataReadyAt;
    const auto hit = b.reserve(cfg, t1, 7);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_EQ(hit.dataReadyAt, t1 + cfg.tCAS * period);

    // Conflict: precharge (after tRAS) + activate + read.
    const Tick t2 = hit.dataReadyAt;
    const auto conf = b.reserve(cfg, t2, 9);
    EXPECT_FALSE(conf.rowHit);
    EXPECT_FALSE(conf.rowEmpty);
    EXPECT_GT(conf.dataReadyAt - t2,
              (cfg.tRP + cfg.tRCD + cfg.tCAS) * period - 1);
}

TEST(Bank, ProbeMatchesReserveWithoutMutating)
{
    const DramConfig cfg = presets::hbm_102();
    const BankTiming t = BankTiming::from(cfg);
    Bank b;
    // Page-empty: both arms pay the activate.
    Bank::Probe p = b.probe(t, 0);
    EXPECT_EQ(p.openRow, Bank::kNoRow);
    EXPECT_EQ(p.hitAt, p.otherAt);
    Bank copy = b;
    EXPECT_EQ(copy.reserve(t, 0, 3).dataReadyAt, p.otherAt);

    (void)b.reserve(t, 0, 3);
    const Tick ready = b.readyAt();
    p = b.probe(t, ready);
    EXPECT_EQ(b.openRow(), 3u);
    EXPECT_EQ(b.readyAt(), ready);
    EXPECT_EQ(p.openRow, 3u);
    copy = b;
    EXPECT_EQ(copy.reserve(t, ready, 3).dataReadyAt, p.hitAt);
    copy = b;
    EXPECT_EQ(copy.reserve(t, ready, 5).dataReadyAt, p.otherAt);
}

TEST(Bank, PrechargeClosesRow)
{
    const DramConfig cfg = presets::hbm_102();
    Bank b;
    (void)b.reserve(cfg, 0, 3);
    b.precharge();
    EXPECT_EQ(b.openRow(), Bank::kNoRow);
}

/** Fixture with a DRAM system on its own event queue. */
class DramSystemTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

TEST_F(DramSystemTest, SingleReadLatency)
{
    DramSystem mem(eq, presets::ddr4_2400());
    Tick done_at = 0;
    mem.access(0, false, [&] { done_at = eq.now(); });
    eq.run();
    const DramConfig cfg = presets::ddr4_2400();
    const Tick period = cfg.periodPs();
    const Tick expected = (cfg.tRCD + cfg.tCAS) * period +
                          cfg.burstTicks() +
                          cfg.ioDelayCycles * period;
    EXPECT_EQ(done_at, expected);
    EXPECT_EQ(mem.casReads(), 1u);
    EXPECT_EQ(mem.casOps(), 1u);
}

TEST_F(DramSystemTest, WritesArePostedAndCounted)
{
    DramSystem mem(eq, presets::ddr4_2400());
    for (int i = 0; i < 10; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, true);
    eq.run();
    EXPECT_EQ(mem.casWrites(), 10u);
    EXPECT_EQ(mem.dataBytes(), 10u * kBlockBytes);
}

TEST_F(DramSystemTest, SequentialStreamGetsRowHits)
{
    DramSystem mem(eq, presets::hbm_102());
    for (Addr a = 0; a < 512 * kBlockBytes; a += kBlockBytes)
        mem.access(a, false);
    eq.run();
    EXPECT_EQ(mem.casReads(), 512u);
    EXPECT_GT(mem.rowHits(), mem.rowMisses());
}

TEST_F(DramSystemTest, StreamingApproachesPeakBandwidth)
{
    DramSystem mem(eq, presets::hbm_102());
    const int n = 4096;
    int done = 0;
    for (Addr a = 0; a < n * static_cast<Addr>(kBlockBytes);
         a += kBlockBytes)
        mem.access(a, false, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, n);
    const double seconds =
        static_cast<double>(eq.now()) / kPsPerSecond;
    const double gbps = n * 64.0 / seconds / 1e9;
    // A pure read stream should deliver well over 70% of 102.4 GB/s.
    EXPECT_GT(gbps, 0.70 * 102.4);
    EXPECT_LE(gbps, 102.4 + 1e-6);
}

TEST_F(DramSystemTest, RandomTrafficDeliversLessThanStreaming)
{
    DramSystem seq(eq, presets::hbm_102());
    // interleave: run sequential first
    const int n = 2048;
    for (int i = 0; i < n; ++i)
        seq.access(static_cast<Addr>(i) * kBlockBytes, false);
    eq.run();
    const Tick seq_time = eq.now();

    EventQueue eq2;
    DramSystem rnd(eq2, presets::hbm_102());
    std::uint64_t x = 12345;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        rnd.access((x >> 20) % (1ULL << 30), false);
    }
    eq2.run();
    EXPECT_GT(eq2.now(), seq_time);
}

TEST_F(DramSystemTest, DemandReadsOvertakeLowPriorityFetches)
{
    DramSystem mem(eq, presets::ddr4_2400());
    // Flood with low-priority fetches, then issue one demand read.
    Tick demand_done = 0;
    std::vector<Tick> low_done;
    for (int i = 0; i < 64; ++i)
        mem.access(static_cast<Addr>(i * 97) * kBlockBytes, false,
                   [&] { low_done.push_back(eq.now()); }, 0, true);
    mem.access(1 * kMiB, false, [&] { demand_done = eq.now(); });
    eq.run();
    ASSERT_EQ(low_done.size(), 64u);
    // The demand read must not finish behind the whole flood.
    EXPECT_LT(demand_done, low_done.back());
}

TEST_F(DramSystemTest, DeterministicAcrossRuns)
{
    auto run = [] {
        EventQueue q;
        DramSystem mem(q, presets::ddr4_2400());
        std::uint64_t x = 777;
        for (int i = 0; i < 500; ++i) {
            x = x * 6364136223846793005ULL + 1;
            mem.access((x >> 16) % (1ULL << 28), (x & 1) != 0);
        }
        q.run();
        return std::make_tuple(q.now(), mem.rowHits(),
                               mem.meanReadLatency());
    };
    EXPECT_EQ(run(), run());
}

TEST_F(DramSystemTest, ChannelLoadIsBalancedForAlignedStructures)
{
    // Regression for the channel-aliasing bug: row-aligned structures
    // (metadata blocks every 256 blocks) must spread over channels.
    DramSystem mem(eq, presets::hbm_102());
    for (int i = 0; i < 1024; ++i)
        mem.access(static_cast<Addr>(i) * 16 * kKiB, false);
    eq.run();
    std::uint64_t min_cas = ~0ull, max_cas = 0;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c) {
        const auto n = mem.channel(c).casReads.value();
        min_cas = std::min(min_cas, n);
        max_cas = std::max(max_cas, n);
    }
    EXPECT_GT(min_cas, 0u);
    EXPECT_LT(max_cas, 1024u / 2);
}

TEST_F(DramSystemTest, TurnaroundsAreCounted)
{
    DramSystem mem(eq, presets::ddr4_2400());
    for (int i = 0; i < 16; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, (i % 2) != 0);
    eq.run();
    std::uint64_t turns = 0;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c)
        turns += mem.channel(c).turnarounds.value();
    EXPECT_GT(turns, 0u);
}

} // namespace
} // namespace dapsim
