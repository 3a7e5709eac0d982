/**
 * @file
 * Behaviour tests for the DRAM channel scheduler: write batching,
 * opportunistic drains, turnaround charging, and bus gap-filling.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "dram/dram_system.hh"
#include "dram/presets.hh"

namespace dapsim
{
namespace
{

TEST(ChannelBehavior, OpportunisticWritesDrainWhenReadsIdle)
{
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    for (int i = 0; i < 8; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, true);
    eq.run();
    // Below the high watermark but no reads: everything drains.
    EXPECT_EQ(mem.casWrites(), 8u);
    EXPECT_EQ(mem.totalWriteQueue(), 0u);
}

TEST(ChannelBehavior, ReadsPreemptWritesBelowWatermark)
{
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    // A handful of writes, then a read right behind them.
    std::vector<Tick> order;
    for (int i = 0; i < 4; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, true,
                   [&order, &eq] { order.push_back(eq.now()); });
    Tick read_done = 0;
    mem.access(1 * kMiB, false, [&] { read_done = eq.now(); });
    eq.run();
    ASSERT_EQ(order.size(), 4u);
    // The read finishes before the last write completes (writes are
    // not a blocking batch when under the watermark).
    EXPECT_LT(read_done, order.back() + 1);
}

TEST(ChannelBehavior, HighWatermarkForcesDrain)
{
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    cfg.writeQueueHigh = 8;
    cfg.writeQueueLow = 2;
    DramSystem mem(eq, cfg);
    int writes_done = 0;
    for (int i = 0; i < 12; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, true,
                   [&] { ++writes_done; });
    // A stream of reads that would otherwise starve the writes.
    for (int i = 0; i < 64; ++i)
        mem.access(1 * kMiB + static_cast<Addr>(i) * kBlockBytes,
                   false);
    eq.run();
    EXPECT_EQ(writes_done, 12);
}

TEST(ChannelBehavior, TurnaroundChargedOnDirectionFlip)
{
    // Issue strictly serialized read/write pairs so write batching
    // cannot coalesce them: every access must flip the bus direction.
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    int i = 0;
    std::function<void()> step = [&] {
        if (i >= 16)
            return;
        const bool write = (i % 2) != 0;
        ++i;
        mem.access(static_cast<Addr>(i) * kBlockBytes, write,
                   [&step] { step(); });
    };
    step();
    eq.run();
    EXPECT_GE(mem.channel(0).turnarounds.value(), 8u);
}

TEST(ChannelBehavior, NoTurnaroundsOnUniformDirection)
{
    EventQueue eq;
    DramConfig cfg = presets::edram_dir_51();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    for (int i = 0; i < 32; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, false);
    eq.run();
    // turnaroundCycles = 0 for eDRAM; and a read-only stream flips at
    // most once from the initial state.
    EXPECT_LE(mem.channel(0).turnarounds.value(), 1u);
}

TEST(ChannelBehavior, BankParallelismBeatsSingleBankConflicts)
{
    // N row-conflicting accesses to ONE bank vs N spread over banks:
    // the spread case must finish much earlier (bank prep overlap).
    auto run = [](bool spread) {
        EventQueue eq;
        DramConfig cfg = presets::hbm_102();
        cfg.channels = 1;
        DramSystem mem(eq, cfg);
        const std::uint64_t cols = cfg.blocksPerRow();
        const std::uint64_t banks = cfg.banksPerRank;
        int done = 0;
        for (std::uint64_t i = 0; i < 32; ++i) {
            // Same bank, different row (conflict) vs different banks.
            const std::uint64_t bank = spread ? i % banks : 0;
            const std::uint64_t row = i;
            const std::uint64_t blk = (row * banks + bank) * cols;
            mem.access(blk * kBlockBytes, false, [&] { ++done; });
        }
        eq.runUntil([&] { return done == 32; });
        return eq.now();
    };
    EXPECT_LT(run(true) * 2, run(false));
}

TEST(ChannelBehavior, DemandReadsJumpAheadOfLowPriority)
{
    // A backlog of low-priority (prefetch-fill) reads must not delay a
    // later demand read: demands always scan ahead of queued lows.
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    cfg.schedulerScanDepth = 1; // pure FIFO visit order per class
    DramSystem mem(eq, cfg);

    // Everything in one row of one bank (consecutive blocks), so bus
    // placement cannot reorder across banks: completion order is
    // exactly issue order, which isolates the queue-visit order.
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, false,
                   [&order, i] { order.push_back(100 + i); }, 0,
                   /*low_priority=*/true);
    mem.access(16 * kBlockBytes, false, [&order] { order.push_back(0); });
    eq.run();

    ASSERT_EQ(order.size(), 17u);
    // The demand completes first even though it arrived last...
    EXPECT_EQ(order.front(), 0);
    // ...and the low-priority FIFO order is preserved behind it.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], 100 + i);
}

TEST(ChannelBehavior, LowPriorityStillDrainsWhenNoDemands)
{
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    int done = 0;
    for (int i = 0; i < 8; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, false,
                   [&done] { ++done; }, 0, /*low_priority=*/true);
    eq.run();
    EXPECT_EQ(done, 8);
    EXPECT_EQ(mem.totalReadQueue(), 0u);
}

TEST(ChannelBehavior, QueueLengthVisibleWhileBacklogged)
{
    EventQueue eq;
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    DramSystem mem(eq, cfg);
    for (int i = 0; i < 64; ++i)
        mem.access(static_cast<Addr>(i * 977) * kBlockBytes, false);
    EXPECT_EQ(mem.totalReadQueue(), 64u);
    eq.run();
    EXPECT_EQ(mem.totalReadQueue(), 0u);
}

} // namespace
} // namespace dapsim
