/**
 * @file
 * Timing/geometry configuration for a DRAM-like bandwidth source.
 *
 * The same model backs DDR4/LPDDR4 main memory, the die-stacked HBM
 * array of the DRAM caches, and (with separate instances for reads and
 * writes) the eDRAM cache channels — matching the device parameters the
 * paper lists in Section V.
 */

#ifndef DAPSIM_DRAM_DRAM_CONFIG_HH
#define DAPSIM_DRAM_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dapsim
{

/** Geometry + timing of one DRAM subsystem (all channels identical). */
struct DramConfig
{
    std::string name = "dram";

    std::uint32_t channels = 2;
    std::uint32_t ranksPerChannel = 2;
    std::uint32_t banksPerRank = 8;
    std::uint64_t rowBufferBytes = 2 * kKiB;

    /** Command clock in MHz (data rate is double this when ddr). */
    std::uint64_t freqMHz = 1200;
    bool ddr = true;
    std::uint32_t channelWidthBits = 64;
    std::uint32_t burstLength = 8;

    /** Core timing parameters in DRAM command-clock cycles. */
    std::uint32_t tCAS = 15;
    std::uint32_t tRCD = 15;
    std::uint32_t tRP = 15;
    std::uint32_t tRAS = 39;

    /** Extra per-access board/floorplan I/O delay, in DRAM cycles. */
    std::uint32_t ioDelayCycles = 10;

    /**
     * Refresh interval and cycle time, in DRAM cycles; tREFI = 0
     * disables refresh (the paper's evaluation charges no maintenance
     * overhead to the memory-side caches, so presets default to
     * disabled — enable for refresh-sensitivity studies).
     */
    std::uint32_t tREFI = 0;
    std::uint32_t tRFC = 0;

    /** Bus penalty when the data direction flips, in DRAM cycles. */
    std::uint32_t turnaroundCycles = 4;

    /** Write-batching watermarks (per channel). */
    std::uint32_t writeQueueHigh = 48;
    std::uint32_t writeQueueLow = 12;

    /** Bounded FR-FCFS scan depth, 1..64 (see validate()). */
    std::uint32_t schedulerScanDepth = 32;

    /** Per-channel request-queue capacity to pre-reserve (queues stay
     *  unbounded; this only sizes the rings so the steady state never
     *  reallocates). */
    std::uint32_t requestQueueReserve = 64;

    /** Command-clock period in integer picoseconds. */
    Tick periodPs() const { return periodPsFromMHz(freqMHz); }

    /** Data-bus occupancy of one default burst, in ticks. A burst of
     *  length BL takes BL/2 command clocks on a DDR bus and BL clocks
     *  on an SDR bus. Inline: called per FR-FCFS scan step. */
    Tick
    burstTicks() const
    {
        const std::uint32_t clocks = ddr ? (burstLength + 1) / 2 : burstLength;
        return static_cast<Tick>(clocks) * periodPs();
    }

    /** Bytes moved by one default burst. */
    std::uint64_t burstBytes() const;

    /** Peak bandwidth over all channels, in GB/s. */
    double peakGBps() const;

    /** Peak bandwidth in 64-byte accesses per CPU cycle (for DAP). */
    double peakAccessesPerCpuCycle() const;

    /** Blocks per row buffer. */
    std::uint64_t blocksPerRow() const { return rowBufferBytes / kBlockBytes; }

    /** Sanity-check the configuration; fatal() on nonsense. */
    void validate() const;
};

} // namespace dapsim

#endif // DAPSIM_DRAM_DRAM_CONFIG_HH
