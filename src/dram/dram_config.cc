#include "dram/dram_config.hh"

#include "common/log.hh"

namespace dapsim
{

std::uint64_t
DramConfig::burstBytes() const
{
    return static_cast<std::uint64_t>(channelWidthBits) / 8 * burstLength;
}

double
DramConfig::peakGBps() const
{
    const double transfersPerSec =
        static_cast<double>(freqMHz) * 1e6 * (ddr ? 2.0 : 1.0);
    const double bytesPerSec =
        transfersPerSec * (channelWidthBits / 8.0) * channels;
    return bytesPerSec / 1e9;
}

double
DramConfig::peakAccessesPerCpuCycle() const
{
    const double bytesPerSec = peakGBps() * 1e9;
    const double accPerSec = bytesPerSec / kBlockBytes;
    const double cpuHz = static_cast<double>(kPsPerSecond) / kCpuPeriodPs;
    return accPerSec / cpuHz;
}

void
DramConfig::validate() const
{
    if (channels == 0 || ranksPerChannel == 0 || banksPerRank == 0)
        fatal(name + ": zero geometry");
    if (!isPowerOfTwo(rowBufferBytes) || rowBufferBytes < kBlockBytes)
        fatal(name + ": bad row buffer size");
    if (burstBytes() != kBlockBytes)
        fatal(name + ": one burst must transfer one 64B block");
    if (writeQueueLow >= writeQueueHigh)
        fatal(name + ": write drain watermarks inverted");
    // The channel scheduler keeps its scan window as 64-bit position
    // masks per bank, and its active banks as one 64-bit mask.
    if (schedulerScanDepth == 0 || schedulerScanDepth > 64)
        fatal(name + ": scheduler scan depth must be within [1, 64]");
    if (static_cast<std::uint64_t>(ranksPerChannel) * banksPerRank > 64)
        fatal(name + ": more than 64 banks per channel");
}

} // namespace dapsim
