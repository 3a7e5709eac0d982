#include "sim/presets.hh"

namespace dapsim::presets
{

SystemConfig
sectoredSystem8()
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l3.capacityBytes = 1 * kMiB; // stands for 8 MB
    cfg.arch = MsArch::Sectored;

    cfg.sectored.capacityBytes = 64 * kMiB; // stands for 4 GB
    cfg.sectored.ways = 4;
    cfg.sectored.sectorBytes = 4 * kKiB;
    cfg.sectored.array = dapsim::presets::hbm_102();
    // Paper: 32K tag-cache entries over 1M sectors (~3% coverage);
    // scaled: 512 entries over 16K sectors.
    cfg.sectored.tagCache.entries = 512;
    cfg.sectored.tagCache.ways = 4;

    cfg.mainMemory = dapsim::presets::ddr4_2400();
    cfg.policy = PolicyKind::Baseline;
    return cfg;
}

SystemConfig
sectoredSystemNoTagCache8()
{
    SystemConfig cfg = sectoredSystem8();
    cfg.sectored.tagCache.enabled = false;
    return cfg;
}

SystemConfig
alloySystem8()
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l3.capacityBytes = 1 * kMiB;
    cfg.arch = MsArch::Alloy;

    cfg.alloy.capacityBytes = 64 * kMiB; // stands for 4 GB
    cfg.alloy.array = dapsim::presets::hbm_102();
    // Paper: 32K DBC entries x 64 sets cover ~3% of 64M sets; scaled:
    // 512 entries x 64 sets over 1M sets.
    cfg.alloy.dbc.entries = 512;
    cfg.alloy.dbc.ways = 4;

    cfg.mainMemory = dapsim::presets::ddr4_2400();
    cfg.policy = PolicyKind::Baseline;
    return cfg;
}

SystemConfig
edramSystem8(std::uint64_t capacity_mb)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l3.capacityBytes = 1 * kMiB;
    cfg.arch = MsArch::Edram;

    // The rest of the geometry is edramCacheConfig()'s.
    cfg.edram.capacityBytes = capacity_mb * kMiB; // 4 MB ~ 256 MB

    cfg.mainMemory = dapsim::presets::ddr4_2400();
    cfg.policy = PolicyKind::Baseline;
    return cfg;
}

SystemConfig
tieredSystem8()
{
    SystemConfig cfg = sectoredSystem8();
    cfg.remote.enabled = true;
    cfg.remote.bwScaleFactor = 4.0;
    cfg.remote.addLatencyNs = 120.0;
    cfg.remote.maxOutstanding = 32;
    return cfg;
}

SystemConfig
sectoredSystem16()
{
    SystemConfig cfg = sectoredSystem8();
    cfg.numCores = 16;
    cfg.l3.capacityBytes = 2 * kMiB; // stands for 16 MB
    cfg.sectored.capacityBytes = 128 * kMiB; // stands for 8 GB
    cfg.sectored.array = dapsim::presets::hbm_205();
    cfg.sectored.tagCache.entries = 1024;
    cfg.mainMemory = dapsim::presets::ddr4_3200();
    return cfg;
}

} // namespace dapsim::presets
