/**
 * @file
 * Sectored eDRAM cache with split read/write channel sets (paper
 * Sections II, IV-C, VI-C; Crystalwell/Skylake-style).
 *
 * 16-way, 1 KB sectors, metadata in on-die SRAM (8-cycle lookup, no
 * metadata CAS traffic, hence no SFRM). Fills and incoming writes use
 * the write channels; hits and eviction read-outs use the read
 * channels; the system therefore has three bandwidth sources beyond
 * the SRAM hierarchy and DAP uses the three-source solver.
 */

#ifndef DAPSIM_MEMSIDE_EDRAM_CACHE_HH
#define DAPSIM_MEMSIDE_EDRAM_CACHE_HH

#include <cstdint>

#include "cache/assoc_cache.hh"
#include "cache/sector.hh"
#include "dram/presets.hh"
#include "memside/footprint_prefetcher.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

/** Configuration of the sectored eDRAM cache. */
struct EdramCacheConfig
{
    /** Scaled default: 4 MB stands in for the paper's 256 MB. */
    std::uint64_t capacityBytes = 4 * kMiB;
    std::uint32_t ways = 16;
    std::uint64_t sectorBytes = 1 * kKiB;

    DramConfig readChannels = presets::edram_dir_51();
    DramConfig writeChannels = presets::edram_dir_51();

    /** On-die SRAM metadata lookup, CPU cycles at 4 GHz. */
    Cycle tagLookupCycles = 8;

    FootprintConfig footprint{};

    std::uint64_t numSectors() const { return capacityBytes / sectorBytes; }
    std::uint64_t numSets() const { return numSectors() / ways; }
    std::uint32_t
    blocksPerSector() const
    {
        return static_cast<std::uint32_t>(sectorBytes / kBlockBytes);
    }
};

/** The sectored eDRAM cache controller. */
class EdramCache final : public MemSideCache
{
  public:
    EdramCache(EventQueue &eq, DramSystem &main_memory,
               PartitionPolicy &policy, const EdramCacheConfig &cfg);

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;

    std::uint64_t
    arrayCasOps() const override
    {
        return readArray_.casOps() + writeArray_.casOps();
    }

    DramSystem &readArray() { return readArray_; }
    DramSystem &writeArray() { return writeArray_; }
    const EdramCacheConfig &config() const { return cfg_; }

    double
    readPeakAccPerCycle() const
    {
        return cfg_.readChannels.peakAccessesPerCpuCycle();
    }

    double
    writePeakAccPerCycle() const
    {
        return cfg_.writeChannels.peakAccessesPerCpuCycle();
    }

    bool warmTouch(Addr addr, bool is_write) override;

    void
    creditFastForward(std::uint64_t reads, std::uint64_t writes) override
    {
        readArray_.creditFastForward(reads, 0);
        writeArray_.creditFastForward(0, writes);
    }

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    std::uint64_t sectorNumber(Addr a) const { return secDiv_.div(a); }
    std::uint64_t setOf(std::uint64_t sec) const
    {
        return dir_.mapSet(indexHash(sec));
    }
    std::uint64_t tagOf(std::uint64_t sec) const { return sec; }
    std::uint32_t
    blkOf(Addr a) const
    {
        return static_cast<std::uint32_t>(secDiv_.mod(a) / kBlockBytes);
    }
    std::uint64_t
    sectorNumberFrom(std::uint64_t, std::uint64_t tag) const
    {
        return tag;
    }

    Addr dataAddr(std::uint64_t sec, std::uint32_t blk) const;

    /** Resolve read @p id after the on-die tag lookup. */
    void resolveRead(std::uint32_t id);

    /** The memory read of miss @p id has returned: fill, then
     *  complete. */
    void missDone(std::uint32_t id);

    bool launchFill(std::uint64_t sec, std::uint32_t blk);
    bool allocateSector(std::uint64_t sec, std::uint32_t blk);
    void writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                         const SectorMeta &meta);

    EdramCacheConfig cfg_;
    /** Per-access address split by cfg_.sectorBytes / cfg_.ways —
     *  shifts for the power-of-two production geometries. */
    FastDiv secDiv_;
    FastDiv wayDiv_;
    DramSystem readArray_;
    DramSystem writeArray_;
    AssocCache<SectorMeta> dir_;
    FootprintPrefetcher footprint_;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_EDRAM_CACHE_HH
