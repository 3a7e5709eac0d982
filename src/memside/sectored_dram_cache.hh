/**
 * @file
 * Sectored memory-side cache controller (paper Sections II, IV-A,
 * IV-C, VI-A, VI-C).
 *
 * One controller models both sectored architectures of the paper; they
 * differ only in hardware the configuration describes:
 *
 *  - Die-stacked HBM DRAM cache (the defaults): 4-way, 4 KB sectors,
 *    metadata resident in the DRAM array (filtered by an SRAM tag
 *    cache), and one bidirectional set of HBM channels serving reads,
 *    writes, fills, evictions and metadata.
 *  - eDRAM cache (edramCacheConfig()): 16-way, 1 KB sectors, metadata
 *    in on-die SRAM (fixed lookup latency, no metadata CAS traffic,
 *    hence no SFRM), and split channel sets: fills and incoming writes
 *    use the write channels, hits and eviction read-outs the read
 *    channels, so DAP sees three bandwidth sources and uses its
 *    three-source solver.
 *
 * Both use NRU replacement and footprint-prefetcher fills. DAP's FWB,
 * WB and IFRM apply to both, SFRM only where metadata must be fetched
 * from the array. The controller also provides the hooks used by the
 * SBD and BATMAN comparison policies.
 */

#ifndef DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
#define DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "cache/assoc_cache.hh"
#include "cache/sector.hh"
#include "cache/tag_cache.hh"
#include "dram/presets.hh"
#include "memside/footprint_prefetcher.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

/** Configuration of a sectored memory-side cache. */
struct SectoredDramCacheConfig
{
    /** Scaled default: 64 MB stands in for the paper's 4 GB. */
    std::uint64_t capacityBytes = 64 * kMiB;
    std::uint32_t ways = 4;
    std::uint64_t sectorBytes = 4 * kKiB;

    /** The cache's DRAM channels; with writeChannels set they serve
     *  only reads (hits and eviction read-outs). */
    DramConfig array = presets::hbm_102();
    TagCacheConfig tagCache{};
    FootprintConfig footprint{};

    /** Metadata in on-die SRAM: each lookup takes this many CPU cycles
     *  and no array bandwidth (tagCache is unused). Unset: metadata
     *  lives in the array behind the tag cache. */
    std::optional<Cycle> onDieTagCycles;

    /** A separate channel set for fills and incoming writes. Unset:
     *  one bidirectional channel set. */
    std::optional<DramConfig> writeChannels;

    std::uint64_t numSectors() const { return capacityBytes / sectorBytes; }
    std::uint64_t numSets() const { return numSectors() / ways; }
    std::uint32_t
    blocksPerSector() const
    {
        return static_cast<std::uint32_t>(sectorBytes / kBlockBytes);
    }
};

/**
 * The sectored eDRAM cache: 16-way, 1 KB sectors, 8-cycle on-die tags,
 * 51.2 GB/s read and write channel sets. Scaled: 4 MB stands in for
 * the paper's 256 MB.
 */
SectoredDramCacheConfig edramCacheConfig();

/** The sectored memory-side cache controller. */
class SectoredDramCache final : public MemSideCache
{
  public:
    SectoredDramCache(EventQueue &eq, DramSystem &main_memory,
                      PartitionPolicy &policy,
                      const SectoredDramCacheConfig &cfg);

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;

    /** The channels serving reads (all traffic unless split). */
    DramSystem &array() { return array_; }
    TagCache &tagCache() { return tagCache_; }
    const SectoredDramCacheConfig &config() const { return cfg_; }

    /** Write back all dirty blocks of a sector and mark them clean
     *  (SBD forced cleaning). No-op if the sector is absent. */
    void cleanSector(Addr addr_in_sector);

    /** Flush and invalidate every sector of a set (BATMAN disable). */
    void flushSet(std::uint64_t set);

    void cleanRegion(Addr a) override { cleanSector(a); }
    void flushSetImpl(std::uint64_t set) override { flushSet(set); }
    bool warmTouch(Addr addr, bool is_write) override;

    const TagCache *
    tagCacheStats() const override
    {
        return cfg_.onDieTagCycles ? nullptr : &tagCache_;
    }
    void resetWarmupStats() override;

    /** Test/diagnostic probe: is this block valid in the cache? */
    bool isBlockResident(Addr addr) const;

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

    Counter steeredToMemory; ///< SBD latency-based steers
    Counter steerOverridden; ///< steers cancelled because block dirty

  private:
    /** lookupTags() read id of a posted write (no read record). */
    static constexpr std::uint32_t kNoRead = ~std::uint32_t(0);

    // Address helpers. Sector size and way count are powers of two in
    // every production geometry; the FastDivs make the per-access
    // sector/block split shifts rather than hardware divides.
    std::uint64_t sectorNumber(Addr a) const { return secDiv_.div(a); }
    /** Hashed set index (spreads base-aligned per-core slices). */
    std::uint64_t setOf(std::uint64_t sec) const
    {
        return dir_.mapSet(indexHash(sec));
    }
    /** The full sector number serves as the tag. */
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

    /** DRAM-array address of a cached data block (sector-frame map). */
    Addr dataAddr(std::uint64_t sec, std::uint32_t blk) const;

    /** DRAM-array address of a set's metadata block. */
    Addr metaAddr(std::uint64_t set) const;

    /** Count one array read / write toward the window's MS$ demand
     *  (per direction too when the channels are split). */
    void
    demandRead()
    {
        window_.aMs++;
        if (cfg_.writeChannels)
            window_.aMsRead++;
    }
    void
    demandWrite()
    {
        window_.aMs++;
        if (cfg_.writeChannels)
            window_.aMsWrite++;
    }

    /** Resolve read @p id once the tag state is known. */
    void resolveRead(std::uint32_t id);

    /** The SFRM memory read of read @p id has returned. */
    void sfrmDone(std::uint32_t id);

    /** The demand memory read of miss @p id has returned: fill, then
     *  complete. */
    void missDone(std::uint32_t id);

    /** Allocate a sector, evicting a victim and fetching the predicted
     *  footprint. @return whether the demand block will be filled. */
    bool allocateSector(std::uint64_t sec, std::uint32_t blk);

    /** Decide and record the fill of one block (FWB at launch).
     *  @return true when the block will be filled. */
    bool launchFill(std::uint64_t sec, std::uint32_t blk);

    /** Record a metadata mutation (tag-cache dirty or direct write). */
    void markMetaDirty(std::uint64_t set);

    /** Charge a metadata write-back CAS. */
    void issueMetaWrite(std::uint64_t set);

    /** Run the tag lookup for read @p id (kNoRead: a posted write);
     *  the read resolves once metadata is available. */
    void lookupTags(Addr addr, std::uint32_t id);

    /** Write back dirty blocks of a victim sector. */
    void writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                         const SectorMeta &meta);

    SectoredDramCacheConfig cfg_;
    /** Per-access address split by cfg_.sectorBytes (see sectorNumber). */
    FastDiv secDiv_;
    /** Frame selection by cfg_.ways (see dataAddr). */
    FastDiv wayDiv_;
    DramSystem array_;
    /** The write channels, when cfg_.writeChannels splits them off. */
    std::unique_ptr<DramSystem> writeChannels_;
    /** Where fills and writes go: writeChannels_ or array_. */
    DramSystem *writeArray_;
    AssocCache<SectorMeta> dir_;
    TagCache tagCache_;
    FootprintPrefetcher footprint_;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
