/**
 * @file
 * Dirty-bit cache (DBC) for the Alloy cache (paper Section IV-B).
 *
 * The Alloy cache stores tag+data (TAD) together in DRAM, so knowing
 * whether a direct-mapped set holds a dirty line normally requires a TAD
 * fetch. The DBC is a small SRAM cache (paper: 32K entries, 4-way, one
 * borrowed L3 way, 5-cycle lookup) whose entries each hold the dirty
 * bits of a stretch of 64 consecutive Alloy sets, enabling IFRM without
 * touching the DRAM array.
 */

#ifndef DAPSIM_CACHE_DIRTY_BIT_CACHE_HH
#define DAPSIM_CACHE_DIRTY_BIT_CACHE_HH

#include <cstdint>

#include "cache/assoc_cache.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dapsim
{

struct DirtyBitCacheConfig
{
    std::uint64_t entries = 4096; ///< scaled from the paper's 32K
    std::uint32_t ways = 4;
    std::uint32_t setsPerEntry = 64;
    std::uint32_t lookupCycles = 5;
};

/** SRAM cache of per-Alloy-set dirty bits. */
class DirtyBitCache
{
  public:
    explicit DirtyBitCache(const DirtyBitCacheConfig &cfg);

    /** DBC probe outcome for one Alloy set. */
    struct Probe
    {
        bool hit = false;     ///< group resident in the DBC
        bool dirty = false;   ///< dirty bit of the probed set (if hit)
    };

    /** Probe the dirty bit of Alloy set @p alloy_set. Allocates on miss
     *  (with all bits conservatively dirty until updated). */
    Probe probe(std::uint64_t alloy_set);

    /** Record the known dirty state of @p alloy_set. */
    void update(std::uint64_t alloy_set, bool dirty);

    /** Checkpoint directory + statistics (see src/ckpt/). */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    const DirtyBitCacheConfig &config() const { return cfg_; }

    Counter hits;
    Counter misses;

  private:
    struct Entry
    {
        std::uint64_t dirtyBits = ~std::uint64_t(0);
        std::uint64_t knownBits = 0; ///< which bits have been observed
    };

    std::uint64_t groupOf(std::uint64_t alloy_set) const;
    std::uint64_t setIndex(std::uint64_t group) const;
    std::uint64_t tagOf(std::uint64_t group) const;

    DirtyBitCacheConfig cfg_;
    AssocCache<Entry> dir_;
    /** Group split by cfg_.setsPerEntry and tag split by
     *  dir_.numSets(): shifts for power-of-two geometries. */
    FastDiv groupDiv_;
    FastDiv tagDiv_;
};

} // namespace dapsim

#endif // DAPSIM_CACHE_DIRTY_BIT_CACHE_HH
