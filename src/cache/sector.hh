/**
 * @file
 * Per-sector metadata for sectored (sub-blocked) memory-side caches.
 *
 * A sector is an allocation unit of up to 64 contiguous 64B blocks
 * (paper: 4 KB for the DRAM cache, 1 KB for eDRAM); valid and dirty
 * state is kept per block in bitmaps.
 */

#ifndef DAPSIM_CACHE_SECTOR_HH
#define DAPSIM_CACHE_SECTOR_HH

#include <bit>
#include <cstdint>

namespace dapsim
{

/** Valid/dirty block bitmaps of one resident sector. */
struct SectorMeta
{
    std::uint64_t validMask = 0;
    std::uint64_t dirtyMask = 0;
    /** Blocks actually referenced by demand accesses this residency
     *  (what the footprint predictor must learn — valid bits include
     *  prefetched-but-unused blocks and would self-reinforce). */
    std::uint64_t touchedMask = 0;

    static std::uint64_t bit(std::uint32_t blk) { return 1ULL << blk; }

    bool isValid(std::uint32_t blk) const { return validMask & bit(blk); }
    bool isDirty(std::uint32_t blk) const { return dirtyMask & bit(blk); }

    void
    setValid(std::uint32_t blk)
    {
        validMask |= bit(blk);
    }

    void
    setDirty(std::uint32_t blk)
    {
        validMask |= bit(blk);
        dirtyMask |= bit(blk);
    }

    void
    clearBlock(std::uint32_t blk)
    {
        validMask &= ~bit(blk);
        dirtyMask &= ~bit(blk);
    }

    void
    touch(std::uint32_t blk)
    {
        touchedMask |= bit(blk);
    }

    std::uint32_t validCount() const { return std::popcount(validMask); }
    std::uint32_t dirtyCount() const { return std::popcount(dirtyMask); }
    bool anyDirty() const { return dirtyMask != 0; }
};

} // namespace dapsim

#endif // DAPSIM_CACHE_SECTOR_HH
