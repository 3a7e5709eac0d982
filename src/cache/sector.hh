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

#include "cache/assoc_cache.hh"

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

/**
 * Functional warm-up touch of block @p blk of sector @p sec in a
 * sector directory whose tag is the full sector number (the sectored
 * DRAM cache and the eDRAM cache): allocate on a sector miss with the
 * footprint @p predictor's mask, teaching it the victim's used blocks,
 * then mark the block touched and valid (or dirty). No timing, no
 * statistics.
 *
 * @tparam Predictor provides predict(sec, blk) -> block mask and
 *         recordEviction(sec, used_mask)
 * @return whether the touch hit (block present before the touch)
 */
template <typename Predictor>
bool
warmTouchSector(AssocCache<SectorMeta> &dir, Predictor &predictor,
                std::uint64_t set, std::uint64_t sec, std::uint32_t blk,
                bool is_write)
{
    SectorMeta *m = dir.find(set, sec);
    const bool hit = m != nullptr && (is_write || m->isValid(blk));
    if (m == nullptr) {
        const std::uint64_t mask = predictor.predict(sec, blk);
        auto victim = dir.insert(set, sec, SectorMeta{});
        if (victim.valid)
            predictor.recordEviction(victim.tag, victim.value.touchedMask);
        m = dir.find(set, sec);
        m->validMask = mask;
    }
    dir.touch(set, sec);
    m->touch(blk);
    if (is_write)
        m->setDirty(blk);
    else
        m->setValid(blk);
    return hit;
}

} // namespace dapsim

#endif // DAPSIM_CACHE_SECTOR_HH
