/**
 * @file
 * Alloy cache: direct-mapped DRAM cache with fused tag-and-data (TAD)
 * units (Qureshi & Loh; paper Sections II, IV-B, VI-B).
 *
 * Every lookup moves a 72B TAD over the HBM bus (burst-6 over three
 * channel clocks instead of burst-4 over two), so the useful data
 * bandwidth is 2/3 of peak. A hit/miss predictor launches the memory
 * read early on predicted misses. For DAP, IFRM is enabled by the SRAM
 * dirty-bit cache (DBC), fills are implicitly bypassed when an IFRM
 * line is absent, and residual main-memory bandwidth funds
 * opportunistic write-through. The BEAR presence bit lets dirty L3
 * evictions skip the TAD fetch.
 */

#ifndef DAPSIM_MEMSIDE_ALLOY_CACHE_HH
#define DAPSIM_MEMSIDE_ALLOY_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/assoc_cache.hh"
#include "cache/dirty_bit_cache.hh"
#include "dram/presets.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

/** Configuration of the Alloy cache. */
struct AlloyCacheConfig
{
    /** Scaled default: 64 MB stands in for the paper's 4 GB. */
    std::uint64_t capacityBytes = 64 * kMiB;

    DramConfig array = presets::hbm_102();
    DirtyBitCacheConfig dbc{};

    /** Extra channel clocks to move a TAD instead of a 64B block. */
    std::uint32_t tadExtraClocks = 1;

    /** BEAR presence bit in the L3: dirty evictions of blocks known to
     *  be cached skip the TAD fetch. */
    bool presenceBit = true;

    /** Hit/miss predictor table size (region-hash, 2-bit counters). */
    std::size_t predictorEntries = 4096;

    std::uint64_t numSets() const { return capacityBytes / kBlockBytes; }
};

/** The Alloy cache controller. */
class AlloyCache final : public MemSideCache
{
  public:
    AlloyCache(EventQueue &eq, DramSystem &main_memory,
               PartitionPolicy &policy, const AlloyCacheConfig &cfg);

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;

    DramSystem &array() { return array_; }
    DirtyBitCache &dbc() { return dbc_; }
    const AlloyCacheConfig &config() const { return cfg_; }

    /** Effective peak data bandwidth in accesses per CPU cycle: peak
     *  derated by the TAD bloat (2/3 at the default burst). */
    double effectivePeakAccPerCycle() const;

    bool warmTouch(Addr addr, bool is_write) override;

    void
    resetWarmupStats() override
    {
        dbc_.hits.reset();
        dbc_.misses.reset();
    }

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

    Counter predictorHits;    ///< correct hit/miss predictions
    Counter predictorMisses;  ///< mispredictions
    Counter earlyMissReads;   ///< memory reads launched on predicted miss
    Counter wastedEarlyReads; ///< predicted-miss reads that hit after all

  private:
    struct Line
    {
        bool dirty = false;
    };

    std::uint64_t setOf(Addr a) const
    {
        return dir_.mapSet(indexHash(blockNumber(a)));
    }
    std::uint64_t tagOf(Addr a) const { return blockNumber(a); }

    /** Array address of a set's TAD. */
    Addr tadAddr(std::uint64_t set) const
    {
        return set * kBlockBytes;
    }

    /** Predictor slot of @p a's 4 KB region. */
    std::size_t predictorIndex(Addr a) const;
    bool predictHit(Addr a) const;
    void trainPredictor(Addr a, bool hit);

    /** Resolve read @p id after the TAD arrives. */
    void resolveRead(std::uint32_t id);

    /** The predicted-miss early memory read of @p id has returned. */
    void earlyReadDone(std::uint32_t id);

    /** Fill @p addr over the victim of its set (TAD write). */
    void fill(Addr addr);

    AlloyCacheConfig cfg_;
    DramSystem array_;
    AssocCache<Line> dir_;
    DirtyBitCache dbc_;
    std::vector<std::uint8_t> predictor_;
    /** Predictor index reduction (a mask for power-of-two sizes). */
    FastDiv predDiv_;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_ALLOY_CACHE_HH
