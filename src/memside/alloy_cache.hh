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

#include "cache/dirty_bit_cache.hh"
#include "ckpt/serializer.hh"
#include "common/types.hh"
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

/**
 * The Alloy cache's tag store: one 64-bit frame word per set.
 *
 * A direct-mapped set has exactly one candidate, so the store keeps no
 * replacement state (no valid/NRU masks, no LRU clocks) — only what a
 * TAD's tag half holds:
 *
 *   bit 63 valid | bit 62 dirty | bits 58..61 reserved (zero) |
 *   bits 0..57 block number
 *
 * Block numbers of 64-bit addresses are below 2^58, so the whole block
 * number is the tag. An empty frame is the zero word. Installing a
 * block replaces the frame and returns the old word as the victim:
 * exactly what a 1-way LRU AssocCache reports (pinned by
 * tests/test_alloy_frames.cc).
 */
class AlloyFrames
{
  public:
    static constexpr std::uint64_t kValid = std::uint64_t(1) << 63;
    static constexpr std::uint64_t kDirty = std::uint64_t(1) << 62;
    static constexpr std::uint64_t kTagMask =
        (std::uint64_t(1) << 58) - 1;
    static constexpr std::uint64_t kReserved =
        ~(kValid | kDirty | kTagMask);

    explicit AlloyFrames(std::uint64_t sets);

    /** Set of block number @p block (hashed, so strided blocks
     *  spread; a mask for power-of-two set counts). */
    std::uint64_t
    setOf(std::uint64_t block) const
    {
        return setDiv_.mod(indexHash(block));
    }

    std::uint64_t &operator[](std::uint64_t set) { return frames_[set]; }
    std::uint64_t operator[](std::uint64_t set) const
    {
        return frames_[set];
    }

    /** Whether frame word @p w holds block @p tag; the dirty bit is
     *  not part of the compare. */
    static bool
    holds(std::uint64_t w, std::uint64_t tag)
    {
        return (w & ~kDirty) == (kValid | tag);
    }
    static bool valid(std::uint64_t w) { return (w & kValid) != 0; }
    static bool dirty(std::uint64_t w) { return (w & kDirty) != 0; }
    static std::uint64_t tagOf(std::uint64_t w) { return w & kTagMask; }

    /** Frame word of a resident block. */
    static std::uint64_t
    word(std::uint64_t tag, bool dirty)
    {
        return kValid | (dirty ? kDirty : 0) | tag;
    }

    /** Install @p tag clean in @p set; @return the replaced word (the
     *  victim; zero when the frame was empty). */
    std::uint64_t
    install(std::uint64_t set, std::uint64_t tag)
    {
        const std::uint64_t victim = frames_[set];
        frames_[set] = word(tag, false);
        return victim;
    }

    /** Checkpoint the frame array (the Alloy "ms" section's tag
     *  store); restore() throws CkptError on a set-count mismatch or
     *  a malformed frame word. */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

  private:
    std::vector<std::uint64_t> frames_;
    FastDiv setDiv_;
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
    std::uint64_t setOf(Addr a) const
    {
        return frames_.setOf(blockNumber(a));
    }

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

    /** Write back @p victim (a replaced frame word) if it is dirty. */
    void writeBackVictim(std::uint64_t victim);

    AlloyCacheConfig cfg_;
    DramSystem array_;
    AlloyFrames frames_;
    DirtyBitCache dbc_;
    std::vector<std::uint8_t> predictor_;
    /** Predictor index reduction (a mask for power-of-two sizes). */
    FastDiv predDiv_;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_ALLOY_CACHE_HH
