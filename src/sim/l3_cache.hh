/**
 * @file
 * Shared inclusive L3 cache (paper Section V: 8 MB, 16-way, 20-cycle
 * round trip; scaled to 1 MB by default).
 *
 * Functional set-associative directory with a fixed lookup latency.
 * Read misses go down to the memory-side cache; dirty evictions become
 * MS$ writes (the paper's "L4 cache writes"). Lines are installed at
 * miss detection (MSHR coalescing idealized), which is the standard
 * trace-driven approximation.
 */

#ifndef DAPSIM_SIM_L3_CACHE_HH
#define DAPSIM_SIM_L3_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/assoc_cache.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

struct L3Config
{
    /** Scaled default: 1 MB stands in for the paper's 8 MB. */
    std::uint64_t capacityBytes = 1 * kMiB;
    std::uint32_t ways = 16;
    /** Round-trip hit latency in CPU cycles. */
    Cycle latencyCycles = 20;

    std::uint64_t
    numSets() const
    {
        return capacityBytes / kBlockBytes / ways;
    }
};

/** The shared L3. */
class L3Cache
{
  public:
    using Done = EventQueue::Callback;

    L3Cache(EventQueue &eq, const L3Config &cfg, MemSideCache &ms);

    /**
     * One access from a core: a read (L2 load miss) or a write (L2
     * dirty writeback). @p done fires when a read's data is available;
     * writes are posted.
     */
    void access(Addr addr, bool is_write, Done done);

    /**
     * What one warmTouch() did, and the MS$ warm touches it caused, in
     * the order they must reach the MS$: the dirty victim's write
     * first, then the demand read.
     */
    struct WarmOutcome
    {
        bool l3Hit = false;       ///< block was present in the L3
        bool msWriteback = false; ///< dirty victim @c victim goes to the MS$
        bool msRead = false;      ///< the touched block is read from the MS$
        Addr victim = 0;          ///< address of the written-back victim
    };

    /** Functional warm-up: update the directory and report the MS$
     *  touches the access causes (see forwardWarm()); no timing, no
     *  statistics. Never calls the MS$. */
    WarmOutcome warmTouch(Addr addr, bool is_write);

    /**
     * Apply the MS$ touches @p o reports for an L3 warm touch of
     * @p addr to @p ms's warm path, in order.
     * @return whether the demand read found its block in the MS$
     *         (false when there was no read)
     */
    static bool
    forwardWarm(MemSideCache &ms, Addr addr, const WarmOutcome &o)
    {
        if (o.msWriteback)
            ms.warmTouch(o.victim, true);
        return o.msRead && ms.warmTouch(addr, false);
    }

    double
    missRatio() const
    {
        const auto t = hits.value() + misses.value();
        return t ? static_cast<double>(misses.value()) / t : 0.0;
    }

    /** Mean read-miss service latency in ticks. */
    double
    meanReadMissLatency() const
    {
        return readMissLatency.mean();
    }

    const L3Config &config() const { return cfg_; }

    /** Checkpoint directory contents and counters (see src/ckpt/). */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    /** MSHR records opened and closed so far; equal whenever no read
     *  miss is in flight (request conservation). */
    std::uint64_t missRecordsOpened() const { return contsOpened_; }
    std::uint64_t missRecordsClosed() const { return contsClosed_; }

    Counter hits;
    Counter misses;
    Counter readMisses;
    Counter writebacksToMs; ///< dirty evictions sent to the MS$
    Average readMissLatency;

  private:
    /** The dirty flag is a byte, not a bool: checkpoints restore the
     *  value array raw, so a crafted byte other than 0/1 must not
     *  load an invalid bool (any non-zero byte reads as dirty). */
    struct Line
    {
        std::uint8_t dirty = 0;
    };

    std::uint64_t setOf(Addr a) const
    {
        return dir_.mapSet(indexHash(blockNumber(a)));
    }
    std::uint64_t tagOf(Addr a) const { return blockNumber(a); }

    void install(Addr addr, bool dirty);

    /**
     * MSHR record of an in-flight read miss, parked by index: the
     * lookup and completion events capture {this, slot}.
     */
    struct MissCont
    {
        Addr addr;
        Tick issued;
        Done done;
    };

    std::uint32_t putCont(Addr addr, Tick issued, Done done);

    /** Body of the post-lookup event for miss continuation @p slot. */
    void lookupDone(std::uint32_t slot);

    /** The MS$ has served miss @p slot: sample, recycle, complete. */
    void missDone(std::uint32_t slot);

    EventQueue &eq_;
    L3Config cfg_;
    MemSideCache &ms_;
    AssocCache<Line> dir_;
    /** Parked read-miss continuations + freelist (see MissCont),
     *  pre-sized past the misses a run keeps in flight. */
    static constexpr std::size_t kContReserve = 512;
    std::vector<MissCont> contSlots_;
    std::vector<std::uint32_t> contFree_;
    std::uint64_t contsOpened_ = 0;
    std::uint64_t contsClosed_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_SIM_L3_CACHE_HH
