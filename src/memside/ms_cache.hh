/**
 * @file
 * Base class for memory-side cache (MS$) controllers.
 *
 * Owns the pieces every architecture shares: the main-memory handle,
 * the partitioning policy, the per-window demand counters that feed
 * DAP's learning loop, and the common hit/miss statistics the paper
 * reports (read+write hit ratio, CAS fractions, fill/bypass counts).
 */

#ifndef DAPSIM_MEMSIDE_MS_CACHE_HH
#define DAPSIM_MEMSIDE_MS_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"
#include "memside/remote_memory.hh"
#include "policies/partition_policy.hh"

namespace dapsim
{

class TagCache;

/** Abstract memory-side cache controller. */
class MemSideCache
{
  public:
    /** Completion callback for reads (writes are posted): a 24-byte
     *  event payload (common/inline_callback.hh). */
    using Done = EventQueue::Callback;

    MemSideCache(EventQueue &eq, DramSystem &main_memory,
                 PartitionPolicy &policy);
    virtual ~MemSideCache();

    MemSideCache(const MemSideCache &) = delete;
    MemSideCache &operator=(const MemSideCache &) = delete;

    /** A read (L3 read miss) arriving from the SRAM hierarchy. */
    virtual void handleRead(Addr addr, Done done) = 0;

    /** A write (L3 dirty eviction) arriving from the SRAM hierarchy. */
    virtual void handleWrite(Addr addr) = 0;

    /** Number of 64B CAS operations the cache arrays have performed. */
    virtual std::uint64_t arrayCasOps() const;

    /** One DRAM channel set of the MS$, under its stats-row name. */
    struct NamedArray
    {
        const char *name;
        DramSystem *dram;
    };

    /** The MS$'s DRAM channel sets: "msArray", or "msReadArray" then
     *  "msWriteArray" when reads and writes use separate channels.
     *  Empty for an MS$ without an array. */
    const std::vector<NamedArray> &arrays() const { return arrays_; }

    /** The SRAM tag cache in front of array-resident metadata, whose
     *  statistics the MS$ reports; nullptr when there is none. */
    virtual const TagCache *tagCacheStats() const { return nullptr; }

    /** Forget what the functional warm-up did to predictor statistics
     *  (tag cache, dirty-bit cache). Default: nothing to forget. */
    virtual void resetWarmupStats() {}

    /** Write back dirty blocks of a region and mark them clean (SBD
     *  forced cleaning). Default: no-op. */
    virtual void cleanRegion(Addr) {}

    /** Flush and invalidate a set (BATMAN disabling). Default: no-op. */
    virtual void flushSetImpl(std::uint64_t) {}

    /**
     * Functional warm-up touch: update directories (and tag cache /
     * footprint history) with zero timing and zero statistics, so a
     * short timed measurement starts from a steady-state cache.
     * Returns whether the touch hit (block present before the touch);
     * architectures without a directory report misses.
     */
    virtual bool warmTouch(Addr, bool /*is_write*/) { return false; }

    /**
     * Fast-forward bypass accounting: fold modeled array CAS counts
     * from an analytically priced interval into arrayCasOps() so
     * delivered-bandwidth statistics cover fast-forwarded traffic.
     * Reads go to the first channel set and writes to the last (the
     * same one unless split). Timing and directory state are
     * untouched. Never called in exact fidelity.
     */
    void creditFastForward(std::uint64_t reads, std::uint64_t writes);

    /**
     * Functional policy warm-up at a sampled window entry: feed one
     * modeled steady-state window to the policy so credit state
     * re-converges before the next detailed segment, and clear the
     * partially accumulated demand counters. Never called in exact
     * fidelity.
     */
    void
    warmPolicyWindow(const WindowCounters &modeled)
    {
        policy_.beginWindow(modeled);
        window_ = WindowCounters{};
    }

    /**
     * Start the recurring W-cycle window that feeds demand counters to
     * the policy. Idempotent; stopWindows() halts it (so the event
     * queue can drain at the end of a run).
     */
    void startWindows(Cycle window_cycles);
    void stopWindows();

    /**
     * Checkpoint controller state (see src/ckpt/). Derived classes
     * extend this with their directories/arrays; the base serializes
     * the shared window counters and statistics. save() requires the
     * window machinery to be stopped (the pre-run quiescent state).
     */
    virtual void save(ckpt::Serializer &s) const { saveBase(s); }
    virtual void restore(ckpt::Deserializer &d) { restoreBase(d); }

    DramSystem &mainMemory() { return mm_; }
    PartitionPolicy &policy() { return policy_; }

    /** Attach the optional remote tier; lower-tier accesses are then
     *  split between DDR and the remote pool by the policy. */
    void setRemote(RemoteMemory *remote) { remote_ = remote; }
    RemoteMemory *remote() { return remote_; }

    /** Read+write hit ratio (the paper's combined hit rate). */
    double
    hitRatio() const
    {
        const std::uint64_t h = readHits.value() + writeHits.value();
        const std::uint64_t t = h + readMisses.value() +
                                writeMisses.value();
        return t ? static_cast<double>(h) / static_cast<double>(t) : 0.0;
    }

    double
    readMissRatio() const
    {
        const std::uint64_t t = readHits.value() + readMisses.value();
        return t ? static_cast<double>(readMisses.value()) /
                       static_cast<double>(t)
                 : 0.0;
    }

    /** Read records opened and closed so far; equal whenever no read
     *  is in flight (request conservation). */
    std::uint64_t readRecordsOpened() const { return readsOpened_; }
    std::uint64_t readRecordsClosed() const { return readsClosed_; }

    /** Fraction of all CAS ops (MM + array) served by main memory. */
    double
    mainMemoryCasFraction() const
    {
        const std::uint64_t mm = mm_.casOps();
        const std::uint64_t total = mm + arrayCasOps();
        return total ? static_cast<double>(mm) /
                           static_cast<double>(total)
                     : 0.0;
    }

    // Common statistics (architecture code updates these).
    Counter readHits;
    Counter readMisses;
    Counter writeHits;
    Counter writeMisses;
    Counter cleanReadHits;
    Counter fills;
    Counter fillsBypassed;
    Counter writesBypassed;
    Counter forcedReadMisses;   ///< IFRM applications
    Counter speculativeReads;   ///< SFRM issues
    Counter speculativeWasted;  ///< SFRM responses dropped (dirty hits)
    Counter sectorEvictions;
    Counter dirtyWritebacks;    ///< dirty blocks written to main memory

  protected:
    /**
     * One demand read in flight below the L3: the state its lookup,
     * memory and array responses share. Events name it by index
     * (`{this, id}` captures, see readEvent()); it is released when
     * the last of them has fired.
     */
    struct ReadRec
    {
        Addr addr = 0;
        std::uint64_t sec = 0; ///< sector of a miss fill
        std::uint32_t blk = 0; ///< block of a miss fill
        bool fill = false;     ///< the miss data is written to the array
        bool spec = false;     ///< SFRM / early memory read launched
        bool memDone = false;  ///< that memory read has returned
        bool needMem = false;  ///< the lookup resolved to wait for it
        /** Events naming this record that have not fired yet. */
        std::uint8_t pending = 0;
        Done done; ///< CPU completion (fired at most once)
    };

    /** Open a read record for @p addr completing with @p done. */
    std::uint32_t openRead(Addr addr, Done done);

    ReadRec &readRec(std::uint32_t id) { return reads_[id]; }

    /**
     * An event that runs `self->*Method(id)` for read @p id and then
     * settles it; counts one more pending response on the record.
     */
    template <auto Method, class T>
    Done
    readEvent(T *self, std::uint32_t id)
    {
        ++reads_[id].pending;
        return [self, id] {
            (self->*Method)(id);
            self->MemSideCache::settleRead(id);
        };
    }

    /** Hand read @p id's completion to the one access that now
     *  serves it (the record no longer fires it). */
    Done
    takeDone(std::uint32_t id)
    {
        const Done d = reads_[id].done;
        reads_[id].done = nullptr;
        return d;
    }

    /** Fire read @p id's completion now, if not already handed on. */
    void
    completeRead(std::uint32_t id)
    {
        const Done d = takeDone(id);
        if (d)
            d();
    }

    /** One pending response of read @p id has been handled; the last
     *  one releases the record. */
    void settleRead(std::uint32_t id);

    /** Register a DRAM channel set for arrays() (construction only). */
    void
    addArray(const char *name, DramSystem &dram)
    {
        arrays_.push_back({name, &dram});
    }

    /** Shared part of save()/restore() for derived classes. */
    void saveBase(ckpt::Serializer &s) const;
    void restoreBase(ckpt::Deserializer &d);

    /**
     * Issue one lower-tier (main-memory-bound) access. With a remote
     * tier attached the policy picks DDR vs remote per access; without
     * one this is exactly mm_.access(). All architecture code funnels
     * its main-memory traffic through here.
     */
    void memAccess(Addr addr, bool is_write, Done done = nullptr,
                   bool low_priority = false);

    /** Demand counters being accumulated for the current window. */
    WindowCounters window_;

    EventQueue &eq_;
    DramSystem &mm_;
    PartitionPolicy &policy_;
    RemoteMemory *remote_ = nullptr;

  private:
    void windowTick();

    std::vector<NamedArray> arrays_;

    bool windowsRunning_ = false;
    Cycle windowCycles_ = 0;

    /** Read-record arena + freelist (see ReadRec), pre-sized past the
     *  reads a run keeps in flight. */
    static constexpr std::size_t kReadReserve = 512;
    std::vector<ReadRec> reads_;
    std::vector<std::uint32_t> readFree_;
    std::uint64_t readsOpened_ = 0;
    std::uint64_t readsClosed_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_MS_CACHE_HH
