/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * Models the properties that couple bandwidth demand to performance in
 * the paper's evaluation: a 4-wide retire stage, a 224-entry ROB that
 * lets independent misses overlap (MLP), and bounded outstanding
 * misses. The core consumes a stream of memory requests separated by
 * instruction gaps; reads block retirement until their data returns,
 * writes (L2 dirty evictions) are posted.
 *
 * When the core finishes its target instruction count it records its
 * finish time and keeps running (the paper's rate-mode methodology:
 * "threads that finish early continue to run").
 */

#ifndef DAPSIM_CPU_ROB_CORE_HH
#define DAPSIM_CPU_ROB_CORE_HH

#include <cstdint>
#include <functional>

#include "ckpt/serializer.hh"
#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dapsim
{

/** One entry of the core's access trace. */
struct TraceRequest
{
    Addr addr = 0;
    bool isWrite = false;
    /** Instructions executed since the previous memory request. */
    std::uint64_t instrGap = 1;
};

/** Core configuration (Skylake-class, paper Section V). */
struct CoreConfig
{
    std::uint32_t retireWidth = 4;
    std::uint32_t robEntries = 224;
    /** Maximum outstanding read misses (MSHR-style bound). */
    std::uint32_t maxOutstanding = 40;
    /** Target instruction count before finish time is recorded. */
    std::uint64_t instructions = 1'000'000;
};

/** Trace-driven ROB/MLP core. */
class RobCore
{
  public:
    /** Pulls the next trace record; returns false when the stream ends
     *  (streams are expected to be endless for rate mode). */
    using Fetcher = std::function<bool(TraceRequest &)>;

    /** Issues a memory access to the cache hierarchy; @p done must be
     *  invoked when a read completes (ignored for writes). Bound once
     *  at construction; the completion itself is an allocation-free
     *  EventQueue::Callback. */
    using Issue =
        std::function<void(Addr, bool, EventQueue::Callback)>;

    RobCore(EventQueue &eq, const CoreConfig &cfg, std::uint32_t core_id,
            Fetcher fetch, Issue issue);

    /** Begin fetching/issuing. */
    void start();

    /** True once the target instruction count has been retired. */
    bool finished() const { return finishedAt_ != 0; }
    Tick finishTick() const { return finishedAt_; }

    /** Retired instructions (fractional accounting, floored). */
    std::uint64_t
    retiredInstructions() const
    {
        return static_cast<std::uint64_t>(retired_);
    }

    /** IPC over the interval up to the finish tick (or now). */
    double ipcAt(Tick t) const;

    /** IPC at the recorded finish time. */
    double
    finishIpc() const
    {
        return ipcAt(finishedAt_);
    }

    std::uint32_t coreId() const { return coreId_; }

    /**
     * Checkpoint retirement/fetch state (see src/ckpt/). Outstanding
     * reads hold completion closures, so save() requires an empty
     * in-flight window — true before start() has been called.
     */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    Counter wakeups;
    Counter readsIssued;
    Counter writesIssued;
    Average readLatency; ///< ticks from issue to completion

  private:
    struct Inflight
    {
        std::uint64_t instrIndex; ///< position in the instruction stream
        bool completed = false;
        Tick issuedAt = 0;
    };

    /** Advance fractional retirement up to the current tick. */
    void advanceRetirement();

    /** Issue as many trace records as the ROB/MSHR bounds allow. */
    void pump();

    /** Arrange a wakeup so a drained stream still reaches its finish
     *  instruction count (used when the trace is finite). */
    void scheduleFinishWakeup();

    /** Completion of the read at in-flight slot @p idx. */
    void readDone(std::uint64_t token);

    EventQueue &eq_;
    CoreConfig cfg_;
    std::uint32_t coreId_;
    Fetcher fetch_;
    Issue issue_;

    /** Next trace record, pre-fetched. */
    TraceRequest pending_{};
    bool pendingValid_ = false;
    bool streamEnded_ = false;

    /** Instruction index the next trace record occupies. */
    std::uint64_t fetchInstr_ = 0;

    double retired_ = 0.0;
    Tick lastRetireTick_ = 0;

    /** Outstanding reads, FIFO by age (reserved to maxOutstanding).
     *  Completed reads are popped from the front at once, so a
     *  non-empty window's front is the oldest incomplete read. */
    RingDeque<Inflight> inflight_;
    std::uint64_t tokenBase_ = 0;   ///< token of inflight_.front()

    Tick finishedAt_ = 0;
    bool wakeupPending_ = false;
};

} // namespace dapsim

#endif // DAPSIM_CPU_ROB_CORE_HH
