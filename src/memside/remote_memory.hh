/**
 * @file
 * Remote-memory tier: a third bandwidth source behind a serialized
 * link (CXL/RDMA-attached disaggregated memory).
 *
 * The model follows the disaggregated-memory configs used by
 * far-memory simulators: the remote pool's bandwidth is the local
 * main memory's divided by a scale factor, and every transfer pays a
 * fixed latency adder on top of its slot on the link. The link itself
 * is a single serialized resource — one 64B transfer occupies it for
 * blockBytes/peakGBps — with a credit window bounding transfers in
 * flight; excess requests wait in a FIFO. This is deliberately
 * simpler than the bank-level DRAM model: remote pools are
 * bandwidth/latency-shaped by their interconnect, not by row-buffer
 * locality the requester could exploit.
 */

#ifndef DAPSIM_MEMSIDE_REMOTE_MEMORY_HH
#define DAPSIM_MEMSIDE_REMOTE_MEMORY_HH

#include <cstdint>
#include <string>

#include "ckpt/serializer.hh"
#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/channel.hh"

namespace dapsim
{

/** Remote tier configuration (all knobs of the disaggregated model). */
struct RemoteConfig
{
    /** Whether the system has a remote tier at all. */
    bool enabled = false;

    /** Remote link peak bandwidth = local main-memory peak / this. */
    double bwScaleFactor = 4.0;

    /** Latency adder paid by every transfer, in nanoseconds. */
    double addLatencyNs = 120.0;

    /** Credit window: transfers in flight on the link before new
     *  requests queue behind them. */
    std::uint32_t maxOutstanding = 32;
};

/** One remote-memory pool (a single additional bandwidth source). */
class RemoteMemory
{
  public:
    using Done = EventQueue::Callback;

    /**
     * @param eq              event queue supplying time
     * @param cfg             the remote-tier knobs (must be enabled)
     * @param local_peak_gbps the local main memory's peak GB/s, which
     *                        cfg.bwScaleFactor divides
     */
    RemoteMemory(EventQueue &eq, const RemoteConfig &cfg,
                 double local_peak_gbps);

    /** Issue one 64B access. Writes are posted (null @p done). */
    void access(Addr addr, bool is_write, Done done = nullptr);

    const RemoteConfig &config() const { return cfg_; }

    /** Peak link bandwidth in GB/s. */
    double peakGBps() const { return peakGBps_; }

    /** Peak link bandwidth in 64B accesses per CPU cycle (DAP's
     *  B_remote). */
    double peakAccessesPerCpuCycle() const;

    /** Data moved over the link, in bytes. */
    std::uint64_t
    dataBytes() const
    {
        return (reads.value() + writes.value()) * kBlockBytes;
    }

    /** Mean read latency (request to data) in ticks. */
    double
    meanReadLatency() const
    {
        return reads.value() ? static_cast<double>(readLatencySum_) /
                                   static_cast<double>(reads.value())
                             : 0.0;
    }

    /** Link utilization in [0,1] over @p elapsed ticks. */
    double
    busUtilization(Tick elapsed) const
    {
        return elapsed ? static_cast<double>(busyTicks_) /
                             static_cast<double>(elapsed)
                       : 0.0;
    }

    /** High-water mark of queued + in-flight transfers. */
    std::uint64_t queuePeakDepth() const { return queuePeak_; }

    /** Transfers currently queued or in flight. */
    std::size_t
    outstanding() const
    {
        return inFlight_.size() + pending_.size();
    }

    /**
     * Fast-forward bypass accounting: add modeled transfer counts from
     * an analytically priced interval so reads/writes (and thus
     * dataBytes() and bandwidth stats) cover fast-forwarded traffic.
     * The link and its latency tracking never see these transfers
     * (meanReadLatency() stays the detailed-segment mean). Never
     * called in exact fidelity.
     */
    void
    creditFastForward(std::uint64_t r, std::uint64_t w)
    {
        reads.inc(r);
        writes.inc(w);
    }

    /** Attach a bus observability hook; @p source names this tier in
     *  emitted spans. Null detaches. */
    void
    setBusTrace(BusTraceHook *hook, const std::string &source)
    {
        trace_ = hook;
        traceName_ = source;
    }

    /**
     * Checkpoint the link state (see src/ckpt/). Queued posted writes
     * serialize with link times relative to now, so a restore into a
     * fresh event queue replays the remaining drain exactly; reads
     * carry completion callbacks we cannot serialize, so save() throws
     * CkptError while any read is outstanding.
     */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    // Statistics (sampler-registrable).
    Counter reads;
    Counter writes;

  private:
    struct Transfer
    {
        Addr addr = 0;
        bool isWrite = false;
        Tick issuedAt = 0;   ///< arrival time (read latency base)
        Tick completeAt = 0; ///< link slot end + latency adder
        Done done;
    };

    void issue(Transfer t);
    void onComplete();
    void notePeak();

    EventQueue &eq_;
    RemoteConfig cfg_;
    double peakGBps_ = 0.0;
    Tick transferTicks_ = 0; ///< link occupancy of one 64B transfer
    Tick latencyTicks_ = 0;  ///< the fixed adder
    Tick busyUntil_ = 0;     ///< link reservation frontier

    /** Completions are in issue order: the link serializes transfers
     *  and the latency adder is constant, so FIFOs suffice. Rings, so
     *  transfers cycling through do not allocate (inFlight_ is
     *  reserved to the credit window). */
    RingDeque<Transfer> inFlight_;
    RingDeque<Transfer> pending_;

    BusTraceHook *trace_ = nullptr;
    std::string traceName_;

    std::uint64_t busyTicks_ = 0;
    std::uint64_t readLatencySum_ = 0;
    std::uint64_t queuePeak_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_REMOTE_MEMORY_HH
