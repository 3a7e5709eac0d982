/**
 * @file
 * One DRAM channel: request queues, FR-FCFS-style scheduler, data bus.
 *
 * The scheduler ranks requests in a bounded scan window by the tick at
 * which their data could start moving (row hits on free banks first),
 * lets bank preparations proceed in parallel on independent banks, and
 * places data transfers into gaps of a bus-reservation timeline. The
 * window is kept as per-bank position masks, so a pick probes each
 * active bank once instead of visiting every windowed request.
 * Writes are batched between drain watermarks to limit turnarounds;
 * low-priority reads (prefetch fetches) queue behind demand reads.
 */

#ifndef DAPSIM_DRAM_CHANNEL_HH
#define DAPSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/dram_config.hh"

namespace dapsim
{

/** A single 64B column access presented to a channel. */
struct ChannelRequest
{
    std::uint64_t row = 0;
    std::uint32_t bank = 0;
    bool isWrite = false;
    /** Extra data-bus command clocks (Alloy TAD uses burst-6 = +1). */
    std::uint32_t extraDataClocks = 0;
    /** Low-priority reads (footprint prefetch fetches) queue behind
     *  demand reads so fill bursts cannot crowd the critical path. */
    bool lowPriority = false;
    /** Invoked when the access's data transfer (plus I/O) completes. */
    EventQueue::Callback onComplete;
};

/**
 * Observability hook receiving one span per data-bus occupancy (see
 * src/obs/ ChromeTraceWriter). Null hooks cost one branch per CAS.
 */
struct BusTraceHook
{
    virtual ~BusTraceHook() = default;

    /**
     * @param source  stable name of the DRAM subsystem ("mainMemory",
     *                "msArray", ...)
     * @param channel channel index within the subsystem
     * @param start   tick the data bus becomes busy
     * @param end     tick the occupancy (burst + turnaround) ends
     * @param isWrite write vs read CAS
     * @param rowHit  row-buffer hit vs miss
     */
    virtual void onBusSpan(const std::string &source,
                           std::uint32_t channel, Tick start, Tick end,
                           bool isWrite, bool rowHit) = 0;
};

/**
 * Channel-level constants resolved from DramConfig at construction:
 * everything issue()/kick() used to re-derive per access (period
 * multiplications, the look-ahead window) lives on one read-only
 * cache line next to the BankTiming line.
 */
struct alignas(64) ChannelTiming
{
    Tick period = 0;     ///< command-clock period (ps)
    Tick turnaround = 0; ///< direction-flip bus occupancy
    Tick ioDelay = 0;    ///< post-burst board/floorplan I/O delay
    Tick maxAhead = 0;   ///< scheduler look-ahead window (see maxAhead())
    Tick refi = 0;       ///< refresh interval (0 = disabled)

    static ChannelTiming from(const DramConfig &cfg);
};

/** One channel with its banks, queues and scheduler. */
class Channel
{
  public:
    Channel(EventQueue &eq, const DramConfig &cfg, std::uint32_t index);

    /** Enqueue an access; queues are unbounded (MLP is core-bounded).
     *  O(1): demand and low-priority reads live in separate FIFOs, so
     *  a demand read never scans past queued prefetch fetches. */
    void enqueue(ChannelRequest req);

    /** Attach the bus observability hook; @p source names this DRAM
     *  subsystem in emitted spans. Null detaches. */
    void
    setBusTrace(BusTraceHook *hook, std::string source)
    {
        busTrace_ = hook;
        traceSource_ = std::move(source);
    }

    std::size_t
    readQueueLen() const
    {
        return readDemandQ_.size() + readLowQ_.size();
    }
    std::size_t writeQueueLen() const { return writeQ_.size(); }

    /** Ticks the data bus has been occupied (for utilization stats). */
    Tick busBusyTicks() const { return busBusy_; }

    /**
     * Checkpoint bank/bus/scheduler state (see src/ckpt/). Requests in
     * flight hold completion closures that cannot be serialized, so
     * save() requires empty queues and no pending scheduler kick — the
     * quiescent state every channel is in before the timed run starts.
     */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    // Aggregate statistics.
    Counter kicks;
    Counter kicksEmpty;
    Counter kicksWait;
    Counter kicksIssue;
    Counter casReads;
    Counter casWrites;
    Counter rowHits;
    Counter rowMisses;
    Counter turnarounds;
    Counter refreshes;
    Average readQueueDelay;   ///< ticks from enqueue to data start (reads)
    Average readLatency;      ///< ticks from enqueue to completion (reads)

  private:
    /**
     * Queued request with the completion callback parked elsewhere:
     * window lookups and positional erases move 32-byte PODs instead
     * of (move-constructing) callback-carrying ~112-byte
     * ChannelRequests. @c cb indexes cbSlots_.
     */
    struct HotReq
    {
        std::uint64_t row;
        Tick enqueuedAt;
        std::uint32_t bank;
        std::uint32_t extraDataClocks;
        std::uint32_t cb;
    };

    /** Park @p cb in a free slot; returns its index. */
    std::uint32_t putCb(EventQueue::Callback &&cb);

    /** Move the callback out of slot @p idx and recycle the slot. */
    EventQueue::Callback takeCb(std::uint32_t idx);

    /** Try to issue requests; reschedules itself as needed. */
    void kick();

    /** Arrange for kick() to run at tick @p when (coalesced). */
    void scheduleKick(Tick when);

    /** Pre-bound kick event body: drops stale (superseded) wakeups. */
    void kickTick();

    /** Scan classes: reads (demand, then low-priority) and writes. */
    static constexpr std::size_t kReads = 0;
    static constexpr std::size_t kWrites = 1;

    /** One bank's share of a scan window: bit i of @c pos is set when
     *  window position i targets the bank, and of @c hit when that
     *  request's row is the bank's open row (hit is a subset of pos). */
    struct BankWindow
    {
        std::uint64_t pos = 0;
        std::uint64_t hit = 0;
    };

    /**
     * The first schedulerScanDepth requests of one scan class, summed
     * up per bank. Every request a bank holds in the window shares one
     * of two data-ready ticks (open-row hit or not), so the earliest
     * position of each kind per active bank is all a pick needs.
     */
    struct Window
    {
        std::uint64_t active = 0; ///< banks with a windowed request
        std::vector<BankWindow> banks;
    };

    /** Winning candidate of one pick: window position plus its data
     *  ready tick, so kick() need not re-probe the winner's bank. */
    struct Pick
    {
        std::size_t idx = 0;
        Tick dataReadyAt = 0;
    };

    /** A bus slot: its start tick and the reservation index at which
     *  claiming it keeps busResv_ sorted. */
    struct BusSlot
    {
        Tick start;
        std::size_t pos;
    };

    /** The request at window position @p i of scan class @p cls. */
    const HotReq &windowEntry(std::size_t cls, std::size_t i) const;

    /** Record @p r at the (free) window position @p i of @p w. */
    void admit(Window &w, std::size_t i, const HotReq &r);

    /** Open window position @p i of @p w: positions at or after @p i
     *  move up one; the one past the window end falls out. */
    void openSlot(Window &w, std::size_t i);

    /** Close window position @p i (held by a request to @p bank):
     *  later positions move down one. */
    void closeSlot(Window &w, std::size_t i, std::uint32_t bank);

    /** Recompute @p bank's open-row hit masks after its row changed. */
    void refreshHits(std::uint32_t bank);

    /** FR-FCFS pick over @p w: earliest data-ready tick, ties to the
     *  earliest window position. One Bank::probe per active bank.
     *  The window must be non-empty. */
    Pick pick(const Window &w) const;

    /** Earliest bus slot of length @p occ starting at or after
     *  @p ready (expired reservations are dropped first). */
    BusSlot placeBus(Tick ready, Tick occ);

    /** Issue @p p's request from scan class @p cls. @p probed is
     *  kick()'s placement of a plain burst at p.dataReadyAt, reused
     *  when the issue occupies exactly that. */
    void issue(std::size_t cls, const Pick &p, const BusSlot &probed);

    /** Longest tolerated gap between now and a candidate's data start
     *  before the scheduler goes back to sleep: a full row-conflict
     *  preparation plus a few bursts, precomputed in timing_. */
    Tick maxAhead() const { return timing_.maxAhead; }

    /** Periodic all-bank refresh (active when cfg.tREFI > 0). */
    void refreshTick();

    EventQueue &eq_;
    const DramConfig &cfg_;
    /** Hot read-only timing constants (two dedicated cache lines). */
    BankTiming bankTiming_;
    ChannelTiming timing_;
    [[maybe_unused]] std::uint32_t index_;

    RingDeque<HotReq> readDemandQ_;
    RingDeque<HotReq> readLowQ_;
    RingDeque<HotReq> writeQ_;
    /** Window summaries of the two scan classes (kReads, kWrites);
     *  derived from the queues, so never checkpointed. */
    Window windows_[2];
    std::size_t depth_;        ///< cfg_.schedulerScanDepth (1..64)
    std::uint64_t depthMask_;  ///< window positions 0..depth_-1
    /** Parked completion callbacks + freelist (see HotReq::cb). */
    std::vector<EventQueue::Callback> cbSlots_;
    std::vector<std::uint32_t> cbFree_;
    std::vector<Bank> banks_;

    /** Bus reservations [start, end): disjoint and sorted by start
     *  (so by end too). Entries before busHead_ have expired; the
     *  prefix is erased once it reaches kBusCompactAt. */
    std::vector<std::pair<Tick, Tick>> busResv_;
    std::size_t busHead_ = 0;
    static constexpr std::size_t kBusCompactAt = 64;

    bool lastWasWrite_ = false;
    bool draining_ = false;
    bool kickPending_ = false;
    Tick nextKickAt_ = 0;
    Tick busBusy_ = 0;

    BusTraceHook *busTrace_ = nullptr;
    std::string traceSource_;
};

} // namespace dapsim

#endif // DAPSIM_DRAM_CHANNEL_HH
