/**
 * @file
 * Global event queue driving all timed simulation in dapsim.
 *
 * A single EventQueue instance owns simulated time. Components schedule
 * closures at absolute ticks; ties are broken by insertion order so that
 * simulations are fully deterministic.
 *
 * Internally the queue is a hierarchical timing wheel (see DESIGN.md
 * §9): a near-future wheel of power-of-two buckets indexed by tick
 * quantum, a far-future overflow min-heap that refills the wheel as its
 * window advances, and a "current run" — the earliest occupied bucket,
 * drained through a small array of node ids sorted by (tick, insertion
 * seq). Events live in one recycled node pool (24-byte payloads, see
 * common/inline_callback.hh); buckets are linked lists through it. The
 * common case — events clustered on clock edges within ~1 µs of now —
 * costs O(1) per schedule and amortized O(log bucket-occupancy)
 * comparisons per dispatch, with no heap allocation once the pool has
 * reached the peak pending population and no per-dispatch bucket
 * scans. Dispatch order is exactly (tick, insertion seq), bit-identical
 * to a binary-heap scheduler; tests/test_event_wheel_fuzz.cc enforces
 * this differentially.
 */

#ifndef DAPSIM_COMMON_EVENT_QUEUE_HH
#define DAPSIM_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_callback.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace dapsim
{

/** Deterministic O(1) timing-wheel event scheduler. */
class EventQueue
{
  public:
    /** 24-byte trivially copyable event payload (invoke pointer plus
     *  a 16-byte capture, see common/inline_callback.hh). */
    using Callback = InlineCallback;

    /** Sentinel returned by nextEventTick() when no event is pending.
     *  Scheduling at this tick is rejected. */
    static constexpr Tick kNoEvent = ~Tick(0);

    /**
     * Observability hook invoked after every dispatched event (see
     * src/obs/). The hook must only observe — it runs between events,
     * so mutating simulator state from it would break determinism
     * guarantees documented elsewhere. Null (the default) costs one
     * predictable branch per event.
     */
    struct DispatchHook
    {
        virtual ~DispatchHook() = default;

        /** @param now tick of the event just executed
         *  @param pending events still queued after it ran */
        virtual void onDispatch(Tick now, std::size_t pending) = 0;
    };

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events still pending. */
    std::size_t pending() const { return pending_; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending events (sizing observability). */
    std::size_t peakPending() const { return peakPending_; }

    /**
     * Schedule @p cb at absolute tick @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_) [[unlikely]]
            panic("EventQueue: scheduling in the past");
        if (when == kNoEvent) [[unlikely]]
            panic("EventQueue: event time overflow");
        if (++pending_ > peakPending_)
            peakPending_ = pending_;

        const std::uint64_t q = when >> kQuantumBits;
        if (q > base_) [[likely]] {
            if (q < base_ + kSlots) [[likely]] {
                pushBucket(q, newNode(when, seq_++, cb));
            } else {
                overflow_.push_back(Entry{when, seq_++, cb});
                std::push_heap(overflow_.begin(), overflow_.end(),
                               heapLater);
            }
        } else {
            // At or before the run's quantum (same-tick events
            // included): joins the current run at its (when, seq)
            // position.
            insertRun(when, seq_++, cb);
        }
    }

    /** Schedule @p cb @p delta ticks from now. */
    void
    scheduleAfter(Tick delta, Callback cb)
    {
        schedule(now_ + delta, cb);
    }

    /**
     * Tick of the earliest pending event, or kNoEvent if none. May
     * promote the next bucket into the current run (cheap, order-
     * preserving); simulated time and dispatch order are unaffected.
     */
    Tick
    nextEventTick()
    {
        if (runHead_ < runOrder_.size())
            return nodes_[runOrder_[runHead_]].when;
        return nextEventTickSlow();
    }

    /** Execute the single earliest event. @return false if queue empty. */
    bool step();

    /** Run until the queue drains or @p limit ticks is reached. */
    void
    run(Tick limit = kNoEvent)
    {
        runUntil([] { return false; }, limit);
    }

    /**
     * Run until @p done returns true, the queue drains, or @p limit.
     * The predicate is a template parameter so hot callers (System's
     * main loop) pay a direct call, not std::function indirection.
     */
    template <class Pred>
    void
    runUntil(Pred &&done, Tick limit = kNoEvent)
    {
        while (!done()) {
            const Tick t = nextEventTick();
            if (t == kNoEvent || t > limit)
                break;
            dispatchOne();
        }
    }

    /** Attach (or clear, with nullptr) the dispatch observability hook. */
    void setDispatchHook(DispatchHook *hook) { hook_ = hook; }

    /**
     * Pre-size internal storage for an expected steady-state pending
     * population (e.g. channels x queue depth) so the run loop never
     * reallocates. Purely an optimisation; growth past the hint works.
     */
    void reserve(std::size_t expected_pending);

    /** Pending population every queue is pre-sized for at
     *  construction (see reserve()). */
    static constexpr std::size_t kDefaultPending = 1024;

  private:
    /** log2 of the bucket quantum: 256 ps, one CPU cycle (250 ps) of
     *  headroom, so same-edge events share a bucket. */
    static constexpr unsigned kQuantumBits = 8;
    /** log2 of the wheel slot count: 4096 slots x 256 ps ≈ 1.05 µs of
     *  near-future horizon (~4.2k CPU cycles). DRAM CAS completions,
     *  scheduler kicks, ROB wakeups and DAP windows land here; only
     *  refresh/sampler-period events overflow to the heap. */
    static constexpr unsigned kSlotBits = 12;
    static constexpr std::size_t kSlots = std::size_t(1) << kSlotBits;
    static constexpr std::size_t kSlotMask = kSlots - 1;
    static constexpr std::size_t kBitmapWords = kSlots / 64;
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t(0);
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** One wheel or run event in the node pool: its (when, seq)
     *  dispatch key, its payload, and the link of its wheel slot's
     *  list (or of the free list). */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        std::uint32_t next;
    };

    /** A wheel slot: a list of pool nodes in append order. */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        /** Append order is already (when, seq) order — true whenever
         *  events arrive time-sorted (clock-edge clustering), and lets
         *  promote() skip the sort. */
        bool sorted = true;
    };

    /** Far-future overflow entry (cold). */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Execute the next event; caller has verified one is pending. */
    void
    dispatchOne()
    {
        if (runHead_ == runOrder_.size())
            ensureRun();
        const std::uint32_t id = runOrder_[runHead_];
        ++runHead_;
        Node &n = nodes_[id];
        now_ = n.when;
        // Copy out and recycle before invoking: the callback may
        // schedule, growing the pool under a reference to its node.
        const Callback cb = n.cb;
        n.next = freeHead_;
        freeHead_ = id;
        --pending_;
        ++executed_;
#if defined(__GNUC__) || defined(__clang__)
        // Overlap the next node's cache-line fetch with this
        // callback's execution; dispatch order is already known.
        if (runHead_ < runOrder_.size())
            __builtin_prefetch(&nodes_[runOrder_[runHead_]]);
#endif
        cb();
        if (hook_ != nullptr) [[unlikely]]
            hook_->onDispatch(now_, pending_);
    }

    /** Take a node from the free list (or grow the pool). */
    std::uint32_t
    newNode(Tick when, std::uint64_t seq, const Callback &cb)
    {
        std::uint32_t id = freeHead_;
        if (id != kNil) {
            freeHead_ = nodes_[id].next;
            nodes_[id] = Node{when, seq, cb, kNil};
        } else {
            id = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{when, seq, cb, kNil});
        }
        return id;
    }

    /** (when, seq) order of two pool nodes. */
    bool
    nodeBefore(std::uint32_t x, std::uint32_t y) const
    {
        const Node &a = nodes_[x], &b = nodes_[y];
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Out-of-line tail of nextEventTick(): the current run is
     *  drained, so promote the next bucket (or jump to the overflow
     *  min) before peeking. */
    Tick nextEventTickSlow();

    /** Make the current run non-empty, promoting the next occupied
     *  bucket or jumping to the overflow minimum. @return false if no
     *  event is pending anywhere. */
    bool ensureRun();

    /** Move bucket @p quantum's list into the run as the new dispatch
     *  order and sort it; advances the window (base_) to @p quantum. */
    void promote(std::uint64_t quantum);

    /** Sorted insertion into the current run (binary search over the
     *  undispatched suffix of runOrder_). */
    void
    insertRun(Tick when, std::uint64_t seq, const Callback &cb)
    {
        const std::uint32_t id = newNode(when, seq, cb);
        const auto pos = std::upper_bound(
            runOrder_.begin() + static_cast<std::ptrdiff_t>(runHead_),
            runOrder_.end(), id,
            [this](std::uint32_t x, std::uint32_t y) {
                return nodeBefore(x, y);
            });
        runOrder_.insert(pos, id);
    }

    /** First occupied slot in window order after base_, as an absolute
     *  quantum index; kNoSlot if the wheel is empty. */
    std::uint64_t findFirstOccupied() const;

    /** Move overflow-heap entries that now fall inside the wheel
     *  window [base_, base_ + kSlots) into their buckets (entries at
     *  or before base_ go straight into the current run). */
    void refillFromOverflow();

    /** Append pool node @p id to the wheel slot of @p quantum. */
    void
    pushBucket(std::uint64_t quantum, std::uint32_t id)
    {
        const std::size_t slot =
            static_cast<std::size_t>(quantum) & kSlotMask;
        Slot &s = slots_[slot];
        if (s.head == kNil) {
            s.head = id;
            s.sorted = true;
        } else {
            // Direct schedules carry monotonic seq, so only a time step
            // backwards breaks the append order; overflow refills can
            // carry any (when, seq).
            if (nodeBefore(id, s.tail))
                s.sorted = false;
            nodes_[s.tail].next = id;
        }
        s.tail = id;
        occupied_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    }

    /** Drop the run's consumed order, keeping capacity. */
    void
    clearRun()
    {
        runOrder_.clear();
        runHead_ = 0;
    }

    static bool
    heapLater(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Every wheel and run event, recycled through an intrusive free
     *  list: the pool grows to the peak pending population once and
     *  the steady state allocates nothing. */
    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNil;

    /** Near-future wheel: a node list per quantum, bitmap for O(1)
     *  skip of empty slots. Invariant: listed nodes have quantum in
     *  (base_, base_ + kSlots) — the slot of base_ itself is always
     *  empty (its events live in the run). */
    std::vector<Slot> slots_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    /** Absolute quantum index of the current run (monotonic). */
    std::uint64_t base_ = 0;

    /** Far-future overflow: std::push_heap/pop_heap min-heap. All
     *  entries have quantum >= base_ + kSlots. */
    std::vector<Entry> overflow_;

    /** Current run: every pending event with quantum <= base_, as
     *  node ids sorted by (when, seq). Dispatch order is
     *  runOrder_[runHead_..]; positions before runHead_ are consumed
     *  (their nodes already recycled). */
    std::vector<std::uint32_t> runOrder_;
    std::size_t runHead_ = 0;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    std::size_t peakPending_ = 0;
    DispatchHook *hook_ = nullptr;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_EVENT_QUEUE_HH
