#include "common/event_queue.hh"

#include <algorithm>
#include <bit>

namespace dapsim
{

EventQueue::EventQueue() : slots_(kSlots) { reserve(kDefaultPending); }

std::uint64_t
EventQueue::findFirstOccupied() const
{
    const std::size_t start = static_cast<std::size_t>(base_) & kSlotMask;
    std::size_t word = start >> 6;
    std::uint64_t bits =
        occupied_[word] & (~std::uint64_t(0) << (start & 63));
    // One pass over every word, plus a revisit of the first word for
    // the bits below `start` (they are one full wrap away in time).
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        if (bits != 0) {
            const std::size_t slot =
                (word << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t dist = (slot - start) & kSlotMask;
            return base_ + dist;
        }
        word = (word + 1) & (kBitmapWords - 1);
        bits = occupied_[word];
    }
    return kNoSlot;
}

void
EventQueue::refillFromOverflow()
{
    const std::uint64_t end = base_ + kSlots;
    while (!overflow_.empty() &&
           (overflow_.front().when >> kQuantumBits) < end) {
        std::pop_heap(overflow_.begin(), overflow_.end(), heapLater);
        const Entry e = overflow_.back();
        overflow_.pop_back();
        const std::uint64_t q = e.when >> kQuantumBits;
        if (q <= base_)
            insertRun(e.when, e.seq, e.cb);
        else
            pushBucket(q, newNode(e.when, e.seq, e.cb));
    }
}

void
EventQueue::promote(std::uint64_t quantum)
{
    const std::size_t slot = static_cast<std::size_t>(quantum) & kSlotMask;
    clearRun(); // only consumed ids remain; drop them
    Slot &s = slots_[slot];
    for (std::uint32_t id = s.head; id != kNil; id = nodes_[id].next)
        runOrder_.push_back(id);
    const bool sorted = s.sorted;
    s = Slot{};
    occupied_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    base_ = quantum;

    // Bucket append order mixes direct schedules with overflow refills,
    // so (when, seq) order must be restored explicitly — unless the
    // pushes happened to arrive in order (tracked per slot; the common
    // clock-edge case).
    if (!sorted)
        std::sort(runOrder_.begin(), runOrder_.end(),
                  [this](std::uint32_t x, std::uint32_t y) {
                      return nodeBefore(x, y);
                  });

    // The window end moved with base_; pull newly-near events in.
    refillFromOverflow();
}

bool
EventQueue::ensureRun()
{
    if (runHead_ < runOrder_.size())
        return true;
    const std::uint64_t q = findFirstOccupied();
    if (q != kNoSlot) {
        promote(q);
        return true;
    }
    if (overflow_.empty())
        return false;
    // Wheel empty: jump the window to the overflow minimum. The refill
    // lands that quantum's events directly in the (empty) run.
    clearRun();
    base_ = overflow_.front().when >> kQuantumBits;
    refillFromOverflow();
    return true;
}

Tick
EventQueue::nextEventTickSlow()
{
    if (!ensureRun())
        return kNoEvent;
    return nodes_[runOrder_[runHead_]].when;
}

bool
EventQueue::step()
{
    if (nextEventTick() == kNoEvent)
        return false;
    dispatchOne();
    return true;
}

void
EventQueue::reserve(std::size_t expected_pending)
{
    nodes_.reserve(expected_pending);
    overflow_.reserve(expected_pending);
    runOrder_.reserve(std::min<std::size_t>(expected_pending, 4096));
}

} // namespace dapsim
