/**
 * @file
 * Unit tests for the event payload (common/inline_callback.hh): its
 * size and triviality, the empty states, a full 16-byte capture,
 * copies, and the pre-bound member form used by recurring simulator
 * events.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "common/event_queue.hh"
#include "common/inline_callback.hh"

namespace dapsim
{
namespace
{

static_assert(sizeof(InlineCallback) <= 24,
              "an event payload is an invoke pointer + 16 bytes");
static_assert(std::is_trivially_copyable_v<InlineCallback>);
static_assert(std::is_trivially_destructible_v<InlineCallback>);
static_assert(std::is_same_v<EventQueue::Callback, InlineCallback>);

TEST(InlineCallback, EmptyStates)
{
    InlineCallback cb;
    EXPECT_FALSE(static_cast<bool>(cb));
    cb = InlineCallback(nullptr);
    EXPECT_FALSE(static_cast<bool>(cb));

    int hits = 0;
    cb = InlineCallback([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(hits, 1);
    cb = nullptr;
    EXPECT_FALSE(static_cast<bool>(cb));
    cb = [&hits] { ++hits; };
    cb.reset();
    EXPECT_FALSE(static_cast<bool>(cb));
    EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, FullSixteenByteCapture)
{
    // The `{this, id}` shape at its limit: two 8-byte words.
    std::uint64_t sum = 0;
    const std::uint64_t id = 0x1234'5678'9abc'def0ULL;
    InlineCallback cb([p = &sum, id] { *p += id; });
    cb();
    EXPECT_EQ(sum, id);
}

TEST(InlineCallback, CopiesShareNothing)
{
    // A copy is a byte copy of the capture: both invoke the same
    // target, and resetting one leaves the other intact.
    int hits = 0;
    InlineCallback a([&hits] { ++hits; });
    InlineCallback b = a;
    a.reset();
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    InlineCallback c;
    c = b;
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MutableCaptureRunsThroughConstCall)
{
    int seen = 0;
    const InlineCallback cb([n = 0, &seen]() mutable { seen = ++n; });
    cb();
    cb();
    EXPECT_EQ(seen, 2);
}

struct RecurringCounter
{
    int ticks = 0;
    void tick() { ++ticks; }
};

TEST(InlineCallback, PreBoundMemberReuse)
{
    // The recurring-event form: re-created every period, captures one
    // pointer. Simulate many reschedule rounds.
    RecurringCounter rc;
    for (int i = 0; i < 1000; ++i) {
        InlineCallback cb =
            InlineCallback::of<&RecurringCounter::tick>(&rc);
        cb();
    }
    EXPECT_EQ(rc.ticks, 1000);
}

TEST(InlineCallback, StateBeyondTheCaptureLivesInARecord)
{
    // The idiom for larger state: park it in an index-addressed record
    // and let the event name the record.
    struct Rec
    {
        std::uint64_t a, b, c, d;
    };
    struct Owner
    {
        Rec recs[4]{};
        std::uint64_t out = 0;
        void fire(std::uint32_t id)
        {
            const Rec &r = recs[id];
            out = r.a + r.b + r.c + r.d;
        }
    } owner;
    owner.recs[2] = Rec{1, 2, 3, 4};
    EventQueue eq;
    eq.schedule(5, [o = &owner, id = std::uint32_t(2)] { o->fire(id); });
    eq.run();
    EXPECT_EQ(owner.out, 10u);
}

} // namespace
} // namespace dapsim
