/**
 * @file
 * Differential fuzz harness for the timing-wheel event queue.
 *
 * Drives the production EventQueue and the frozen binary-heap
 * reference (tests/reference_event_queue.hh) with byte-identical
 * random schedules — same-tick bursts, in-window deltas, deltas that
 * straddle the wheel horizon, far-future refresh-like periods, and
 * limit-bounded run phases with re-injection at the current tick —
 * and requires the two dispatch logs to match exactly. Any divergence
 * in (tick, insertion-order) dispatch is a wheel bug by definition.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "reference_event_queue.hh"

namespace dapsim
{
namespace
{

/** One fuzz run against queue type Q: every rng draw depends only on
 *  the schedule so far, so EventQueue and RefEventQueue consume the
 *  identical decision stream. */
template <class Q>
struct Driver
{
    Q eq;
    Rng rng;
    std::vector<std::pair<Tick, std::uint64_t>> log;
    std::uint64_t nextId = 0;
    std::uint64_t budget;

    Driver(std::uint64_t seed, std::uint64_t event_budget)
        : rng(seed), budget(event_budget)
    {
        log.reserve(event_budget + 64);
    }

    void
    spawn(Tick when)
    {
        const std::uint64_t id = nextId++;
        eq.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        log.emplace_back(eq.now(), id);
        const std::uint64_t kids = rng.below(3);
        for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
            --budget;
            const std::uint64_t r = rng.below(100);
            Tick delta;
            if (r < 15) {
                delta = 0; // same-tick burst
            } else if (r < 65) {
                // Well inside the wheel window (~1.05 us).
                delta = 1 + rng.below(500'000);
            } else if (r < 90) {
                // Straddles the window boundary back and forth.
                delta = 1 + rng.below(3'000'000);
            } else {
                // Refresh/sampler-like far future (overflow heap).
                delta = 7'812'500 + rng.below(30'000'000);
            }
            spawn(eq.now() + delta);
        }
    }

    /** Run in limit-bounded phases with top-up injection, then drain. */
    void
    go()
    {
        for (int i = 0; i < 40 && budget > 0; ++i) {
            --budget;
            spawn(rng.below(2'000'000));
        }
        for (int phase = 0; phase < 30; ++phase) {
            eq.run(eq.now() + rng.below(5'000'000));
            (void)eq.nextEventTick(); // peek must not perturb state
            for (int j = 0; j < 3 && budget > 0; ++j) {
                --budget;
                // Includes when == now(): the post-limit same-tick path.
                spawn(eq.now() + rng.below(2'000'000));
            }
        }
        eq.run();
    }
};

TEST(EventWheelFuzz, MatchesReferenceHeapAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Driver<EventQueue> wheel(seed, 20'000);
        Driver<RefEventQueue> heap(seed, 20'000);
        wheel.go();
        heap.go();
        ASSERT_EQ(wheel.log.size(), heap.log.size()) << "seed " << seed;
        for (std::size_t i = 0; i < wheel.log.size(); ++i) {
            ASSERT_EQ(wheel.log[i], heap.log[i])
                << "seed " << seed << " event " << i;
        }
        EXPECT_EQ(wheel.eq.pending(), 0u);
        EXPECT_EQ(wheel.eq.executed(), heap.eq.executed());
    }
}

TEST(EventWheelFuzz, WindowBoundaryAndWrapDeltas)
{
    // Deterministic deltas targeting the wheel's edges: quantum
    // boundaries, the exact horizon (4096 slots x 256 ps), one past
    // it, multiple wraps, and bitmap word boundaries.
    const std::vector<Tick> deltas = {
        1,         255,       256,        257,        63 * 256,
        64 * 256,  65 * 256,  4095 * 256, 4096 * 256, 4096 * 256 + 1,
        2 * 4096 * 256, 10 * 4096 * 256, 1'000'000'000'000ull,
    };

    auto runOn = [&](auto &eq) {
        // One pointer to the log and the queue keeps the capture
        // within the callback's 16 bytes.
        struct Ctx
        {
            std::vector<std::pair<Tick, int>> log;
            std::remove_reference_t<decltype(eq)> *q;
        } ctx{{}, &eq};
        int id = 0;
        for (int round = 0; round < 3; ++round)
            for (Tick d : deltas) {
                const int i = id++;
                eq.schedule(eq.now() + d, [&ctx, i] {
                    ctx.log.emplace_back(ctx.q->now(), i);
                });
            }
        eq.run();
        return ctx.log;
    };

    EventQueue wheel;
    RefEventQueue heap;
    EXPECT_EQ(runOn(wheel), runOn(heap));
}

TEST(EventWheelFuzz, SameTickSelfRescheduleStaysOrdered)
{
    // An event that schedules more work at its own tick must see that
    // work run in the same dispatch round, after already-queued peers.
    auto runOn = [](auto &eq) {
        std::vector<int> order;
        eq.schedule(100, [&] {
            order.push_back(0);
            eq.schedule(100, [&] { order.push_back(2); });
        });
        eq.schedule(100, [&] { order.push_back(1); });
        eq.schedule(200, [&] { order.push_back(3); });
        eq.run();
        return order;
    };
    EventQueue wheel;
    RefEventQueue heap;
    EXPECT_EQ(runOn(wheel), runOn(heap));
}

} // namespace
} // namespace dapsim
