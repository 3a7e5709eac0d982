/**
 * @file
 * Differential fuzz test: the production DRAM channel scheduler
 * (per-bank window summaries) against the frozen per-entry scan in
 * reference_channel.hh.
 *
 * Both channels run on their own event queue and receive the same
 * pinned-RNG arrival stream: demand, low-priority and write mixes,
 * write bursts across the drain watermarks, bank skew and row
 * locality, extra data clocks, turnarounds and refresh. Every case
 * compares each request's completion tick, the issue order (recovered
 * from the bus spans, which are emitted at issue), every channel
 * counter, and the number of events each queue executed — so a
 * superseded or moved kick shows up too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "dram/presets.hh"
#include "reference_channel.hh"

namespace dapsim
{
namespace
{

/** One request of the pinned arrival stream. */
struct Arrival
{
    Tick at;
    std::uint64_t row;
    std::uint32_t bank;
    std::uint32_t extraDataClocks;
    bool isWrite;
    bool lowPriority;
};

/** Shape of one traffic mix. */
struct Traffic
{
    const char *name;
    double pWrite;      ///< share of single writes
    double pLow;        ///< share of low-priority reads
    double pHot;        ///< share of requests to the hot banks
    std::uint32_t hot;  ///< number of hot banks
    double pRowReuse;   ///< reuse the bank's last row
    double pExtra;      ///< requests with extra data clocks
    double pBurst;      ///< per phase: a write burst arrives at once
    bool refresh;
};

constexpr Traffic kMixes[] = {
    {"demand", 0.0, 0.0, 0.5, 2, 0.5, 0.0, 0.0, false},
    {"prefetch", 0.1, 0.45, 0.6, 3, 0.7, 0.0, 0.0, false},
    {"writes", 0.3, 0.15, 0.4, 2, 0.6, 0.0, 0.5, false},
    {"tad_refresh", 0.2, 0.25, 0.7, 4, 0.4, 0.3, 0.3, true},
};

/** Pinned stream of @p n requests over @p banks banks: phases of
 *  saturating, moderate and sparse arrivals, plus write bursts. */
std::vector<Arrival>
makeStream(const Traffic &t, std::uint32_t banks, Tick burst,
           std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::uint64_t> lastRow(banks, 0);
    std::vector<Arrival> out;
    out.reserve(n + 64);
    const auto pickBank = [&]() -> std::uint32_t {
        const std::uint32_t hot = std::min(t.hot, banks);
        if (rng.chance(t.pHot))
            return static_cast<std::uint32_t>(rng.below(hot));
        return static_cast<std::uint32_t>(rng.below(banks));
    };
    const auto pickRow = [&](std::uint32_t bank) {
        if (!rng.chance(t.pRowReuse))
            lastRow[bank] = rng.below(6);
        return lastRow[bank];
    };
    Tick now = 0;
    while (out.size() < n) {
        // Mean gaps of 0.25, 1 and 4 bursts: backlog, balance, drain.
        const Tick meanGap = burst / 4 << (2 * rng.below(3));
        if (rng.chance(t.pBurst)) {
            const std::size_t k = 40 + rng.below(30);
            for (std::size_t i = 0; i < k; ++i) {
                const std::uint32_t bank = pickBank();
                out.push_back({now, pickRow(bank), bank, 0, true, false});
            }
        }
        for (int i = 0; i < 200; ++i) {
            now += rng.below(2 * meanGap + 1);
            const std::uint32_t bank = pickBank();
            const double cls = rng.real();
            Arrival a{now, pickRow(bank), bank, 0, cls < t.pWrite,
                      cls >= t.pWrite && cls < t.pWrite + t.pLow};
            if (rng.chance(t.pExtra))
                a.extraDataClocks = 1 + static_cast<std::uint32_t>(
                                            rng.below(2));
            out.push_back(a);
        }
    }
    return out;
}

/** One side's observable behaviour. */
struct Outcome
{
    std::vector<Tick> done;            ///< per request completion tick
    std::vector<std::uint32_t> order;  ///< requests in completion order
    std::vector<std::uint32_t> issued; ///< requests in issue order
    std::vector<std::uint64_t> counters;
    std::uint64_t executed = 0;
    Tick end = 0;
    std::size_t peakReads = 0;  ///< longest read backlog seen
    std::size_t peakWrites = 0; ///< longest write backlog seen
};

/** Records the end tick of every bus span, in issue order. */
struct SpanLog : BusTraceHook
{
    std::vector<Tick> ends;

    void
    onBusSpan(const std::string &, std::uint32_t, Tick, Tick end, bool,
              bool) override
    {
        ends.push_back(end);
    }
};

template <class Chan>
struct Driver
{
    EventQueue *eq;
    Chan *ch;
    const std::vector<Arrival> *arr;
    Outcome *out;
    std::size_t next = 0;
    std::size_t completed = 0;

    void
    arrive()
    {
        while (next < arr->size() && (*arr)[next].at == eq->now()) {
            const Arrival &a = (*arr)[next];
            ChannelRequest r;
            r.row = a.row;
            r.bank = a.bank;
            r.isWrite = a.isWrite;
            r.lowPriority = a.lowPriority;
            r.extraDataClocks = a.extraDataClocks;
            const auto id = static_cast<std::uint32_t>(next);
            r.onComplete = [this, id] {
                out->done[id] = eq->now();
                out->order.push_back(id);
                ++completed;
            };
            ch->enqueue(std::move(r));
            ++next;
        }
        out->peakReads = std::max(out->peakReads, ch->readQueueLen());
        out->peakWrites = std::max(out->peakWrites, ch->writeQueueLen());
        if (next < arr->size())
            eq->schedule((*arr)[next].at,
                         EventQueue::Callback::of<&Driver::arrive>(this));
    }
};

template <class Chan>
Outcome
runSide(const DramConfig &cfg, const std::vector<Arrival> &arr)
{
    EventQueue eq;
    Chan ch(eq, cfg, 0);
    SpanLog log;
    ch.setBusTrace(&log, "diff");
    Outcome out;
    out.done.assign(arr.size(), ~Tick(0));
    Driver<Chan> drv{&eq, &ch, &arr, &out};
    eq.schedule(arr.front().at,
                EventQueue::Callback::of<&Driver<Chan>::arrive>(&drv));
    // Refresh reschedules itself forever: stop at the last completion.
    while (drv.completed < arr.size() && eq.step()) {
    }
    out.executed = eq.executed();
    out.end = eq.now();

    // Bus spans are disjoint and emitted at issue, so a span's end
    // names the request whose data ends there (a read completes the
    // I/O delay later): that recovers the issue order.
    const Tick io = cfg.ioDelayCycles * cfg.periodPs();
    std::vector<std::pair<Tick, std::uint32_t>> byEnd;
    for (std::uint32_t id : out.order)
        byEnd.push_back({out.done[id] - (arr[id].isWrite ? 0 : io), id});
    std::sort(byEnd.begin(), byEnd.end());
    for (const Tick end : log.ends) {
        const auto it = std::lower_bound(
            byEnd.begin(), byEnd.end(), std::make_pair(end, std::uint32_t(0)));
        out.issued.push_back(it != byEnd.end() && it->first == end
                                 ? it->second
                                 : ~std::uint32_t(0));
    }

    out.counters = {ch.kicks.value(),      ch.kicksEmpty.value(),
                    ch.kicksWait.value(),  ch.kicksIssue.value(),
                    ch.casReads.value(),   ch.casWrites.value(),
                    ch.rowHits.value(),    ch.rowMisses.value(),
                    ch.turnarounds.value(), ch.refreshes.value(),
                    ch.readQueueDelay.count(), ch.readLatency.count(),
                    static_cast<std::uint64_t>(ch.readQueueDelay.sum()),
                    static_cast<std::uint64_t>(ch.readLatency.sum()),
                    ch.busBusyTicks(),     ch.readQueueLen(),
                    ch.writeQueueLen()};
    return out;
}

/** Index of the first difference of @p a and @p b (size if none). */
template <class T>
std::size_t
firstMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return i == a.size() && i == b.size() ? a.size() : i;
}

using Param = std::tuple<std::uint32_t /*depth*/, std::uint32_t /*banks*/>;

class ChannelSchedDiff : public ::testing::TestWithParam<Param>
{
};

TEST_P(ChannelSchedDiff, MatchesFrozenScan)
{
    const auto [depth, banks] = GetParam();
    for (const Traffic &t : kMixes) {
        DramConfig cfg = presets::ddr4_2400();
        cfg.channels = 1;
        cfg.ranksPerChannel = 1;
        cfg.banksPerRank = banks;
        cfg.schedulerScanDepth = depth;
        if (t.refresh) {
            cfg.tREFI = 1500; // exaggerated refresh pressure
            cfg.tRFC = 300;
        }
        cfg.validate();
        const std::uint64_t seed = 1000 * depth + 10 * banks +
                                   static_cast<std::uint64_t>(&t - kMixes);
        const std::vector<Arrival> arr =
            makeStream(t, banks, cfg.burstTicks(), seed, 6000);

        const Outcome got = runSide<Channel>(cfg, arr);
        const Outcome want = runSide<RefChannel>(cfg, arr);
        SCOPED_TRACE(t.name);

        ASSERT_EQ(want.order.size(), arr.size());
        ASSERT_EQ(std::count(want.issued.begin(), want.issued.end(),
                             ~std::uint32_t(0)),
                  0)
            << "a bus span names no request";
        std::size_t i = firstMismatch(got.issued, want.issued);
        ASSERT_EQ(i, want.issued.size())
            << "issue order diverges at issue " << i;
        i = firstMismatch(got.done, want.done);
        ASSERT_EQ(i, want.done.size())
            << "request " << i << " completes at a different tick";
        EXPECT_EQ(got.order, want.order);
        EXPECT_EQ(got.counters, want.counters);
        EXPECT_EQ(got.executed, want.executed);
        EXPECT_EQ(got.end, want.end);
        // The mix must exercise what it claims to: windows that
        // overflow, sleeping kicks, bursts past the drain watermark.
        EXPECT_GT(want.peakReads, std::size_t{depth});
        EXPECT_GT(want.counters[2], 0u) << "no kick ever waited";
        if (t.pBurst > 0) {
            EXPECT_GE(want.peakWrites, std::size_t{cfg.writeQueueHigh});
            EXPECT_GT(want.counters[8], 0u) << "no turnaround";
        }
        if (t.refresh) {
            EXPECT_GT(want.counters[9], 0u) << "no refresh";
        }
    }
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    return "depth" + std::to_string(std::get<0>(info.param)) + "_banks" +
           std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Windows, ChannelSchedDiff,
                         ::testing::Combine(::testing::Values(1u, 2u, 7u,
                                                              32u, 64u),
                                            ::testing::Values(1u, 8u,
                                                              16u)),
                         paramName);

TEST(ChannelSchedDiff, WburstShapedBacklogMatches)
{
    // The hostbench wburst shape on the DDR main-memory preset (two
    // ranks of eight banks): deep read windows over a few hot banks,
    // low-priority fetches behind demands, and write bursts that push
    // the queue past the high watermark.
    DramConfig cfg = presets::ddr4_2400();
    cfg.channels = 1;
    cfg.validate();
    const Traffic t{"wburst", 0.25, 0.2, 0.6, 7, 0.55, 0.0, 0.6, false};
    const std::vector<Arrival> arr =
        makeStream(t, cfg.ranksPerChannel * cfg.banksPerRank,
                   cfg.burstTicks(), 77, 20'000);
    const Outcome got = runSide<Channel>(cfg, arr);
    const Outcome want = runSide<RefChannel>(cfg, arr);
    EXPECT_EQ(firstMismatch(got.issued, want.issued), want.issued.size());
    EXPECT_EQ(firstMismatch(got.done, want.done), want.done.size());
    EXPECT_EQ(got.counters, want.counters);
    EXPECT_EQ(got.executed, want.executed);
}

} // namespace
} // namespace dapsim
