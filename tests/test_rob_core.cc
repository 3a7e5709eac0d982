/**
 * @file
 * Unit tests for the trace-driven ROB/MLP core model.
 */

#include <gtest/gtest.h>

#include <deque>
#include <queue>

#include "cpu/rob_core.hh"

namespace dapsim
{
namespace
{

/** Helper building a core over a scripted request list + fixed-latency
 *  memory. */
class CoreHarness
{
  public:
    CoreHarness(EventQueue &eq, const CoreConfig &cfg, Tick read_latency)
        : eq_(eq), latency_(read_latency)
    {
        core = std::make_unique<RobCore>(
            eq, cfg, 0,
            [this](TraceRequest &out) {
                if (script.empty())
                    return false;
                out = script.front();
                script.pop();
                return true;
            },
            [this](Addr, bool is_write, EventQueue::Callback done) {
                if (is_write)
                    return;
                ++reads;
                eq_.scheduleAfter(latency_, std::move(done));
            });
    }

    void
    addReads(int n, std::uint64_t gap)
    {
        for (int i = 0; i < n; ++i)
            script.push(TraceRequest{0x1000, false, gap});
    }

    std::queue<TraceRequest> script;
    std::unique_ptr<RobCore> core;
    int reads = 0;

  private:
    EventQueue &eq_;
    Tick latency_;
};

TEST(RobCore, ComputeOnlyRetiresAtFullWidth)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 10000;
    CoreHarness h(eq, cfg, 100);
    // One giant compute gap covers the whole instruction budget.
    h.script.push(TraceRequest{0, false, 20000});
    h.core->start();
    eq.run();
    ASSERT_TRUE(h.core->finished());
    EXPECT_NEAR(h.core->finishIpc(), 4.0, 0.05);
}

TEST(RobCore, SingleDependentMissChainBoundsIpc)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 10000;
    cfg.robEntries = 8; // tiny ROB: misses cannot overlap (gap 100 > 8)
    const Tick lat = 10000; // 40 CPU cycles
    CoreHarness h(eq, cfg, lat);
    h.addReads(200, 100);
    h.core->start();
    eq.run(1'000'000'000);
    // Each 100-instruction chunk costs ~max(25 cyc retire, 40 cyc
    // stall+latency): IPC well below width.
    const double ipc = h.core->ipcAt(eq.now());
    EXPECT_LT(ipc, 2.5);
    EXPECT_GT(ipc, 0.5);
}

TEST(RobCore, MlpOverlapsIndependentMisses)
{
    // With a big ROB, misses 10 instructions apart overlap: total time
    // is far less than N * latency.
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 1000;
    cfg.robEntries = 224;
    cfg.maxOutstanding = 40;
    const Tick lat = 50000; // 200 cycles
    CoreHarness h(eq, cfg, lat);
    h.addReads(100, 10);
    h.core->start();
    eq.run(10'000'000'000);
    ASSERT_TRUE(h.core->finished());
    const double cycles =
        static_cast<double>(h.core->finishTick()) / kCpuPeriodPs;
    // Serial execution would take >= 100 * 200 = 20000 cycles.
    EXPECT_LT(cycles, 10000);
}

TEST(RobCore, MshrBoundLimitsOutstanding)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 500;
    cfg.maxOutstanding = 2;
    int outstanding = 0, max_outstanding = 0, issued = 0;
    // Completions park here; equal delays fire in issue order.
    std::deque<EventQueue::Callback> parked;
    RobCore core(
        eq, cfg, 0,
        [&](TraceRequest &out) {
            out = TraceRequest{0, false, 1};
            return issued++ < 500;
        },
        [&](Addr, bool, EventQueue::Callback done) {
            ++outstanding;
            max_outstanding = std::max(max_outstanding, outstanding);
            parked.push_back(done);
            eq.scheduleAfter(1000, [&outstanding, &parked] {
                --outstanding;
                const EventQueue::Callback next = parked.front();
                parked.pop_front();
                next();
            });
        });
    core.start();
    eq.run();
    EXPECT_LE(max_outstanding, 2);
}

TEST(RobCore, WritesDontBlockRetirement)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 10000;
    int writes = 0;
    RobCore core(
        eq, cfg, 0,
        [&](TraceRequest &out) {
            out = TraceRequest{0, true, 50};
            return true;
        },
        [&](Addr, bool is_write, EventQueue::Callback) {
            if (is_write)
                ++writes;
        });
    core.start();
    eq.run(1'000'000'000);
    ASSERT_TRUE(core.finished());
    EXPECT_NEAR(core.finishIpc(), 4.0, 0.1);
    EXPECT_GT(writes, 100);
}

TEST(RobCore, RateModeKeepsRunningAfterFinish)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 100;
    CoreHarness h(eq, cfg, 1000);
    h.addReads(1000, 10);
    h.core->start();
    eq.run(100'000'000);
    ASSERT_TRUE(h.core->finished());
    // Reads continue well past the finish point.
    EXPECT_GT(h.reads, 20);
}

TEST(RobCore, ReadLatencyIsSampled)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.instructions = 1000;
    CoreHarness h(eq, cfg, 12345);
    h.addReads(50, 20);
    h.core->start();
    eq.run(1'000'000'000);
    EXPECT_GT(h.core->readLatency.count(), 0u);
    EXPECT_NEAR(h.core->readLatency.mean(), 12345.0, 1.0);
}

TEST(RobCore, IpcAtZeroIsZero)
{
    EventQueue eq;
    CoreConfig cfg;
    CoreHarness h(eq, cfg, 100);
    EXPECT_EQ(h.core->ipcAt(0), 0.0);
}

TEST(RobCoreDeathTest, ZeroResourcesAreFatal)
{
    EventQueue eq;
    CoreConfig cfg;
    cfg.retireWidth = 0;
    EXPECT_DEATH(RobCore(eq, cfg, 0,
                         [](TraceRequest &) { return false; },
                         [](Addr, bool, EventQueue::Callback) {}),
                 "zero");
}

} // namespace
} // namespace dapsim
