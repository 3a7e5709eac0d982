/**
 * @file
 * Layer drives: each layer is built alone from its public constructor
 * and fed the stream the traced run recorded at its boundary. Every
 * drive runs kReps times on fresh objects; the reported time is the
 * median, and only the calls into the layer (plus the event dispatch
 * that feeds them) sit inside the timed interval.
 */

#include <algorithm>

#include "alloc_count.hh"
#include "bench.hh"
#include "ckpt/checkpoint.hh"
#include "dram/presets.hh"

namespace hostbench
{

using namespace dapsim;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

constexpr int kReps = 3;

volatile Addr g_sink = 0;

/**
 * Replays @p recs on @p eq: one event per record, at the record's tick
 * (or now, if the drive has run past it), calling @p fn from inside
 * the event so the layer sees the recorded simulated time.
 */
template <class Rec, class Fn>
class Feeder
{
  public:
    Feeder(EventQueue &eq, const std::vector<Rec> &recs, Fn fn)
        : eq_(eq), recs_(recs), fn_(std::move(fn))
    {
        if (!recs_.empty())
            eq_.schedule(recs_[0].tick, EventQueue::Callback::of<
                                            &Feeder::fire>(this));
    }

    bool done() const { return next_ == recs_.size(); }

  private:
    void
    fire()
    {
        fn_(recs_[next_++]);
        if (next_ < recs_.size())
            eq_.schedule(std::max(recs_[next_].tick, eq_.now()),
                         EventQueue::Callback::of<&Feeder::fire>(this));
    }

    EventQueue &eq_;
    const std::vector<Rec> &recs_;
    Fn fn_;
    std::size_t next_ = 0;
};

/** Restore one component from a section-framed snapshot. */
template <class C>
void
restoreSection(C &c, const std::vector<std::uint8_t> &bytes,
               const char *section)
{
    ckpt::Deserializer d(bytes.data(), bytes.size(), ckpt::kVersion);
    d.enterSection(section);
    c.restore(d);
    d.leaveSection();
}

/** Fixed-latency MS$ that records what the L3 sends it. */
class StubMs final : public MemSideCache
{
  public:
    StubMs(EventQueue &eq, DramSystem &mm, PartitionPolicy &policy,
           Tick latency, std::vector<MsRecord> &out)
        : MemSideCache(eq, mm, policy), latency_(latency), out_(out)
    {
    }

    void
    handleRead(Addr addr, Done done) override
    {
        out_.push_back(MsRecord{eq_.now(), addr, false});
        if (done)
            eq_.scheduleAfter(latency_, std::move(done));
    }

    void
    handleWrite(Addr addr) override
    {
        out_.push_back(MsRecord{eq_.now(), addr, true});
    }

    std::uint64_t arrayCasOps() const override { return 0; }

  private:
    Tick latency_;
    std::vector<MsRecord> &out_;
};

} // namespace

DriveTime
driveWorkload(const Recording &rec)
{
    constexpr std::uint64_t kPerCore = 1 << 16;
    const std::uint32_t cores = rec.cfg.numCores;
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
        std::vector<AccessGeneratorPtr> gens;
        for (std::uint32_t i = 0; i < cores; ++i)
            gens.push_back(makeGenerator(rec.mix.apps[i], i, rec.seed));
        TraceRequest req;
        Addr mix = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t n = 0; n < kPerCore; ++n)
            for (auto &g : gens) {
                g->next(req);
                mix ^= req.addr;
            }
        times.push_back(secondsSince(t0));
        g_sink = mix; // keeps the loop's results observable
    }
    return DriveTime{median(times), kPerCore * cores};
}

DriveTime
driveCpu(const Recording &rec)
{
    const std::uint32_t cores = rec.cfg.numCores;
    std::vector<std::vector<TraceRequest>> streams(cores);
    for (const GenRecord &g : rec.gen)
        streams[g.core].push_back(g.req);
    const Tick latency = static_cast<Tick>(rec.coreReadLatencyTicks);

    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
        EventQueue eq;
        std::vector<std::unique_ptr<RobCore>> rob;
        for (std::uint32_t i = 0; i < cores; ++i) {
            const auto &s = streams[i];
            if (s.empty())
                continue;
            CoreConfig cc = rec.cfg.core;
            // Finish exactly when the recorded stream is consumed.
            cc.instructions = 0;
            for (const TraceRequest &t : s)
                cc.instructions += t.instrGap + 1;
            auto fetch = [&s, pos = std::size_t(0)](
                             TraceRequest &out) mutable {
                if (pos == s.size())
                    return false;
                out = s[pos++];
                return true;
            };
            auto issue = [&eq, latency](Addr, bool is_write,
                                        EventQueue::Callback done) {
                if (!is_write && done)
                    eq.scheduleAfter(latency, std::move(done));
            };
            rob.push_back(std::make_unique<RobCore>(
                eq, cc, i, std::move(fetch), std::move(issue)));
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (auto &c : rob)
            c->start();
        eq.runUntil([&rob] {
            for (const auto &c : rob)
                if (!c->finished())
                    return false;
            return true;
        });
        times.push_back(secondsSince(t0));
    }
    return DriveTime{median(times), rec.gen.size()};
}

DriveTime
driveL3(const Recording &rec, std::vector<MsRecord> &out)
{
    const Tick latency = static_cast<Tick>(rec.l3MissLatencyTicks);
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
        std::vector<MsRecord> ms_stream;
        ms_stream.reserve(rec.gen.size() * 2);
        EventQueue eq;
        DramSystem unused_mm(eq, rec.cfg.mainMemory);
        BaselinePolicy policy;
        StubMs ms(eq, unused_mm, policy, latency, ms_stream);
        L3Cache l3(eq, rec.cfg.l3, ms);
        restoreSection(l3, rec.l3State, "l3");
        std::vector<StridePrefetcher> pf(rec.cfg.numCores,
                                         StridePrefetcher(rec.cfg.prefetch));
        std::vector<Addr> scratch;
        scratch.reserve(64);

        const auto t0 = std::chrono::steady_clock::now();
        // Mirrors System's issue path: demand reads train the
        // per-core stride prefetcher before reaching the L3.
        Feeder feed(eq, rec.gen, [&](const GenRecord &g) {
            if (!g.req.isWrite) {
                scratch.clear();
                pf[g.core].observe(g.req.addr, scratch);
                for (Addr p : scratch)
                    l3.access(p, false, nullptr);
            }
            l3.access(g.req.addr, g.req.isWrite, nullptr);
        });
        eq.run();
        times.push_back(secondsSince(t0));
        if (r == 0)
            out = std::move(ms_stream);
    }
    return DriveTime{median(times), rec.gen.size()};
}

MemsideDrive
driveMemside(const Recording &rec, const std::vector<MsRecord> &stream)
{
    const SystemConfig &cfg = rec.cfg;
    MemsideDrive out;
    if (stream.empty())
        return out;
    std::vector<double> times;
    std::uint64_t allocs = 0;
    for (int r = 0; r < kReps; ++r) {
        EventQueue eq;
        DramSystem mm(eq, cfg.mainMemory);
        std::unique_ptr<RemoteMemory> remote;
        if (cfg.remote.enabled)
            remote = std::make_unique<RemoteMemory>(
                eq, cfg.remote, cfg.mainMemory.peakGBps());
        DapPolicy policy(cfg.dap);
        std::unique_ptr<MemSideCache> ms;
        if (cfg.arch == MsArch::Alloy)
            ms = std::make_unique<AlloyCache>(eq, mm, policy, cfg.alloy);
        else
            ms = std::make_unique<SectoredDramCache>(eq, mm, policy,
                                                     cfg.sectored);
        if (remote) {
            // Before the restore: the snapshot's layout has a remote
            // field only when a remote tier is attached.
            ms->setRemote(remote.get());
            const double b_mm = cfg.mainMemory.peakAccessesPerCpuCycle();
            const double b_rem = remote->peakAccessesPerCpuCycle();
            policy.setRemoteFraction(b_rem / (b_mm + b_rem));
        }
        restoreSection(*ms, rec.msState, "ms");

        const std::uint64_t calls0 = allocs::tally(allocs::kDrive).calls;
        const auto t0 = std::chrono::steady_clock::now();
        {
            allocs::Scope span(allocs::kDrive);
            ms->startWindows(cfg.windowCycles);
            std::size_t left = stream.size();
            Feeder feed(eq, stream, [&](const MsRecord &m) {
                if (m.isWrite)
                    ms->handleWrite(m.addr);
                else
                    ms->handleRead(m.addr, [] {});
                if (--left == 0)
                    ms->stopWindows();
            });
            eq.run();
        }
        times.push_back(secondsSince(t0));
        allocs = allocs::tally(allocs::kDrive).calls - calls0;
    }
    out.time = DriveTime{median(times), stream.size()};
    out.allocsPerRequest =
        static_cast<double>(allocs) / static_cast<double>(stream.size());
    return out;
}

DriveTime
driveDram(const DramConfig &cfg, const std::vector<MsRecord> &stream)
{
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
        EventQueue eq;
        DramSystem dram(eq, cfg);
        const auto t0 = std::chrono::steady_clock::now();
        Feeder feed(eq, stream, [&](const MsRecord &m) {
            dram.access(m.addr, m.isWrite, nullptr);
        });
        eq.run();
        times.push_back(secondsSince(t0));
    }
    return DriveTime{median(times), stream.size()};
}

DriveTime
driveDap(const DapConfig &cfg, const std::vector<WindowCounters> &windows)
{
    if (windows.empty())
        return DriveTime{};
    const std::size_t passes =
        std::max<std::size_t>(1, 1'000'000 / windows.size());
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
        DapPolicy policy(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < passes; ++p)
            for (const WindowCounters &w : windows)
                policy.beginWindow(w);
        times.push_back(secondsSince(t0));
    }
    return DriveTime{median(times), passes * windows.size()};
}

} // namespace hostbench
