/**
 * @file
 * dapsim host-speed benchmark.
 *
 * Runs one of four pinned workloads on the calling thread and prints
 * its metrics, one `name = value unit` line each, then one JSON result
 * line. Untraced (--trace 0) it repeats the workload for --seconds and
 * reports end-to-end medians; traced (--trace 1) it runs the workload
 * once untraced and once traced, reads exact counts through the
 * simulator's public accessors and hooks, and times each layer alone
 * on the streams the traced run recorded (drives.cc). Every
 * simulation's stats digest is checked against the other runs of the
 * same seed and, when the seed is pinned, against digests.json.
 *
 * Usage: hostbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--pins FILE] [--commit ID]
 *                  [--digest-only] [--list]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "bench.hh"
#include "ckpt/checkpoint.hh"
#include "common/json_reader.hh"
#include "exp/sweep_runner.hh"
#include "sim/metrics.hh"
#include "sim/presets.hh"
#include "trace/workloads.hh"
#include "workload/compose.hh"

using namespace dapsim;
using namespace hostbench;

namespace
{

/** Seeds with pinned digests: the default, and a held-out seed kept
 *  for verifying performance claims (never used while tuning one). */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 1009;

/** Equal slices of the timed run (min-core retired instructions). */
constexpr std::uint64_t kSegments = 100;

/** Timed repetitions per untraced run, at least. */
constexpr int kMinReps = 3;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct WorkloadDef
{
    std::string name;
    SystemConfig cfg;  ///< policy = the workload's primary policy
    Mix mix;
    std::uint64_t instr = 0; ///< per core
    /** Non-empty for the sweep: its policies, in submission order. */
    std::vector<PolicyKind> sweep;
};

const std::vector<std::string> kWorkloads = {
    "hetero8-sectored-dap",
    "l3resident8-sectored-dap",
    "wburst-tiered-dap",
    "alloy-policy-sweep",
};

/** fig12's eight-app mix, one app per core (kernel_events pins it). */
Mix
heteroMix()
{
    Mix m;
    m.name = "fig12-hetero8";
    for (const char *app : {"mcf", "libquantum", "omnetpp", "milc", "hpcg",
                            "bwaves", "gcc.expr", "parboil-lbm"})
        m.apps.push_back(workloadByName(app));
    return m;
}

WorkloadDef
makeWorkload(const std::string &name)
{
    WorkloadDef w;
    w.name = name;
    if (name == "hetero8-sectored-dap") {
        w.cfg = presets::sectoredSystem8();
        w.mix = heteroMix();
        w.instr = 1'000'000;
    } else if (name == "l3resident8-sectored-dap") {
        w.cfg = presets::sectoredSystem8();
        w.mix = workload::composeWorkload("zipf:fp=96K,mpki=25", 8).mix;
        w.instr = 4'000'000;
    } else if (name == "wburst-tiered-dap") {
        w.cfg = presets::tieredSystem8();
        w.mix = workload::composeWorkload(
                    "mix:t0=wburst,t0.cores=4,t1=zipf,t1.cores=4", 8)
                    .mix;
        w.instr = 600'000;
    } else if (name == "alloy-policy-sweep") {
        w.cfg = presets::alloySystem8();
        w.mix = heteroMix();
        w.instr = 250'000;
        w.sweep = {PolicyKind::Baseline, PolicyKind::Bear, PolicyKind::Sbd,
                   PolicyKind::Dap};
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.cfg.policy = PolicyKind::Dap;
    w.cfg.core.instructions = w.instr;
    return w;
}

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
fnv1aHex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return hex64(h);
}

/** Digest of everything a RunResult carries (exact, via hexfloat). */
std::string
resultDigest(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.mixName << '|' << r.policyName << '|'
       << r.cycles << '|' << r.msHitRatio << '|' << r.msReadMissRatio
       << '|' << r.mmCasFraction << '|' << r.tagCacheMissRatio << '|'
       << r.avgL3ReadMissLatency << '|' << r.l3Mpki << '|' << r.readGBps
       << '|' << r.fwb << '|' << r.wb << '|' << r.ifrm << '|' << r.sfrm;
    for (double ipc : r.ipc)
        os << '|' << ipc;
    return fnv1aHex(os.str());
}

/** Pinned stats digests: workload -> seed -> job -> digest. */
using Pins = std::map<std::string, std::string>;

Pins
loadPins(const std::string &path, const std::string &workload,
         std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned digests " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value root = json::parse(ss.str());
    Pins pins;
    const json::Value *wl = root.at("workloads").find(workload);
    if (wl == nullptr)
        return pins;
    const json::Value *byseed = wl->find(std::to_string(seed));
    if (byseed == nullptr)
        return pins;
    for (const auto &[job, digest] : byseed->obj)
        pins[job] = digest.asString();
    return pins;
}

// ---------------------------------------------------------------------
// In-place instrumentation for the traced run
// ---------------------------------------------------------------------

/** Counts a core's records and, during the timed run, records them. */
class CountingGen final : public AccessGenerator
{
  public:
    CountingGen(AccessGeneratorPtr inner, std::uint32_t core,
                Recording &rec)
        : inner_(std::move(inner)), core_(core), rec_(rec)
    {
    }

    bool
    next(TraceRequest &out) override
    {
        const bool ok = inner_->next(out);
        if (eq_ != nullptr) {
            ++records;
            allocs::Scope span(allocs::kBench);
            rec_.gen.push_back(GenRecord{eq_->now(), core_, out});
        }
        return ok;
    }

    void save(ckpt::Serializer &s) const override { inner_->save(s); }
    void restore(ckpt::Deserializer &d) override { inner_->restore(d); }

    /** Start counting and recording against @p eq's clock. */
    void startRecording(const EventQueue &eq) { eq_ = &eq; }

    std::uint64_t records = 0;

  private:
    AccessGeneratorPtr inner_;
    std::uint32_t core_;
    Recording &rec_;
    const EventQueue *eq_ = nullptr;
};

/** The traced run's hooks: dispatch counting, DAP window capture and
 *  per-segment queue sampling. */
class Tracer final : public EventQueue::DispatchHook, public DapTraceSink
{
  public:
    void onDispatch(Tick, std::size_t) override { ++dispatched; }

    void
    onWindow(const DapWindowRecord &r) override
    {
        allocs::Scope span(allocs::kBench);
        rec.windows.push_back(r.in);
    }

    void
    sampleQueues(System &sys)
    {
        allocs::Scope span(allocs::kBench);
        mmQueue.push_back(
            static_cast<double>(sys.mainMemory().totalReadQueue()));
        if (DramSystem *a = msArray(sys))
            msQueue.push_back(static_cast<double>(a->totalReadQueue()));
    }

    static DramSystem *
    msArray(System &sys)
    {
        if (auto *sc = dynamic_cast<SectoredDramCache *>(sys.msCache()))
            return &sc->array();
        if (auto *ac = dynamic_cast<AlloyCache *>(sys.msCache()))
            return &ac->array();
        return nullptr;
    }

    Recording rec;
    std::vector<CountingGen *> gens;
    std::uint64_t dispatched = 0;
    std::uint64_t records = 0; ///< generator records of the timed run
    std::vector<double> mmQueue, msQueue;
    double saveMs = 0.0, restoreMs = 0.0;
    std::uint64_t ckptBytes = 0;
};

// ---------------------------------------------------------------------
// One simulation
// ---------------------------------------------------------------------

/** Exact counts read from a finished System (timed run only: the
 *  warm paths never touch these counters). */
struct Counts
{
    std::uint64_t events = 0, peakPending = 0, retired = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t l3Hits = 0, l3Misses = 0, l3ReadMisses = 0,
                  l3Writebacks = 0;
    std::uint64_t msReadHits = 0, msReadMisses = 0, fills = 0,
                  fillsBypassed = 0, specReads = 0, specWasted = 0,
                  arrayCas = 0;
    double tagCacheMissRatio = 0.0;
    std::uint64_t remoteAccesses = 0, remoteQueuePeak = 0;
    std::uint64_t mmCasReads = 0, mmCasWrites = 0, mmRowHits = 0,
                  mmRowMisses = 0;
    double mmBusUtil = 0.0, mmReadLatencyNs = 0.0;
    std::uint64_t dapWindows = 0, dapPartitioned = 0, dapDecisions = 0;
};

Counts
readCounts(System &sys)
{
    Counts c;
    EventQueue &eq = sys.eventQueue();
    c.events = eq.executed();
    c.peakPending = eq.peakPending();
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        RobCore &core = sys.core(i);
        c.retired += core.retiredInstructions();
        c.wakeups += core.wakeups.value();
    }
    L3Cache &l3 = sys.l3();
    c.l3Hits = l3.hits.value();
    c.l3Misses = l3.misses.value();
    c.l3ReadMisses = l3.readMisses.value();
    c.l3Writebacks = l3.writebacksToMs.value();
    MemSideCache &ms = *sys.msCache();
    c.msReadHits = ms.readHits.value();
    c.msReadMisses = ms.readMisses.value();
    c.fills = ms.fills.value();
    c.fillsBypassed = ms.fillsBypassed.value();
    c.specReads = ms.speculativeReads.value();
    c.specWasted = ms.speculativeWasted.value();
    c.arrayCas = ms.arrayCasOps();
    if (auto *sc = dynamic_cast<SectoredDramCache *>(&ms))
        c.tagCacheMissRatio = sc->tagCache().missRatio();
    if (RemoteMemory *rm = sys.remoteMemory()) {
        c.remoteAccesses = rm->reads.value() + rm->writes.value();
        c.remoteQueuePeak = rm->queuePeakDepth();
    }
    DramSystem &mm = sys.mainMemory();
    c.mmCasReads = mm.casReads();
    c.mmCasWrites = mm.casWrites();
    c.mmRowHits = mm.rowHits();
    c.mmRowMisses = mm.rowMisses();
    c.mmBusUtil = mm.busUtilization(eq.now());
    c.mmReadLatencyNs = mm.meanReadLatency() / 1000.0;
    if (DapPolicy *dap = sys.dapPolicy()) {
        c.dapWindows = dap->windowsTotal.value();
        c.dapPartitioned = dap->windowsPartitioned.value();
        c.dapDecisions = dap->fwbApplied.value() + dap->wbApplied.value() +
                         dap->ifrmApplied.value() +
                         dap->sfrmApplied.value() +
                         dap->writeThroughApplied.value() +
                         dap->remoteApplied.value();
    }
    return c;
}

struct SimResult
{
    std::string digest;       ///< fnv1a of System::dumpStats
    std::string resultDigest; ///< digest of harvest()'s RunResult
    RunResult result;
    Counts counts;
    double constructS = 0.0; ///< generators + System constructor
    double setupS = 0.0;     ///< construction + warm-up or restore
    double runS = 0.0;       ///< the timed run
    double wallS = 0.0;      ///< setup + run + stats dump + teardown
    std::vector<double> segmentsMs;
    allocs::Tally timedAllocs;
};

/** Per-core instruction target of the k-th of kSegments slices. */
std::uint64_t
sliceTarget(std::uint64_t instr, std::uint64_t k)
{
    return instr * k / kSegments;
}

/**
 * Build, set up and run one simulation of @p w under @p policy. With
 * @p fork the warm state is restored from that checkpoint (policy
 * section skipped, as the sweep's warmup-fork does); otherwise the
 * default functional warm-up runs. @p segmented splits the timed run
 * into kSegments slices; otherwise it is one plain System::run().
 */
SimResult
simulate(const WorkloadDef &w, PolicyKind policy,
         const ckpt::Checkpoint *fork, std::uint64_t seed, bool segmented,
         Tracer *tr)
{
    using Clock = std::chrono::steady_clock;
    SimResult out;
    SystemConfig cfg = w.cfg;
    cfg.policy = policy;

    const auto t0 = Clock::now();
    std::unique_ptr<System> sys;
    {
        allocs::Scope span(allocs::kSetup);
        std::vector<AccessGeneratorPtr> gens;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
            AccessGeneratorPtr g = makeGenerator(w.mix.apps[i], i, seed);
            if (tr != nullptr) {
                auto cg = std::make_unique<CountingGen>(std::move(g), i,
                                                        tr->rec);
                tr->gens.push_back(cg.get());
                g = std::move(cg);
            }
            gens.push_back(std::move(g));
        }
        sys = std::make_unique<System>(cfg, std::move(gens));
        out.constructS = secondsSince(t0);
        if (fork != nullptr) {
            ckpt::Deserializer d(fork->payload.data(), fork->payload.size(),
                                 fork->header.version);
            sys->restore(d, /*skip_policy=*/true);
        } else {
            sys->warmup(ckpt::resolveWarmCount(cfg));
        }
    }
    out.setupS = secondsSince(t0);

    if (tr != nullptr) {
        // Untimed: snapshots for the drives and the checkpoint drive.
        allocs::Scope span(allocs::kBench);
        Recording &rec = tr->rec;
        rec.cfg = sys->config();
        rec.mix = w.mix;
        rec.seed = seed;
        ckpt::Serializer l3s(ckpt::kVersion), mss(ckpt::kVersion);
        l3s.beginSection("l3");
        sys->l3().save(l3s);
        l3s.endSection();
        rec.l3State = l3s.buffer();
        mss.beginSection("ms");
        sys->msCache()->save(mss);
        mss.endSection();
        rec.msState = mss.buffer();

        ckpt::Serializer whole(ckpt::kVersion);
        const auto s0 = Clock::now();
        sys->save(whole);
        tr->saveMs = secondsSince(s0) * 1e3;
        tr->ckptBytes = whole.buffer().size();
        std::vector<AccessGeneratorPtr> gens;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i)
            gens.push_back(makeGenerator(w.mix.apps[i], i, seed));
        System fresh(cfg, std::move(gens));
        ckpt::Deserializer d(whole.buffer().data(), whole.buffer().size(),
                             ckpt::kVersion);
        const auto r0 = Clock::now();
        fresh.restore(d);
        tr->restoreMs = secondsSince(r0) * 1e3;

        sys->eventQueue().setDispatchHook(tr);
        if (DapPolicy *dap = sys->dapPolicy())
            dap->setTraceSink(tr);
        for (CountingGen *g : tr->gens)
            g->startRecording(sys->eventQueue());
    }

    const allocs::Tally before = allocs::tally(allocs::kTimed);
    const auto t1 = Clock::now();
    {
        allocs::Scope span(allocs::kTimed);
        if (!segmented) {
            sys->run();
        } else {
            EventQueue &eq = sys->eventQueue();
            sys->startRun();
            auto s0 = Clock::now();
            for (std::uint64_t k = 1; k <= kSegments; ++k) {
                if (k < kSegments)
                    sys->runDetailedUntilRetired(sliceTarget(w.instr, k));
                else
                    eq.runUntil([&sys] { return sys->allCoresFinished(); });
                const auto s1 = Clock::now();
                out.segmentsMs.push_back(
                    std::chrono::duration<double, std::milli>(s1 - s0)
                        .count());
                if (tr != nullptr)
                    tr->sampleQueues(*sys);
                s0 = Clock::now();
            }
            sys->finishRun();
        }
    }
    out.runS = secondsSince(t1);
    const allocs::Tally after = allocs::tally(allocs::kTimed);
    out.timedAllocs = {after.calls - before.calls,
                       after.bytes - before.bytes};

    const auto t2 = Clock::now();
    if (tr != nullptr) {
        sys->eventQueue().setDispatchHook(nullptr);
        double lat_sum = 0.0, lat_n = 0.0;
        for (std::uint32_t i = 0; i < sys->numCores(); ++i) {
            const Average &a = sys->core(i).readLatency;
            lat_sum += a.sum();
            lat_n += static_cast<double>(a.count());
        }
        tr->rec.coreReadLatencyTicks = lat_n ? lat_sum / lat_n : 0.0;
        tr->rec.l3MissLatencyTicks = sys->l3().meanReadMissLatency();
        // The wrappers die with the System.
        for (const CountingGen *g : tr->gens)
            tr->records += g->records;
        tr->gens.clear();
    }
    out.counts = readCounts(*sys);
    std::ostringstream stats;
    sys->dumpStats(stats);
    out.digest = fnv1aHex(stats.str());
    out.result = harvest(*sys, w.mix.name);
    out.resultDigest = resultDigest(out.result);
    sys.reset();
    out.wallS = out.setupS + out.runS + secondsSince(t2);
    return out;
}

/** The sweep's shared warm state, as SweepRunner's warmup-fork makes
 *  it (built under the first job's policy; the policy section is
 *  skipped on restore). */
ckpt::Checkpoint
sweepCheckpoint(const WorkloadDef &w, std::uint64_t seed, double *warm_s)
{
    SystemConfig cfg = w.cfg;
    cfg.policy = w.sweep.front();
    const auto t0 = std::chrono::steady_clock::now();
    ckpt::Checkpoint c =
        ckpt::makeWarmupCheckpoint(cfg, w.mix, w.instr, seed);
    if (warm_s != nullptr)
        *warm_s = secondsSince(t0);
    return c;
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failed;
            problems.push_back(what);
        }
    }
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
ratio(double num_, double den)
{
    return den != 0.0 ? num_ / den : 0.0;
}

void
printResult(const std::vector<Metric> &metrics, Outcome o)
{
    // A simulation can fail more than one check; count it once.
    o.failed = std::min(o.failed, o.attempted);
    for (const Metric &m : metrics)
        std::cout << m.name << " = " << num(m.value) << ' ' << m.unit
                  << '\n';
    std::cout << "runs_failed_frac = "
              << num(ratio(static_cast<double>(o.failed),
                           static_cast<double>(o.attempted)))
              << " (" << o.failed << '/' << o.attempted << ")\n";
    for (const std::string &p : o.problems)
        std::cout << "FAILED: " << p << '\n';
    std::cout << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << o.attempted
              << ", \"failed\": " << o.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << num(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

/** Run @p fn as one attempted simulation; exceptions count as failed. */
template <class Fn>
bool
attempt(Outcome &o, const std::string &what, Fn &&fn)
{
    ++o.attempted;
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        o.check(false, what + ": " + e.what());
        return false;
    }
}

/** Compare a digest with its pin (when the seed is pinned). */
void
checkPin(Outcome &o, const Pins &pins, const std::string &job,
         const std::string &digest)
{
    const auto it = pins.find(job);
    if (it != pins.end())
        o.check(it->second == digest, job + " digest " + digest +
                                          " != pinned " + it->second);
}

// ---------------------------------------------------------------------
// SweepRunner pass (alloy-policy-sweep)
// ---------------------------------------------------------------------

struct SweepPass
{
    double wallS = 0.0;
    double warmupS = 0.0;                ///< the shared warm-up span
    std::map<std::string, double> jobS;  ///< job span minus any warm-up
    std::uint64_t warmupsExecuted = 0;
    std::vector<exp::JobResult> results;
};

SweepPass
runSweep(const WorkloadDef &w, std::uint64_t seed,
         const std::string &phase_path)
{
    SweepPass p;
    const auto t0 = std::chrono::steady_clock::now();
    exp::SweepRunner runner;
    for (PolicyKind k : w.sweep) {
        exp::JobSpec spec;
        spec.cfg = w.cfg;
        spec.mix = w.mix;
        spec.policy = k;
        spec.instr = w.instr;
        spec.seedSalt = seed;
        runner.add(std::move(spec));
    }
    runner.setWarmupFork(true);
    runner.setPhaseTrace(phase_path);
    p.results = runner.run(1);
    p.wallS = secondsSince(t0);
    p.warmupsExecuted = runner.warmupsExecuted();

    std::ifstream in(phase_path);
    if (!in)
        throw std::runtime_error("no phase trace at " + phase_path);
    std::stringstream ss;
    ss << in.rdbuf();
    in.close();
    std::remove(phase_path.c_str());
    const json::Value root = json::parse(ss.str());
    const json::Value &events =
        root.isArray() ? root : root.at("traceEvents");
    double first_job_us = -1.0;
    std::string first_job;
    for (const json::Value &e : events.arr) {
        const json::Value *ph = e.find("ph");
        if (ph == nullptr || ph->asString() != "X")
            continue;
        const std::string cat = e.at("cat").asString();
        const double dur = e.at("dur").asDouble();
        if (cat == "warmup") {
            p.warmupS += dur * 1e-6;
        } else {
            // Label "<mix>/<policy>": key by policy.
            std::string label = e.at("name").asString();
            label = label.substr(label.rfind('/') + 1);
            const double ts = e.at("ts").asDouble();
            if (first_job_us < 0 || ts < first_job_us) {
                first_job_us = ts;
                first_job = label;
            }
            p.jobS[label] = dur * 1e-6;
        }
    }
    // The shared warm-up runs inside the first job's span.
    if (!first_job.empty())
        p.jobS[first_job] -= p.warmupS;
    return p;
}

// ---------------------------------------------------------------------
// Untraced mode: end-to-end metrics
// ---------------------------------------------------------------------

/** Repeat until --seconds is spent, at least kMinReps times; the last
 *  repetition overruns by about half a repetition at most. */
bool
moreReps(int done, std::chrono::steady_clock::time_point start,
         double seconds)
{
    if (done < kMinReps)
        return true;
    const double elapsed = secondsSince(start);
    return elapsed + 0.5 * elapsed / done < seconds;
}

/** Probe time of the reference host (see probeSeconds). */
constexpr double kProbeRefS = 0.045;

/** The probe's table: 32 MiB, resident once the first probe ran. */
constexpr std::size_t kProbeWords = std::size_t(1) << 22;

/** Keeps the probe's result observable to the optimiser. */
volatile std::uint64_t g_probeSink = 0;

/**
 * Host-speed probe: a frozen event-queue-and-table kernel shaped like
 * the simulator's hot loop (binary-heap pops and pushes, each touching
 * a random word of a 32 MB table). Other tenants of a shared host slow
 * it down in the same phases as the simulator, so each repetition's
 * host times are scaled by kProbeRefS / (the probe run just before
 * it). The kernel is part of the benchmark and never changes with the
 * simulator.
 */
double
probeSeconds()
{
    static std::vector<std::uint64_t> table(kProbeWords, 1);
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<Ev> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t i = 0; i < 256; ++i)
        heap.push_back({rnd() & 4095, i});
    std::make_heap(heap.begin(), heap.end(), std::greater<>());

    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < 300'000; ++k) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const Ev ev = heap.back();
        heap.pop_back();
        std::uint64_t &word = table[(rnd() ^ ev.second) & (kProbeWords - 1)];
        acc += word;
        word = acc ^ ev.first;
        heap.push_back({ev.first + 1 + (rnd() & ((acc & 7) ? 4095 : 63)),
                        ev.second});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    const double s = secondsSince(t0);
    g_probeSink = acc;
    return s;
}

/** Factor that takes a host time measured right after a probe of
 *  @p probe_s seconds onto the reference host. */
double
toRef(double probe_s)
{
    return kProbeRefS / probe_s;
}

/** Host-time samples of one run, one entry per repetition. */
struct Samples
{
    std::vector<double> probeMs, wallS, setupS, minstrPerS, segP50Ms,
        segP90Ms;
    std::vector<double> rawWallS, rawMinstrPerS;
    std::size_t segments = 0;

    /**
     * Record one repetition: its reference-host times and slices, and
     * the raw wall time and rate for the record. A burst of host
     * contention fattens the slice tail of the repetition it hits, so
     * slice percentiles are taken per repetition and the median over
     * repetitions is reported, rather than a pool's.
     */
    void
    add(double probe_s, double wall_s, double setup_s, double minstr_s,
        double raw_wall_s, double raw_minstr_s,
        const std::vector<double> &slices_ms)
    {
        probeMs.push_back(probe_s * 1e3);
        wallS.push_back(wall_s);
        setupS.push_back(setup_s);
        minstrPerS.push_back(minstr_s);
        rawWallS.push_back(raw_wall_s);
        rawMinstrPerS.push_back(raw_minstr_s);
        segP50Ms.push_back(quantile(slices_ms, 0.5));
        segP90Ms.push_back(quantile(slices_ms, 0.9));
        segments += slices_ms.size();
    }
};

std::vector<Metric>
runEndToEnd(const WorkloadDef &w, std::uint64_t seed, double seconds,
            const Pins &pins, const std::string &scratch, Outcome &o)
{
    Samples smp;
    double ipc = 0.0;

    if (w.sweep.empty()) {
        // Reference: one plain System::run(), untimed.
        SimResult ref;
        attempt(o, "reference run", [&] {
            ref = simulate(w, w.cfg.policy, nullptr, seed, false, nullptr);
        });
        checkPin(o, pins, "run", ref.digest);
        ipc = ref.result.throughput();
        const auto start = std::chrono::steady_clock::now();
        for (int rep = 0; moreReps(rep, start, seconds); ++rep) {
            const double probe = probeSeconds();
            SimResult r;
            if (!attempt(o, "timed run", [&] {
                    r = simulate(w, w.cfg.policy, nullptr, seed, true,
                                 nullptr);
                }))
                continue;
            o.check(r.digest == ref.digest,
                    "segmented run digest " + r.digest +
                        " != plain run " + ref.digest);
            const double k = toRef(probe);
            const double rate =
                static_cast<double>(r.counts.retired) / 1e6 / r.runS;
            for (double &x : r.segmentsMs)
                x *= k;
            smp.add(probe, r.wallS * k, r.setupS * k, rate / k, r.wallS,
                    rate, r.segmentsMs);
        }
    } else {
        // Reference: each job on the warmup-fork path by hand, plain
        // runs; SweepRunner must reproduce their RunResults.
        ckpt::Checkpoint ck;
        std::map<std::string, SimResult> ref;
        attempt(o, "sweep checkpoint",
                [&] { ck = sweepCheckpoint(w, seed, nullptr); });
        for (PolicyKind k : w.sweep) {
            const std::string job = exp::policyKindName(k);
            attempt(o, "reference " + job, [&] {
                ref[job] = simulate(w, k, &ck, seed, false, nullptr);
            });
            checkPin(o, pins, job, ref[job].digest);
        }
        ipc = ref["dap"].result.throughput();

        const auto start = std::chrono::steady_clock::now();
        for (int rep = 0; moreReps(rep, start, seconds); ++rep) {
            const double probe = probeSeconds();
            SweepPass p;
            if (!attempt(o, "sweep",
                         [&] { p = runSweep(w, seed, scratch); }))
                continue;
            o.attempted += w.sweep.size() - 1;
            o.check(p.warmupsExecuted == 1,
                    "sweep executed " + std::to_string(p.warmupsExecuted) +
                        " warm-ups, expected 1");
            // Then each job once more by hand, segmented, after a probe
            // of its own: its set-up (System construction + checkpoint
            // restore) is what each sweep job spends before its first
            // timed event, and its timed run and slices give the rate
            // and the segments.
            const double k = toRef(probe);
            double run_ref = 0.0, run_raw = 0.0, restore_ref = 0.0;
            std::uint64_t retired = 0;
            std::vector<double> slices;
            for (const exp::JobResult &jr : p.results) {
                const SimResult &want = ref[jr.policyName];
                o.check(jr.ok && resultDigest(jr.result) ==
                                     want.resultDigest,
                        jr.policyName + ": " +
                            (jr.ok ? "sweep result differs from the "
                                     "reference run"
                                   : jr.error));
                const double kj = toRef(probeSeconds());
                SimResult r;
                if (!attempt(o, "segmented " + jr.policyName, [&] {
                        r = simulate(w, exp::policyKindFromName(
                                            jr.policyName),
                                     &ck, seed, true, nullptr);
                    }))
                    continue;
                o.check(r.digest == want.digest,
                        jr.policyName + " segmented digest " + r.digest +
                            " != plain run " + want.digest);
                run_ref += r.runS * kj;
                run_raw += r.runS;
                restore_ref += r.setupS * kj;
                retired += r.counts.retired;
                for (double x : r.segmentsMs)
                    slices.push_back(x * kj);
            }
            const double minstr = static_cast<double>(retired) / 1e6;
            smp.add(probe, p.wallS * k, p.warmupS * k + restore_ref,
                    minstr / run_ref, p.wallS, minstr / run_raw, slices);
        }
    }

    std::cout << "repetitions = " << smp.wallS.size()
              << ", segments = " << smp.segments << '\n'
              << "host probe_ms median = " << num(median(smp.probeMs))
              << '\n'
              << "host wall_s median (unscaled) = "
              << num(median(smp.rawWallS)) << '\n'
              << "host sim_minstr_per_s median (unscaled) = "
              << num(median(smp.rawMinstrPerS)) << '\n';
    return {
        {"sim_minstr_per_s", median(smp.minstrPerS), "Minstr/s"},
        {"wall_s", median(smp.wallS), "s"},
        {"setup_s", median(smp.setupS), "s"},
        {"segment_ms_p50", median(smp.segP50Ms), "ms"},
        {"segment_ms_p90", median(smp.segP90Ms), "ms"},
        // Less the probe's table, resident since the first probe.
        {"peak_rss_mb",
         peakRssMb() - kProbeWords * sizeof(std::uint64_t) / 1048576.0,
         "MB"},
        {"sim_ipc", ipc, "IPC"},
    };
}

// ---------------------------------------------------------------------
// Traced mode: per-layer metrics
// ---------------------------------------------------------------------

std::vector<Metric>
runTraced(const WorkloadDef &w, std::uint64_t seed, const Pins &pins,
          const std::string &scratch, Outcome &o, std::string &counts_json)
{
    const PolicyKind policy = PolicyKind::Dap;
    const std::string job = w.sweep.empty() ? "run" : "dap";
    std::vector<Metric> m;

    ckpt::Checkpoint ck;
    double warm_s = 0.0;
    std::uint64_t touches = 0;
    SweepPass sweep;
    if (!w.sweep.empty()) {
        attempt(o, "sweep", [&] { sweep = runSweep(w, seed, scratch); });
        o.attempted += w.sweep.size() - 1;
        for (const exp::JobResult &jr : sweep.results)
            o.check(jr.ok, jr.policyName + ": " + jr.error);
        attempt(o, "sweep checkpoint",
                [&] { ck = sweepCheckpoint(w, seed, &warm_s); });
        touches = ck.header.warmupPerCore * w.cfg.numCores;
    }
    const ckpt::Checkpoint *fork = w.sweep.empty() ? nullptr : &ck;

    SimResult plain, traced;
    Tracer tr;
    attempt(o, "untraced run", [&] {
        plain = simulate(w, policy, fork, seed, false, nullptr);
    });
    checkPin(o, pins, job, plain.digest);
    attempt(o, "traced run", [&] {
        traced = simulate(w, policy, fork, seed, true, &tr);
    });
    o.check(traced.digest == plain.digest,
            "traced digest " + traced.digest + " != untraced " +
                plain.digest);
    o.check(tr.dispatched == traced.counts.events,
            "dispatch hook saw " + std::to_string(tr.dispatched) +
                " events, EventQueue executed " +
                std::to_string(traced.counts.events));
    if (!w.sweep.empty()) {
        for (const exp::JobResult &jr : sweep.results)
            if (jr.policyName == "dap")
                o.check(resultDigest(jr.result) == plain.resultDigest,
                        "sweep dap result differs from the fork path");
    } else {
        warm_s = plain.setupS - plain.constructS;
        touches = ckpt::resolveWarmCount(w.cfg) * w.cfg.numCores;
    }

    const Counts &c = plain.counts;
    const double kinstr = static_cast<double>(c.retired) / 1e3;

    // Layer drives on the recorded streams.
    const Recording &rec = tr.rec;
    std::vector<MsRecord> ms_stream;
    DriveTime wl, cpu, l3, mm, msa, dap;
    MemsideDrive memside;
    if (!rec.gen.empty()) {
        try {
            wl = driveWorkload(rec);
            cpu = driveCpu(rec);
            l3 = driveL3(rec, ms_stream);
            memside = driveMemside(rec, ms_stream);
            mm = driveDram(presets::ddr4_2400(), ms_stream);
            msa = driveDram(rec.cfg.arch == MsArch::Alloy
                                ? rec.cfg.alloy.array
                                : rec.cfg.sectored.array,
                            ms_stream);
            dap = driveDap(rec.cfg.dap, rec.windows);
        } catch (const std::exception &e) {
            o.check(false, std::string("layer drives: ") + e.what());
        }
    }

    const double events = static_cast<double>(c.events);
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    m = {
        {"common.events", events, "count"},
        {"common.events_per_kinstr", ratio(events, kinstr), "1/kinstr"},
        {"common.peak_pending", u(c.peakPending), "count"},
        {"common.ns_per_event", ratio(plain.runS * 1e9, events), "ns"},
        {"common.allocs_per_kevent",
         ratio(u(plain.timedAllocs.calls) * 1e3, events), "1/kevent"},
        {"workload.ns_per_record", wl.nsPerOp(), "ns"},
        {"workload.records", u(tr.records), "count"},
        {"cpu.ns_per_access", cpu.nsPerOp(), "ns"},
        {"cpu.wakeups_per_kinstr", ratio(u(c.wakeups), kinstr),
         "1/kinstr"},
        {"l3.ns_per_access", l3.nsPerOp(), "ns"},
        {"l3.hit_ratio", ratio(u(c.l3Hits), u(c.l3Hits + c.l3Misses)),
         "ratio"},
        {"l3.accesses", u(c.l3Hits + c.l3Misses), "count"},
        {"l3.read_misses", u(c.l3ReadMisses), "count"},
        {"l3.writebacks", u(c.l3Writebacks), "count"},
        {"sim.warm_ns_per_touch", ratio(warm_s * 1e9, u(touches)), "ns"},
        {"memside.ns_per_request", memside.time.nsPerOp(), "ns"},
        {"memside.allocs_per_request", memside.allocsPerRequest,
         "1/request"},
        {"memside.read_hit_ratio",
         ratio(u(c.msReadHits), u(c.msReadHits + c.msReadMisses)),
         "ratio"},
        {"memside.tag_cache_miss_ratio", c.tagCacheMissRatio, "ratio"},
        {"memside.fill_bypass_ratio",
         ratio(u(c.fillsBypassed), u(c.fills + c.fillsBypassed)), "ratio"},
        {"memside.array_cas", u(c.arrayCas), "count"},
        {"memside.sfrm_useful_ratio",
         c.specReads ? 1.0 - ratio(u(c.specWasted), u(c.specReads)) : 0.0,
         "ratio"},
        {"remote.accesses", u(c.remoteAccesses), "count"},
        {"remote.queue_peak", u(c.remoteQueuePeak), "count"},
        {"dram.mm.ns_per_cas", mm.nsPerOp(), "ns"},
        {"dram.ms.ns_per_cas", msa.nsPerOp(), "ns"},
        {"dram.mm.cas_reads", u(c.mmCasReads), "count"},
        {"dram.mm.cas_writes", u(c.mmCasWrites), "count"},
        {"dram.ms.cas", u(c.arrayCas), "count"},
        {"dram.mm.row_hit_ratio",
         ratio(u(c.mmRowHits), u(c.mmRowHits + c.mmRowMisses)), "ratio"},
        {"dram.mm.bus_util", c.mmBusUtil, "ratio"},
        {"dram.mm.read_latency_ns", c.mmReadLatencyNs, "ns"},
        {"dram.mm.read_queue_mean", mean(tr.mmQueue), "requests"},
        {"dram.ms.read_queue_mean", mean(tr.msQueue), "requests"},
        {"dap.ns_per_window", dap.nsPerOp(), "ns"},
        {"dap.windows", u(c.dapWindows), "count"},
        {"dap.partitioned_ratio", ratio(u(c.dapPartitioned), u(c.dapWindows)),
         "ratio"},
        {"dap.decisions", u(c.dapDecisions), "count"},
    };
    for (PolicyKind k : {PolicyKind::Baseline, PolicyKind::Bear,
                         PolicyKind::Sbd, PolicyKind::Dap}) {
        const std::string name = exp::policyKindName(k);
        const auto it = sweep.jobS.find(name);
        m.push_back({"exp.job_s." + name,
                     it == sweep.jobS.end() ? 0.0 : it->second, "s"});
    }
    m.push_back({"exp.warmups_executed", u(sweep.warmupsExecuted), "count"});
    m.push_back({"ckpt.save_ms", tr.saveMs, "ms"});
    m.push_back({"ckpt.restore_ms", tr.restoreMs, "ms"});
    m.push_back({"ckpt.bytes", u(tr.ckptBytes), "bytes"});
    m.push_back({"trace.overhead_frac", ratio(traced.wallS, plain.wallS) - 1.0,
                 "ratio"});

    // Exact counts for the self-test (must repeat run to run).
    std::ostringstream cj;
    cj << "{\"digest\": \"" << plain.digest << "\", \"counts\": {";
    bool first = true;
    for (const Metric &x : m) {
        if (x.unit != "count" && x.unit != "bytes")
            continue;
        cj << (first ? "" : ", ") << '"' << x.name << "\": " << num(x.value);
        first = false;
    }
    cj << ", \"common.timed_allocs\": " << plain.timedAllocs.calls
       << ", \"memside.drive_allocs_per_request\": "
       << num(memside.allocsPerRequest) << ", \"l3.ms_stream\": "
       << ms_stream.size() << ", \"dap.recorded_windows\": "
       << rec.windows.size() << "}}";
    counts_json = cj.str();
    return m;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "hostbench: " << msg
              << "\nusage: hostbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--pins FILE] "
                 "[--commit ID] [--digest-only] [--list]\n";
    std::exit(2);
}

std::string
metaJson(const std::string &workload, std::uint64_t seed, int trace,
         const std::string &commit)
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1;
    std::ostringstream os;
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"seed_role\": \""
       << (seed == kDefaultSeed   ? "default"
           : seed == kHeldOutSeed ? "held-out"
                                  : "other")
       << "\", \"trace\": " << trace << ", \"commit\": \"" << commit
       << "\", \"compiler\": \"" << HOSTBENCH_COMPILER
       << "\", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE
       << "\", \"lto\": " << (HOSTBENCH_LTO ? "true" : "false")
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"loadavg\": [" << load[0] << ", " << load[1] << ", "
       << load[2] << "]}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, pins_path = "hostbench/digests.json",
                          commit = "unknown";
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    bool digest_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = val();
        else if (a == "--seed")
            seed = std::stoull(val());
        else if (a == "--seconds")
            seconds = std::stod(val());
        else if (a == "--trace")
            trace = std::stoi(val());
        else if (a == "--pins")
            pins_path = val();
        else if (a == "--commit")
            commit = val();
        else if (a == "--digest-only")
            digest_only = true;
        else if (a == "--list") {
            for (const std::string &w : kWorkloads)
                std::cout << w << '\n';
            return 0;
        } else
            usage(("unknown argument " + a).c_str());
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
        kWorkloads.end())
        usage(("unknown workload '" + workload + "'").c_str());
    if (trace != 0 && trace != 1)
        usage("--trace takes 0 or 1");

#ifndef __OPTIMIZE__
    if (!digest_only) {
        std::cerr << "hostbench: refusing to report timings from an "
                     "unoptimised build (configure with "
                     "-DCMAKE_BUILD_TYPE=Release)\n";
        return 3;
    }
#endif

    const WorkloadDef w = makeWorkload(workload);
    const Pins pins = loadPins(pins_path, workload, seed);
    // SweepRunner's phase trace lands here (inside the checkout).
    std::filesystem::create_directories(".bench_build");
    const std::string scratch =
        ".bench_build/hostbench-phase-" + std::to_string(getpid()) +
        ".json";

    if (digest_only) {
        // One plain run per job: the digests digests.json pins.
        std::cout << "{\"workload\": \"" << workload
                  << "\", \"seed\": " << seed << ", \"digests\": {";
        if (w.sweep.empty()) {
            const SimResult r =
                simulate(w, w.cfg.policy, nullptr, seed, false, nullptr);
            std::cout << "\"run\": \"" << r.digest << '"';
        } else {
            const ckpt::Checkpoint ck = sweepCheckpoint(w, seed, nullptr);
            for (std::size_t i = 0; i < w.sweep.size(); ++i) {
                const SimResult r =
                    simulate(w, w.sweep[i], &ck, seed, false, nullptr);
                std::cout << (i ? ", " : "") << '"'
                          << exp::policyKindName(w.sweep[i]) << "\": \""
                          << r.digest << '"';
            }
        }
        std::cout << "}}" << std::endl;
        return 0;
    }

    std::cout << "meta " << metaJson(workload, seed, trace, commit) << '\n';
    if (pins.empty())
        std::cout << "note: seed " << seed
                  << " has no pinned digest; checking run-to-run "
                     "agreement only\n";
    Outcome o;
    std::vector<Metric> metrics;
    try {
        if (trace == 0) {
            metrics = runEndToEnd(w, seed, seconds, pins, scratch, o);
        } else {
            std::string counts;
            metrics = runTraced(w, seed, pins, scratch, o, counts);
            std::cout << "counts " << counts << '\n';
        }
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << '\n';
        return 1;
    }
    printResult(metrics, o);
    return 0;
}
