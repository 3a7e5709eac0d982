/**
 * @file
 * The multi-fidelity validation suite.
 *
 * Four layers of guarantees:
 *
 *  1. Differential bit-identity — `--fidelity exact` (and a config
 *     that never mentions fidelity at all) reproduces the historical
 *     System::run() path byte-for-byte on every pinned golden
 *     scenario, including the tiered-remote and zipf-drift ones.
 *  2. Statistical error bounds — sampled-mode IPC and per-source
 *     bandwidth fall inside the run's own reported confidence
 *     interval against a golden exact run, on scenarios covering a
 *     plain mix, a drifting workload and a 3-tier system; two
 *     sampled runs with the same seed are identical; analytic mode
 *     lands within its documented (much looser) relative bound.
 *  3. Analytic-engine properties — predicted IPC monotone
 *     non-increasing in offered load, delivered bandwidth never
 *     above efficiency x sum(B_i), exact degeneration to the paper's
 *     2-source Eq 4 optimum with the remote source off, and
 *     byte-identical save/restore mid-fast-forward.
 *  4. Identity hygiene — job content hashes ignore fidelity knobs in
 *     exact mode (flag-absent compatibility) but separate reduced-
 *     fidelity runs, and a `dapsim.expq.v1` store refuses to resume
 *     a manifest whose fidelity drifted from what it recorded.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/fsio.hh"
#include "common/rng.hh"
#include "dap/analytic_engine.hh"
#include "dap/bandwidth_model.hh"
#include "exp/job.hh"
#include "exp/result_sink.hh"
#include "expd/grid.hh"
#include "expd/store.hh"
#include "sim/fidelity.hh"
#include "sim/fidelity_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "workload/compose.hh"

namespace dapsim
{
namespace
{

// ---------------------------------------------------------------------
// 1. Differential bit-identity of exact mode
// ---------------------------------------------------------------------

/** The pinned golden recipe (see tests/test_golden_runs.cc). */
SystemConfig
goldenConfig(MsArch arch, bool remote = false)
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.arch = arch;
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.alloy.capacityBytes = 8 * kMiB;
    cfg.edram.capacityBytes = 4 * kMiB;
    cfg.policy = PolicyKind::Dap;
    cfg.core.instructions = 3'000;
    cfg.warmupAccessesPerCore = 5'000;
    if (remote) {
        cfg.remote.enabled = true;
        cfg.remote.bwScaleFactor = 4.0;
        cfg.remote.addLatencyNs = 120.0;
        cfg.remote.maxOutstanding = 32;
    }
    return cfg;
}

std::vector<AccessGeneratorPtr>
goldenGenerators(std::uint32_t cores)
{
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 512 * kKiB;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cores; ++i)
        gens.push_back(makeGenerator(w, i));
    return gens;
}

std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** Run the scenario through the historical path (sys.run(), no
 *  fidelity anywhere) and through runFidelityOn() with an explicit
 *  exact config; both stats dumps must be byte-identical. */
void
expectExactBitIdentity(const SystemConfig &cfg,
                       std::vector<AccessGeneratorPtr> head_gens,
                       std::vector<AccessGeneratorPtr> exact_gens)
{
    System head(cfg, std::move(head_gens));
    head.warmup(cfg.warmupAccessesPerCore);
    head.run();
    const std::string want = statsOf(head);

    SystemConfig exact_cfg = cfg;
    exact_cfg.fidelity.mode = FidelityMode::Exact;
    // Knob values must be inert in exact mode.
    exact_cfg.fidelity.detailInstr = 1;
    exact_cfg.fidelity.periodInstr = 77;
    System exact(exact_cfg, std::move(exact_gens));
    exact.warmup(cfg.warmupAccessesPerCore);
    const RunResult r =
        runFidelityOn(exact, "golden", cfg.core.instructions);
    EXPECT_FALSE(r.fidelity.valid);
    EXPECT_EQ(want, statsOf(exact));
}

TEST(FidelityExact, BitIdenticalOnGoldenScenarios)
{
    for (const MsArch arch :
         {MsArch::Sectored, MsArch::Alloy, MsArch::Edram}) {
        const SystemConfig cfg = goldenConfig(arch);
        expectExactBitIdentity(cfg, goldenGenerators(cfg.numCores),
                               goldenGenerators(cfg.numCores));
    }
}

TEST(FidelityExact, BitIdenticalOnTieredRemote)
{
    const SystemConfig cfg =
        goldenConfig(MsArch::Sectored, /*remote=*/true);
    expectExactBitIdentity(cfg, goldenGenerators(cfg.numCores),
                           goldenGenerators(cfg.numCores));
}

TEST(FidelityExact, BitIdenticalOnZipfDrift)
{
    SystemConfig cfg = goldenConfig(MsArch::Sectored);
    const workload::ComposedMix cm = workload::composeWorkload(
        "zipf:skew=0.99,fp=512K,drift=rotate,period=20000,mpki=30",
        cfg.numCores);
    cfg.obs.coreTenants = cm.coreTenants;
    auto gens = [&cm] { return mixGenerators(cm.mix, 0); };
    expectExactBitIdentity(cfg, gens(), gens());
}

// ---------------------------------------------------------------------
// 2. Statistical error bounds for sampled and analytic modes
// ---------------------------------------------------------------------

/** One error-bound scenario: a config plus the mix it runs. */
struct Scenario
{
    std::string name;
    SystemConfig cfg;
    Mix mix;
};

Scenario
plainScenario()
{
    Scenario s;
    s.name = "plain_hpcg";
    s.cfg = presets::sectoredSystem8();
    s.cfg.sectored.capacityBytes = 8 * kMiB;
    s.cfg.policy = PolicyKind::Dap;
    s.cfg.warmupAccessesPerCore = 5'000;
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 512 * kKiB;
    s.mix = rateMix(w, s.cfg.numCores);
    return s;
}

Scenario
driftScenario()
{
    Scenario s;
    s.name = "zipf_drift";
    s.cfg = presets::sectoredSystem8();
    s.cfg.sectored.capacityBytes = 8 * kMiB;
    s.cfg.policy = PolicyKind::Dap;
    s.cfg.warmupAccessesPerCore = 5'000;
    const workload::ComposedMix cm = workload::composeWorkload(
        "zipf:skew=0.99,fp=512K,drift=rotate,period=20000,mpki=30",
        s.cfg.numCores);
    s.cfg.obs.coreTenants = cm.coreTenants;
    s.mix = cm.mix;
    return s;
}

Scenario
tieredScenario()
{
    Scenario s = plainScenario();
    s.name = "tiered_remote";
    s.cfg.remote.enabled = true;
    s.cfg.remote.bwScaleFactor = 4.0;
    s.cfg.remote.addLatencyNs = 120.0;
    s.cfg.remote.maxOutstanding = 32;
    return s;
}

std::vector<Scenario>
errorBoundScenarios()
{
    return {plainScenario(), driftScenario(), tieredScenario()};
}

constexpr std::uint64_t kErrInstr = 30'000;

/** Golden per-source bandwidth of an exact run (GB/s), measured the
 *  same way the sampled windows measure theirs. */
struct GoldenBandwidth
{
    double ms, mm, remote;
};

GoldenBandwidth
goldenBandwidth(const Scenario &s, RunResult &result_out)
{
    SystemConfig cfg = s.cfg;
    cfg.core.instructions = kErrInstr;
    System sys(cfg, mixGenerators(s.mix, 0));
    sys.warmup(cfg.warmupAccessesPerCore);
    result_out = runFidelityOn(sys, s.mix.name, kErrInstr);
    const System::SourceSnapshot snap = sys.sourceSnapshot();
    const double seconds = static_cast<double>(result_out.cycles) *
                           kCpuPeriodPs / kPsPerSecond;
    auto gbps = [seconds](std::uint64_t reads, std::uint64_t writes) {
        return static_cast<double>(reads + writes) * kBlockBytes /
               seconds / 1e9;
    };
    return GoldenBandwidth{gbps(snap.msReads, snap.msWrites),
                           gbps(snap.mmReads, snap.mmWrites),
                           gbps(snap.remReads, snap.remWrites)};
}

RunResult
runScenarioAt(const Scenario &s, const FidelityConfig &fid)
{
    SystemConfig cfg = s.cfg;
    cfg.fidelity = fid;
    return runMix(cfg, s.mix, kErrInstr);
}

FidelityConfig
sampledConfig()
{
    FidelityConfig fid;
    fid.mode = FidelityMode::Sampled;
    fid.detailInstr = 3'000;
    fid.periodInstr = 6'000;
    return fid;
}

void
expectWithinCi(double mean, double ci_half, double golden,
               const std::string &what)
{
    EXPECT_LE(std::fabs(mean - golden), ci_half + 1e-12)
        << what << ": mean " << mean << " +/- " << ci_half
        << " does not cover exact " << golden;
}

TEST(FidelitySampled, WithinReportedCiOfExact)
{
    for (const Scenario &s : errorBoundScenarios()) {
        SCOPED_TRACE(s.name);
        RunResult exact;
        const GoldenBandwidth golden = goldenBandwidth(s, exact);

        const RunResult sampled = runScenarioAt(s, sampledConfig());
        ASSERT_TRUE(sampled.fidelity.valid);
        const FidelityReport &f = sampled.fidelity;
        EXPECT_EQ(f.mode, "sampled");
        EXPECT_GE(f.windows, 3u);
        EXPECT_GT(f.fastForwardInstr, 0u);
        EXPECT_LT(f.detailFraction, 1.0);

        expectWithinCi(f.ipcMean, f.ipcCiHalf, exact.throughput(),
                       "ipc");
        expectWithinCi(f.msGBpsMean, f.msGBpsCiHalf, golden.ms,
                       "ms_gbps");
        expectWithinCi(f.mmGBpsMean, f.mmGBpsCiHalf, golden.mm,
                       "mm_gbps");
        if (s.cfg.remote.enabled)
            expectWithinCi(f.remoteGBpsMean, f.remoteGBpsCiHalf,
                           golden.remote, "remote_gbps");
        else
            EXPECT_EQ(f.remoteGBpsMean, 0.0);
    }
}

TEST(FidelitySampled, FixedSeedRunsAreReproducible)
{
    const Scenario s = driftScenario();
    const RunResult a = runScenarioAt(s, sampledConfig());
    const RunResult b = runScenarioAt(s, sampledConfig());
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fidelity.windows, b.fidelity.windows);
    EXPECT_EQ(a.fidelity.ipcMean, b.fidelity.ipcMean);
    EXPECT_EQ(a.fidelity.ipcCiHalf, b.fidelity.ipcCiHalf);
    EXPECT_EQ(a.fidelity.msGBpsMean, b.fidelity.msGBpsMean);
    EXPECT_EQ(a.fidelity.mmGBpsMean, b.fidelity.mmGBpsMean);
}

TEST(FidelityAnalytic, WithinDocumentedBound)
{
    for (const Scenario &s : errorBoundScenarios()) {
        SCOPED_TRACE(s.name);
        RunResult exact;
        goldenBandwidth(s, exact);

        FidelityConfig fid;
        fid.mode = FidelityMode::Analytic;
        const RunResult analytic = runScenarioAt(s, fid);
        ASSERT_TRUE(analytic.fidelity.valid);
        EXPECT_EQ(analytic.fidelity.mode, "analytic");
        // Analytic mode's contract is the configured relative bound —
        // far looser than sampled's CI, but still a bound.
        const double err = std::fabs(analytic.throughput() -
                                     exact.throughput()) /
                           exact.throughput();
        EXPECT_LE(err, fid.analyticRelBound)
            << "analytic IPC " << analytic.throughput()
            << " vs exact " << exact.throughput();
    }
}

// ---------------------------------------------------------------------
// 3. Analytic-engine properties
// ---------------------------------------------------------------------

constexpr double kBms = 2.0, kBmm = 0.5, kBrem = 0.125;
constexpr double kEff = 0.75;

fastfwd::WindowSample
scaledWindow(std::uint64_t k)
{
    fastfwd::WindowSample w;
    w.instr = 40'000;
    w.cycles = 10'000;
    w.msReads = k * 1'500;
    w.msWrites = k * 500;
    w.mmReads = k * 700;
    w.mmWrites = k * 300;
    w.remReads = k * 200;
    w.remWrites = k * 100;
    return w;
}

TEST(AnalyticEngine, IpcMonotoneNonIncreasingInOfferedLoad)
{
    double prev = 1e30;
    for (std::uint64_t k = 1; k <= 12; ++k) {
        fastfwd::AnalyticEngine eng(kBms, kBmm, kBrem, kEff, 1.0);
        eng.observe(scaledWindow(k));
        const double ipc = eng.predictIpc();
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, prev + 1e-12) << "load scale " << k;
        prev = ipc;
    }
}

TEST(AnalyticEngine, DeliveredNeverExceedsSumOfPeaks)
{
    const fastfwd::AnalyticEngine eng(kBms, kBmm, kBrem, kEff, 0.5);
    const double cap = kEff * (kBms + kBmm + kBrem);
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const double ms = rng.below(1'000) / 100.0;
        const double mm = rng.below(1'000) / 100.0;
        const double rem = rng.below(1'000) / 100.0;
        EXPECT_LE(eng.deliveredAccPerCycle(ms, mm, rem),
                  cap + 1e-12)
            << ms << "/" << mm << "/" << rem;
    }
    // Zero load returns the sum cap itself, not infinity.
    EXPECT_DOUBLE_EQ(eng.deliveredAccPerCycle(0.0, 0.0, 0.0), cap);
}

TEST(AnalyticEngine, DegeneratesToTwoSourceEq4WithRemoteOff)
{
    // No remote source: the engine's model must reproduce the paper's
    // Eq 4 optimum exactly — at the optimal split the delivered
    // bandwidth is the full (derated) sum of both peaks.
    const fastfwd::AnalyticEngine eng(kBms, kBmm, 0.0, kEff, 0.5);
    const std::vector<double> bands{kEff * kBms, kEff * kBmm};
    const std::vector<double> frac = bwmodel::optimalFractions(bands);
    ASSERT_EQ(frac.size(), 2u);
    // Cross-check the n-source split against the closed-form 2-source
    // memory fraction.
    EXPECT_NEAR(frac[1],
                bwmodel::optimalMemoryFraction(bands[0], bands[1]),
                1e-12);

    const double scale = 3.0; // fractions, not magnitudes, matter
    const double delivered = eng.deliveredAccPerCycle(
        scale * frac[0], scale * frac[1], 0.0);
    EXPECT_NEAR(delivered, kEff * (kBms + kBmm), 1e-12);
    EXPECT_NEAR(delivered,
                bwmodel::deliveredBandwidth(bands, frac), 1e-12);

    // Off-optimal splits strictly lose bandwidth (Eq 4 is the max).
    EXPECT_LT(eng.deliveredAccPerCycle(0.9, 0.1, 0.0), delivered);
    EXPECT_LT(eng.deliveredAccPerCycle(0.1, 0.9, 0.0), delivered);
}

TEST(AnalyticEngine, SaveRestoreMidFastForwardIsByteIdentical)
{
    fastfwd::AnalyticEngine a(kBms, kBmm, kBrem, kEff, 0.5);
    a.observe(scaledWindow(2));
    a.observe(scaledWindow(3));
    // Odd chunk sizes leave non-trivial fractional remainders behind.
    a.fastForward(7'777);

    ckpt::Serializer mid;
    a.save(mid);
    fastfwd::AnalyticEngine b(kBms, kBmm, kBrem, kEff, 0.5);
    ckpt::Deserializer d(mid.buffer());
    b.restore(d);

    for (const std::uint64_t chunk : {1'234u, 999u, 50'001u, 1u}) {
        const fastfwd::FastForwardChunk ca = a.fastForward(chunk);
        const fastfwd::FastForwardChunk cb = b.fastForward(chunk);
        EXPECT_EQ(ca.cycles, cb.cycles);
        EXPECT_EQ(ca.msReads, cb.msReads);
        EXPECT_EQ(ca.msWrites, cb.msWrites);
        EXPECT_EQ(ca.mmReads, cb.mmReads);
        EXPECT_EQ(ca.mmWrites, cb.mmWrites);
        EXPECT_EQ(ca.remReads, cb.remReads);
        EXPECT_EQ(ca.remWrites, cb.remWrites);
    }
    ckpt::Serializer sa, sb;
    a.save(sa);
    b.save(sb);
    EXPECT_EQ(sa.buffer(), sb.buffer());
}

// ---------------------------------------------------------------------
// 4. Identity hygiene: content hashes and the experiment store
// ---------------------------------------------------------------------

exp::JobSpec
hashSpec()
{
    exp::JobSpec spec;
    spec.cfg = presets::sectoredSystem8();
    spec.mix = rateMix(workloadByName("mcf"), spec.cfg.numCores);
    spec.policy = PolicyKind::Dap;
    spec.instr = 2'000;
    return spec;
}

TEST(FidelityJobHash, ExactIdsIgnoreFidelityKnobs)
{
    // Flag-absent compatibility: an exact-mode spec hashes the same
    // no matter what the (inert) sampling knobs say, so ids match
    // those of builds that predate the fidelity layer.
    const std::string base = exp::jobId(hashSpec());
    exp::JobSpec tweaked = hashSpec();
    tweaked.cfg.fidelity.detailInstr = 999;
    tweaked.cfg.fidelity.periodInstr = 123'456;
    EXPECT_EQ(exp::jobId(tweaked), base);
}

TEST(FidelityJobHash, ReducedFidelityIdsAreDistinct)
{
    const std::string base = exp::jobId(hashSpec());

    exp::JobSpec sampled = hashSpec();
    sampled.cfg.fidelity.mode = FidelityMode::Sampled;
    const std::string sampled_id = exp::jobId(sampled);
    EXPECT_NE(sampled_id, base);

    exp::JobSpec analytic = hashSpec();
    analytic.cfg.fidelity.mode = FidelityMode::Analytic;
    const std::string analytic_id = exp::jobId(analytic);
    EXPECT_NE(analytic_id, base);
    EXPECT_NE(analytic_id, sampled_id);

    // Sampling knobs are load-bearing once the mode is reduced.
    exp::JobSpec coarser = sampled;
    coarser.cfg.fidelity.periodInstr *= 2;
    EXPECT_NE(exp::jobId(coarser), sampled_id);

    // Determinism: same spec, same id.
    EXPECT_EQ(exp::jobId(sampled), sampled_id);
}

expd::GridOptions
storeGrid(const std::string &fidelity)
{
    expd::GridOptions opt;
    opt.archs = {"sectored"};
    opt.policies = {"dap"};
    opt.workloads = {"mcf"};
    opt.capacitiesMb = {2};
    opt.cores = 4;
    opt.instr = 2'000;
    opt.warmup = 2'000;
    opt.fidelity = fidelity;
    return opt;
}

TEST(FidelityExpq, StoreRefusesDriftedFidelityResume)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "dapsim_fidelity_drift")
            .string();
    std::filesystem::remove_all(dir);

    // Forge the torn-upgrade failure mode: the manifest's options
    // claim exact, but its job records were expanded at sampled
    // fidelity. Every record is individually valid; the store as a
    // whole no longer describes what re-expansion produces, and
    // open() must refuse rather than resume the wrong jobs.
    const expd::GridOptions exact = storeGrid("exact");
    const auto sampled_jobs = expd::expandGrid(storeGrid("sampled"));
    std::string text =
        expd::gridRecord(exact, sampled_jobs.size());
    for (std::size_t i = 0; i < sampled_jobs.size(); ++i)
        text += expd::jobRecord(sampled_jobs[i], i);
    std::filesystem::create_directories(dir);
    fsio::atomicWriteFile(dir + "/grid.jsonl", text);
    EXPECT_THROW(expd::Store::open(dir), expd::StoreError);
    std::filesystem::remove_all(dir);

    // Sanity: an honest sampled store round-trips.
    expd::Store::create(dir, storeGrid("sampled"));
    const expd::Store reopened = expd::Store::open(dir);
    EXPECT_EQ(reopened.jobs().size(), 1u);
    EXPECT_EQ(reopened.jobs()[0].spec.cfg.fidelity.mode,
              FidelityMode::Sampled);
    std::filesystem::remove_all(dir);
}

TEST(FidelityReportRow, EmittedForReducedFidelityOnly)
{
    exp::JobResult r;
    r.index = 3;
    r.jobId = "0123456789abcdef";
    r.ok = true;
    EXPECT_EQ(exp::fidelityReportToJson(r), "");

    r.result.fidelity.valid = true;
    r.result.fidelity.mode = "sampled";
    r.result.fidelity.windows = 5;
    r.result.fidelity.ipcMean = 2.5;
    r.result.fidelity.ipcCiHalf = 0.1;
    const std::string row = exp::fidelityReportToJson(r);
    EXPECT_NE(row.find("\"schema\":\"dapsim.fidelity.v1\""),
              std::string::npos);
    EXPECT_NE(row.find("\"mode\":\"sampled\""), std::string::npos);
    EXPECT_NE(row.find("\"job_id\":\"0123456789abcdef\""),
              std::string::npos);

    // Failed jobs never carry a fidelity row, valid report or not.
    r.ok = false;
    EXPECT_EQ(exp::fidelityReportToJson(r), "");
}

} // namespace
} // namespace dapsim
