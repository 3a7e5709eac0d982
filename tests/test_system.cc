/**
 * @file
 * Integration tests: full systems (cores -> L3 -> MS$ -> MM) under
 * every architecture and policy, plus the end-to-end properties the
 * paper's evaluation relies on.
 */

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

constexpr std::uint64_t kSmallInstr = 10'000;

SystemConfig
smallSectored()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 20'000;
    return cfg;
}

Mix
smallMix()
{
    // Aggregate footprint (8 x 1 MB) matches the scaled-down 8 MB MS$.
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 512 * kKiB;
    return rateMix(w, 8);
}

TEST(SystemIntegration, BaselineRunCompletes)
{
    const RunResult r = runMix(smallSectored(), smallMix(), kSmallInstr);
    EXPECT_EQ(r.ipc.size(), 8u);
    for (double ipc : r.ipc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, 4.0);
    }
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.msHitRatio, 0.6);
    EXPECT_EQ(r.policyName, "baseline");
}

TEST(SystemIntegration, EveryArchAndPolicyCombinationRuns)
{
    const Mix mix = smallMix();
    for (MsArch arch :
         {MsArch::Sectored, MsArch::Alloy, MsArch::Edram, MsArch::None}) {
        for (PolicyKind pol :
             {PolicyKind::Baseline, PolicyKind::Dap, PolicyKind::Sbd,
              PolicyKind::SbdWt, PolicyKind::Batman, PolicyKind::Bear}) {
            if (arch == MsArch::None && pol != PolicyKind::Baseline)
                continue;
            SystemConfig cfg = smallSectored();
            cfg.arch = arch;
            cfg.alloy.capacityBytes = 8 * kMiB;
            cfg.edram.capacityBytes = 4 * kMiB;
            cfg.policy = pol;
            if (arch == MsArch::None)
                cfg.warmupAccessesPerCore = 1;
            const RunResult r = runMix(cfg, mix, 3'000);
            EXPECT_GT(r.throughput(), 0.0)
                << "arch=" << static_cast<int>(arch)
                << " policy=" << static_cast<int>(pol);
        }
    }
}

TEST(SystemIntegration, DeterministicEndToEnd)
{
    const RunResult a = runMix(smallSectored(), smallMix(), kSmallInstr);
    const RunResult b = runMix(smallSectored(), smallMix(), kSmallInstr);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.msHitRatio, b.msHitRatio);
}

TEST(SystemIntegration, SeedSaltChangesTiming)
{
    const RunResult a =
        runMix(smallSectored(), smallMix(), kSmallInstr, 1);
    const RunResult b =
        runMix(smallSectored(), smallMix(), kSmallInstr, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemIntegration, DapDoesNotHurtAndShiftsTrafficToMemory)
{
    SystemConfig base = smallSectored();
    SystemConfig dap = base;
    dap.policy = PolicyKind::Dap;
    // A bandwidth-hungry streaming mix.
    WorkloadProfile w = workloadByName("parboil-lbm");
    w.params.footprintBytes = 1 * kMiB;
    const Mix mix = rateMix(w, 8);
    const RunResult rb = runMix(base, mix, 30'000);
    const RunResult rd = runMix(dap, mix, 30'000);
    EXPECT_GE(rd.throughput(), rb.throughput() * 0.97);
    EXPECT_GT(rd.mmCasFraction, rb.mmCasFraction);
    EXPECT_GT(rd.fwb + rd.wb + rd.ifrm + rd.sfrm, 0u);
}

TEST(SystemIntegration, DapLowersHitRatioWhilePartitioning)
{
    SystemConfig base = smallSectored();
    SystemConfig dap = base;
    dap.policy = PolicyKind::Dap;
    WorkloadProfile w = workloadByName("gcc.s04");
    w.params.footprintBytes = 1 * kMiB;
    const Mix mix = rateMix(w, 8);
    const RunResult rb = runMix(base, mix, 30'000);
    const RunResult rd = runMix(dap, mix, 30'000);
    // The paper's headline trade: hit rate may drop, performance not.
    EXPECT_LE(rd.msHitRatio, rb.msHitRatio + 0.01);
}

TEST(SystemIntegration, AloneIpcExceedsRateModeIpc)
{
    const SystemConfig cfg = smallSectored();
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 1 * kMiB;
    const double alone = aloneIpc(cfg, w, kSmallInstr);
    const RunResult shared =
        runMix(cfg, rateMix(w, 8), kSmallInstr);
    EXPECT_GT(alone, 0.0);
    // Sharing the memory system cannot make a copy faster.
    EXPECT_LE(shared.ipc[0], alone * 1.1);
}

TEST(SystemIntegration, SixteenCoreSystemRuns)
{
    SystemConfig cfg = presets::sectoredSystem16();
    cfg.sectored.capacityBytes = 16 * kMiB;
    cfg.warmupAccessesPerCore = 10'000;
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 1 * kMiB;
    const RunResult r = runMix(cfg, rateMix(w, 16), 3'000);
    EXPECT_EQ(r.ipc.size(), 16u);
    EXPECT_GT(r.throughput(), 0.0);
}

TEST(SystemIntegration, NoMsCacheStillWorks)
{
    SystemConfig cfg = smallSectored();
    cfg.arch = MsArch::None;
    cfg.warmupAccessesPerCore = 1;
    const RunResult r = runMix(cfg, smallMix(), 3'000);
    EXPECT_GT(r.throughput(), 0.0);
    EXPECT_EQ(r.mmCasFraction, 1.0); // everything served by memory
}

TEST(SystemIntegration, HarvestReportsTagCacheMissRatio)
{
    const RunResult r = runMix(smallSectored(), smallMix(), kSmallInstr);
    EXPECT_GE(r.tagCacheMissRatio, 0.0);
    EXPECT_LE(r.tagCacheMissRatio, 1.0);
}

TEST(SystemIntegration, MaxTicksBoundsRunaways)
{
    SystemConfig cfg = smallSectored();
    cfg.core.instructions = ~0ull >> 1; // can never finish
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(workloadByName("hpcg"), i));
    System sys(cfg, std::move(gens));
    sys.run(1'000'000); // 1 us cap
    EXPECT_LE(sys.eventQueue().now(), 1'100'000u);
    EXPECT_FALSE(sys.allCoresFinished());
}

TEST(SystemIntegrationDeathTest, GeneratorCountMustMatchCores)
{
    SystemConfig cfg = smallSectored();
    std::vector<AccessGeneratorPtr> gens; // empty
    EXPECT_DEATH(System(cfg, std::move(gens)), "generator");
}

} // namespace
} // namespace dapsim
