/**
 * @file
 * End-to-end properties of DAP's learning loop: convergence toward the
 * Equation 4 partition under saturation, thread-aware IFRM, and the
 * no-partitioning guarantee when demand is low.
 */

#include <gtest/gtest.h>

#include "dap/bandwidth_model.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

/** A hungry streaming mix that saturates the scaled MS$. */
Mix
hungryMix()
{
    WorkloadProfile w = workloadByName("parboil-lbm");
    w.params.footprintBytes = 1 * kMiB;
    w.params.mpki = 40.0;
    return rateMix(w, 8);
}

SystemConfig
smallSystem()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 20'000;
    return cfg;
}

TEST(DapConvergence, MmCasFractionMovesTowardEquationFourOptimum)
{
    SystemConfig base = smallSystem();
    SystemConfig dap = base;
    dap.policy = PolicyKind::Dap;
    const std::uint64_t instr = 40'000;

    const RunResult rb = runMix(base, hungryMix(), instr);
    const RunResult rd = runMix(dap, hungryMix(), instr);

    const double optimum =
        bwmodel::optimalMemoryFraction(102.4, 38.4); // 0.273
    // DAP must land strictly closer to the optimum than the baseline.
    EXPECT_LT(std::abs(rd.mmCasFraction - optimum),
              std::abs(rb.mmCasFraction - optimum));
}

TEST(DapConvergence, QuietWorkloadIsLeftAlone)
{
    // A low-MPKI mix never saturates the MS$: DAP must make almost no
    // partitioning decisions (the paper's bandwidth-insensitive rows).
    WorkloadProfile w = workloadByName("cactusADM");
    w.params.footprintBytes = 512 * kKiB;
    w.params.mpki = 2.0;
    SystemConfig dap = smallSystem();
    dap.policy = PolicyKind::Dap;
    const RunResult rd = runMix(dap, rateMix(w, 8), 20'000);
    // SFRM is latency-neutral and exempt from the quiet gate; the
    // bypassing techniques must stay silent.
    const double decisions =
        static_cast<double>(rd.fwb + rd.wb + rd.ifrm);
    EXPECT_LT(decisions, 50.0);
}

TEST(DapConvergence, ThreadAwareIfrmSparesMaskedCores)
{
    SystemConfig cfg = smallSystem();
    cfg.policy = PolicyKind::Dap;
    cfg.dap.enableFwb = false;
    cfg.dap.enableWb = false;
    cfg.dap.enableSfrm = false;
    // Only cores 4..7 may take forced read misses.
    cfg.dap.ifrmCoreMask = 0xF0;
    cfg.core.instructions = 30'000;

    System sys(cfg, mixGenerators(hungryMix(), 0));
    sys.warmup(20'000);
    sys.run();

    // Forced misses happened, and the spared cores kept their hits:
    // their IPC is at least that of the sacrificed cores on average.
    DapPolicy *dap = sys.dapPolicy();
    ASSERT_NE(dap, nullptr);
    if (dap->ifrmApplied.value() > 0) {
        double spared = 0, sacrificed = 0;
        for (std::uint32_t i = 0; i < 4; ++i)
            spared += sys.core(i).finished()
                          ? sys.core(i).finishIpc()
                          : sys.core(i).ipcAt(sys.eventQueue().now());
        for (std::uint32_t i = 4; i < 8; ++i)
            sacrificed +=
                sys.core(i).finished()
                    ? sys.core(i).finishIpc()
                    : sys.core(i).ipcAt(sys.eventQueue().now());
        EXPECT_GE(spared, sacrificed * 0.9);
    }
}

TEST(DapConvergence, MaskAllZeroDisablesIfrmEntirely)
{
    SystemConfig cfg = smallSystem();
    cfg.policy = PolicyKind::Dap;
    cfg.dap.ifrmCoreMask = 0;
    const RunResult rd = runMix(cfg, hungryMix(), 20'000);
    EXPECT_EQ(rd.ifrm, 0u);
}

TEST(DapConvergence, WindowSweepAllDeliverGains)
{
    // Any reasonable window size must not lose on a hungry mix
    // (Table I's robustness claim).
    SystemConfig base = smallSystem();
    const RunResult rb = runMix(base, hungryMix(), 20'000);
    for (Cycle w : {32u, 64u, 128u}) {
        SystemConfig dap = base;
        dap.policy = PolicyKind::Dap;
        dap.windowCycles = w;
        const RunResult rd = runMix(dap, hungryMix(), 20'000);
        // Off-default windows may trail slightly on this small-scale
        // mix (Table I shows W=32/128 within ~2% of W=64).
        EXPECT_GE(rd.throughput(), rb.throughput() * 0.94)
            << "W=" << w;
    }
}

} // namespace
} // namespace dapsim
