/**
 * @file
 * Unit tests for the synthetic access generators, the 17 workload
 * profiles and the 44-mix roster.
 */

#include <gtest/gtest.h>

#include "trace/mixes.hh"
#include "trace/workloads.hh"

namespace dapsim
{
namespace
{

SyntheticParams
baseParams()
{
    SyntheticParams p;
    p.footprintBytes = 1 * kMiB;
    p.mpki = 25.0;
    p.writeFraction = 0.3;
    p.seed = 77;
    return p;
}

TEST(SyntheticGenerator, DeterministicForSameSeed)
{
    SyntheticGenerator a(baseParams()), b(baseParams());
    TraceRequest ra, rb;
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        EXPECT_EQ(ra.instrGap, rb.instrGap);
    }
}

TEST(SyntheticGenerator, StaysWithinFootprint)
{
    SyntheticParams p = baseParams();
    p.base = 0x123400000;
    SyntheticGenerator g(p);
    TraceRequest r;
    for (int i = 0; i < 10000; ++i) {
        g.next(r);
        EXPECT_GE(r.addr, p.base);
        EXPECT_LT(r.addr, p.base + p.footprintBytes);
    }
}

TEST(SyntheticGenerator, WriteFractionApproximatelyHonored)
{
    SyntheticGenerator g(baseParams());
    TraceRequest r;
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        g.next(r);
        writes += r.isWrite;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(SyntheticGenerator, GapMeanMatchesMpki)
{
    SyntheticGenerator g(baseParams()); // mpki 25 -> mean gap 40
    TraceRequest r;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        g.next(r);
        sum += static_cast<double>(r.instrGap);
    }
    EXPECT_NEAR(sum / n, 40.0, 3.0);
}

TEST(SyntheticGenerator, StreamingIsSequential)
{
    SyntheticParams p = baseParams();
    p.streamFraction = 1.0;
    p.writeFraction = 0.0;
    SyntheticGenerator g(p);
    TraceRequest r;
    g.next(r);
    Addr prev = r.addr;
    for (int i = 0; i < 100; ++i) {
        g.next(r);
        EXPECT_EQ(r.addr, prev + kBlockBytes);
        prev = r.addr;
    }
}

TEST(SyntheticGenerator, HotRegionGetsMostAccesses)
{
    SyntheticParams p = baseParams();
    p.streamFraction = 0.0;
    p.hotFraction = 0.1;
    p.hotProbability = 0.9;
    p.runLength = 1.0;
    SyntheticGenerator g(p);
    TraceRequest r;
    const Addr hot_end = p.footprintBytes / 10;
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        g.next(r);
        hot += r.addr < hot_end;
    }
    // 90% hot + ~10% of the uniform tail also lands there.
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

TEST(Workloads, RosterHasSeventeenNamedProfiles)
{
    EXPECT_EQ(allWorkloads().size(), 17u);
    EXPECT_EQ(bandwidthSensitiveWorkloads().size(), 12u);
    EXPECT_EQ(bandwidthInsensitiveWorkloads().size(), 5u);
}

TEST(Workloads, PaperNamesPresent)
{
    for (const char *name :
         {"mcf", "omnetpp", "libquantum", "soplex.ref", "hpcg",
          "parboil-lbm", "astar.BigLakes", "bzip2.combined", "gcc.expr",
          "gcc.s04", "gobmk.score2", "sjeng", "milc", "bwaves",
          "leslie3D", "cactusADM", "parboil-histo"})
        EXPECT_NO_FATAL_FAILURE((void)workloadByName(name)) << name;
}

TEST(WorkloadsDeathTest, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)workloadByName("quake3"), "unknown");
}

TEST(Workloads, GeneratorsGetPrivateAddressSlices)
{
    const WorkloadProfile &w = workloadByName("mcf");
    auto g0 = makeGenerator(w, 0);
    auto g3 = makeGenerator(w, 3);
    TraceRequest r0, r3;
    g0->next(r0);
    g3->next(r3);
    EXPECT_LT(r0.addr, 1ULL << 40);
    EXPECT_GE(r3.addr, 3ULL << 40);
    EXPECT_LT(r3.addr, 4ULL << 40);
}

TEST(Workloads, SeedSaltChangesTheStream)
{
    const WorkloadProfile &w = workloadByName("mcf");
    auto a = makeGenerator(w, 0, 1);
    auto b = makeGenerator(w, 0, 2);
    TraceRequest ra, rb;
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        a->next(ra);
        b->next(rb);
        same += ra.addr == rb.addr;
    }
    EXPECT_LT(same, 50);
}

TEST(Mixes, FortyFourTotal)
{
    const auto mixes = allMixes();
    EXPECT_EQ(mixes.size(), 44u);
    int sens = 0, insens = 0, het = 0;
    for (const auto &m : mixes) {
        EXPECT_EQ(m.apps.size(), 8u);
        switch (m.kind) {
          case Mix::Kind::Sensitive: ++sens; break;
          case Mix::Kind::Insensitive: ++insens; break;
          case Mix::Kind::Hetero: ++het; break;
        }
    }
    EXPECT_EQ(sens, 12);
    EXPECT_EQ(insens, 5);
    EXPECT_EQ(het, 27);
}

TEST(Mixes, RateMixReplicatesOneApp)
{
    const Mix m = rateMix(workloadByName("hpcg"), 16);
    EXPECT_EQ(m.apps.size(), 16u);
    for (const auto &a : m.apps)
        EXPECT_EQ(a.name, "hpcg");
}

TEST(Mixes, HeterogeneousMixesAreDeterministic)
{
    const auto a = heterogeneousMixes();
    const auto b = heterogeneousMixes();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_EQ(a[i].apps[c].name, b[i].apps[c].name);
}

TEST(Mixes, DissimilarMixesCombineBothClasses)
{
    int found = 0;
    for (const auto &m : heterogeneousMixes()) {
        bool has_sens = false, has_insens = false;
        for (const auto &a : m.apps) {
            has_sens |= a.bandwidthSensitive;
            has_insens |= !a.bandwidthSensitive;
        }
        if (has_sens && has_insens)
            ++found;
    }
    EXPECT_GE(found, 10);
}

} // namespace
} // namespace dapsim
