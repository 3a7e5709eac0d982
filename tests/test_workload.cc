/**
 * @file
 * Tests for the workload engine (src/workload/): the Zipf sampler's
 * statistical fidelity, the Feistel block permutation, spec parsing
 * and validation, seed determinism of every kernel, checkpoint
 * round-trips cut mid-phase-drift, and the MixComposer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "ckpt/serializer.hh"
#include "trace/workloads.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"
#include "workload/zipf.hh"

namespace dapsim
{
namespace
{

using workload::BlockPermutation;
using workload::ZipfSampler;

// ---- ZipfSampler ---------------------------------------------------

TEST(ZipfSampler, ProbabilitiesSumToOne)
{
    const ZipfSampler z(512, 0.99);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < z.ranks(); ++r)
        sum += z.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Monotone non-increasing popularity.
    for (std::uint64_t r = 1; r < z.ranks(); ++r)
        EXPECT_LE(z.probability(r), z.probability(r - 1) + 1e-15);
}

/** Chi-square goodness-of-fit of the sampler against the analytic
 *  distribution. With 511 degrees of freedom the statistic has mean
 *  511 and sd ~32; 700 is ~6 sigma, so a correct sampler passes with
 *  overwhelming margin while an off-by-one or biased search fails. */
TEST(ZipfSampler, ChiSquareMatchesAnalytic)
{
    const std::uint64_t n = 512;
    const ZipfSampler z(n, 1.0);
    Rng rng(42);
    const std::uint64_t samples = 300'000;
    std::vector<std::uint64_t> counts(n, 0);
    for (std::uint64_t i = 0; i < samples; ++i)
        ++counts[z.sample(rng)];

    double chi2 = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        const double expect =
            z.probability(r) * static_cast<double>(samples);
        const double diff = static_cast<double>(counts[r]) - expect;
        chi2 += diff * diff / expect;
    }
    EXPECT_LT(chi2, 700.0) << "sampler deviates from Zipf(1.0)";
    EXPECT_GT(chi2, 300.0) << "suspiciously perfect fit";
}

TEST(ZipfSampler, HigherSkewConcentratesMass)
{
    const ZipfSampler mild(1024, 0.7), hot(1024, 1.3);
    EXPECT_GT(hot.probability(0), mild.probability(0));
    // Top-8 mass under skew 1.3 dominates.
    double top = 0.0;
    for (std::uint64_t r = 0; r < 8; ++r)
        top += hot.probability(r);
    EXPECT_GT(top, 0.5);
}

TEST(ZipfSampler, CapsTableAboveMaxRanks)
{
    const ZipfSampler z(ZipfSampler::kMaxRanks * 4, 0.99);
    EXPECT_EQ(z.ranks(), ZipfSampler::kMaxRanks);
}

// ---- BlockPermutation ----------------------------------------------

TEST(BlockPermutation, IsBijectionOnAwkwardSizes)
{
    for (const std::uint64_t n : {1ULL, 2ULL, 5ULL, 1000ULL, 4096ULL}) {
        const BlockPermutation p(n, 0xfeedULL + n);
        std::set<std::uint64_t> seen;
        for (std::uint64_t x = 0; x < n; ++x) {
            const std::uint64_t y = p.apply(x);
            EXPECT_LT(y, n);
            seen.insert(y);
        }
        EXPECT_EQ(seen.size(), n) << "not a bijection for n=" << n;
    }
}

TEST(BlockPermutation, SeedChangesThePermutation)
{
    const BlockPermutation a(1000, 1), b(1000, 2);
    std::uint64_t same = 0;
    for (std::uint64_t x = 0; x < 1000; ++x)
        same += a.apply(x) == b.apply(x);
    EXPECT_LT(same, 50u); // ~1 expected for random permutations
}

// ---- Spec parsing and validation -----------------------------------

TEST(WorkloadSpec, LooksLikeSpec)
{
    EXPECT_TRUE(workload::looksLikeSpec("zipf"));
    EXPECT_TRUE(workload::looksLikeSpec("zipf:skew=1.2"));
    EXPECT_TRUE(workload::looksLikeSpec("mix:t0=zipf"));
    EXPECT_FALSE(workload::looksLikeSpec("mcf"));
    EXPECT_FALSE(workload::looksLikeSpec("nope"));
}

TEST(WorkloadSpecDeath, RejectsBadSpecs)
{
    EXPECT_DEATH(workload::validateSpec("zipf:skew=-1"), "must be > 0");
    EXPECT_DEATH(workload::validateSpec("zipf:write=1.5"),
                 "within \\[0, 1\\]");
    EXPECT_DEATH(workload::validateSpec("zipf:mpki=0"),
                 "within \\(0, 1000\\]");
    EXPECT_DEATH(workload::validateSpec("zipf:bogus=1"),
                 "unknown parameter");
    EXPECT_DEATH(workload::validateSpec("zipf:drift=sideways"),
                 "none, rotate, jump, migrate");
    EXPECT_DEATH(workload::validateSpec("zipf:fp=1"), "at least 64");
    EXPECT_DEATH(workload::validateSpec("wat:x=1"),
                 "unknown workload-spec kind");
    EXPECT_DEATH(workload::validateSpec("zipf:skew"), "key=value");
    // Numbers must be whole and in range: no sign on counts or sizes,
    // no trailing text, no NaN, no size past 2^64.
    EXPECT_DEATH(workload::validateSpec("zipf:drift=jump,period=-1"),
                 "zipf:period expects a non-negative integer");
    EXPECT_DEATH(workload::validateSpec("zipf:fp=-16M"),
                 "zipf:fp expects a non-negative integer");
    EXPECT_DEATH(workload::validateSpec("zipf:fp=99999999999999G"),
                 "zipf:fp is out of range");
    EXPECT_DEATH(workload::validateSpec("zipf:skew=1.5x"),
                 "zipf:skew expects a finite number");
}

TEST(WorkloadSpecDeath, SyntheticParamsRejectOutOfRangeDials)
{
    SyntheticParams p;
    p.hotProbability = 1.5;
    EXPECT_DEATH(SyntheticGenerator{p}, "hotProbability");
    p = SyntheticParams{};
    p.writeFraction = -0.1;
    EXPECT_DEATH(SyntheticGenerator{p}, "writeFraction");
    p = SyntheticParams{};
    p.mpki = 0.0;
    EXPECT_DEATH(SyntheticGenerator{p}, "mpki");
    p = SyntheticParams{};
    p.runLength = 0.5;
    EXPECT_DEATH(SyntheticGenerator{p}, "runLength");
}

/** Satellite: the unknown-workload error must enumerate the choices. */
TEST(WorkloadSpecDeath, UnknownWorkloadErrorListsChoices)
{
    EXPECT_DEATH(workloadByName("nope"), "mcf");
    EXPECT_DEATH(workloadByName("nope"), "zipf");
    EXPECT_DEATH(workloadByName("nope"), "trace_gen --list");
}

// ---- Generator determinism and checkpointing -----------------------

const char *const kAllKernels[] = {
    "zipf:skew=0.99,fp=1M,drift=rotate,period=5000",
    "zipf:skew=1.2,fp=1M,drift=migrate,period=3000",
    "hotspot:hot=0.1,p=0.85,fp=1M,drift=jump,period=4000",
    "flood:fp=1M",
    "chase:fp=1M",
    "wburst:fp=1M,burst=32,duty=0.6",
    "sparse:fp=1M,stride=8",
};

TEST(WorkloadEngine, StreamsAreSeedDeterministic)
{
    for (const char *spec : kAllKernels) {
        auto a = workload::makeSpecGenerator(spec, 2, 5);
        auto b = workload::makeSpecGenerator(spec, 2, 5);
        TraceRequest ra, rb;
        for (int i = 0; i < 20'000; ++i) {
            ASSERT_TRUE(a->next(ra));
            ASSERT_TRUE(b->next(rb));
            ASSERT_EQ(ra.addr, rb.addr) << spec << " @" << i;
            ASSERT_EQ(ra.isWrite, rb.isWrite) << spec << " @" << i;
            ASSERT_EQ(ra.instrGap, rb.instrGap) << spec << " @" << i;
        }
    }
}

TEST(WorkloadEngine, DifferentCoresGetPrivateSlices)
{
    auto g0 = workload::makeSpecGenerator("zipf:fp=1M", 0);
    auto g3 = workload::makeSpecGenerator("zipf:fp=1M", 3);
    TraceRequest r;
    for (int i = 0; i < 1'000; ++i) {
        ASSERT_TRUE(g0->next(r));
        EXPECT_LT(r.addr, 1ULL << 40);
        ASSERT_TRUE(g3->next(r));
        EXPECT_GE(r.addr, 3ULL << 40);
        EXPECT_LT(r.addr, 4ULL << 40);
    }
}

/** Save mid-drift, restore into a fresh instance, and require the
 *  continuation to be byte-identical to the uninterrupted stream. */
TEST(WorkloadEngine, CheckpointRoundTripMidDrift)
{
    for (const char *spec : kAllKernels) {
        auto ref = workload::makeSpecGenerator(spec, 1, 9);
        TraceRequest r;
        // Advance past at least one drift phase boundary.
        for (int i = 0; i < 7'000; ++i)
            ASSERT_TRUE(ref->next(r));

        ckpt::Serializer s;
        ref->save(s);

        auto resumed = workload::makeSpecGenerator(spec, 1, 9);
        ckpt::Deserializer d(s.buffer());
        resumed->restore(d);
        ASSERT_TRUE(d.atEnd()) << spec;

        TraceRequest a, b;
        for (int i = 0; i < 10'000; ++i) {
            ASSERT_TRUE(ref->next(a));
            ASSERT_TRUE(resumed->next(b));
            ASSERT_EQ(a.addr, b.addr) << spec << " @" << i;
            ASSERT_EQ(a.isWrite, b.isWrite) << spec << " @" << i;
            ASSERT_EQ(a.instrGap, b.instrGap) << spec << " @" << i;
        }
    }
}

TEST(WorkloadEngine, DriftActuallyMovesTheHotSet)
{
    // With jump drift, the busiest block region must change between
    // phases; without drift it must not.
    auto hist = [](const char *spec, int from, int to) {
        auto g = workload::makeSpecGenerator(spec, 0, 0);
        TraceRequest r;
        std::vector<std::uint64_t> h(16, 0);
        for (int i = 0; i < to; ++i) {
            EXPECT_TRUE(g->next(r));
            if (i >= from)
                ++h[(r.addr / kBlockBytes) * 16 / 16384];
        }
        return static_cast<std::size_t>(
            std::max_element(h.begin(), h.end()) - h.begin());
    };
    // seed=2: the phase-0 and phase-1 jump offsets land in different
    // 1/16 buckets (with the default seed they happen to collide).
    const char *drifting =
        "hotspot:hot=0.03,p=0.95,fp=1M,drift=jump,period=8000,run=1,"
        "seed=2";
    const char *stationary = "hotspot:hot=0.03,p=0.95,fp=1M,run=1";
    EXPECT_NE(hist(drifting, 0, 4000), hist(drifting, 12'000, 16'000));
    EXPECT_EQ(hist(stationary, 0, 4000),
              hist(stationary, 12'000, 16'000));
}

// ---- MixComposer ---------------------------------------------------

TEST(MixComposer, ClassicNameComposesRateMix)
{
    const auto cm = workload::composeWorkload("mcf", 4);
    ASSERT_EQ(cm.mix.apps.size(), 4u);
    EXPECT_EQ(cm.mix.apps[0].name, "mcf");
    EXPECT_TRUE(cm.mix.apps[0].spec.empty());
    ASSERT_EQ(cm.coreTenants.size(), 4u);
    EXPECT_EQ(cm.coreTenants[0], "mcf");
}

TEST(MixComposer, PlainSpecCoversAllCores)
{
    const auto cm = workload::composeWorkload("zipf:skew=1.1,fp=1M", 8);
    ASSERT_EQ(cm.mix.apps.size(), 8u);
    for (const auto &app : cm.mix.apps)
        EXPECT_EQ(app.spec, "zipf:skew=1.1,fp=1M");
    EXPECT_EQ(cm.mix.name, "zipf:skew=1.1,fp=1M");
}

TEST(MixComposer, TenantsSplitCoresAndCarrySpecs)
{
    const auto cm = workload::composeWorkload(
        "mix:t0=zipf,t0.skew=0.9,t0.cores=3,t0.name=web,t1=flood", 8);
    ASSERT_EQ(cm.mix.apps.size(), 8u);
    // t0: three cores of the zipf spec.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(cm.mix.apps[i].spec, "zipf:skew=0.9");
        EXPECT_EQ(cm.coreTenants[i], "web");
    }
    // t1: the remaining five cores.
    for (int i = 3; i < 8; ++i) {
        EXPECT_EQ(cm.mix.apps[i].spec, "flood");
        EXPECT_EQ(cm.coreTenants[i], "t1");
    }
}

TEST(MixComposer, ClassicTenantAcceptsOverrides)
{
    const auto cm = workload::composeWorkload(
        "mix:t0=mcf,t0.mpki=50,t0.write=0.1,t1=omnetpp", 4);
    ASSERT_EQ(cm.mix.apps.size(), 4u);
    EXPECT_TRUE(cm.mix.apps[0].spec.empty());
    EXPECT_DOUBLE_EQ(cm.mix.apps[0].params.mpki, 50.0);
    EXPECT_DOUBLE_EQ(cm.mix.apps[0].params.writeFraction, 0.1);
    EXPECT_EQ(cm.mix.apps[2].name, "omnetpp");
}

TEST(MixComposerDeath, RejectsBadCompositions)
{
    EXPECT_DEATH(workload::composeWorkload(
                     "mix:t0=zipf,t0.cores=9,t1=flood", 8),
                 "cores");
    EXPECT_DEATH(workload::composeWorkload(
                     "mix:t0=zipf,t0.cores=3,t1=flood,t1.cores=3", 8),
                 "sum to 6");
    EXPECT_DEATH(workload::composeWorkload("mix:t0.skew=1", 8),
                 "before tenant");
    EXPECT_DEATH(workload::composeWorkload("mix:", 8), "no tenants");
    EXPECT_DEATH(workload::composeWorkload("mix:t0=nope", 8),
                 "unknown workload");
    EXPECT_DEATH(workload::composeWorkload(
                     "mix:t0=mcf,t0.skew=2,t1=flood", 8),
                 "mpki and write");
    // Numbers must be whole: no sign on counts, no trailing text.
    EXPECT_DEATH(workload::composeWorkload(
                     "mix:t0=zipf,t0.cores=-1,t1=flood", 8),
                 "t0.cores");
    EXPECT_DEATH(workload::composeWorkload(
                     "mix:t0=mcf,t0.mpki=40x,t1=flood", 8),
                 "t0.mpki expects a finite number");
}

/** The trace-layer makeGenerator dispatches spec-carrying profiles to
 *  the engine; the generators must agree exactly. */
TEST(MixComposer, MakeGeneratorDispatchesSpecProfiles)
{
    const auto cm = workload::composeWorkload("chase:fp=1M", 2);
    auto viaProfile = makeGenerator(cm.mix.apps[1], 1, 3);
    auto direct = workload::makeSpecGenerator("chase:fp=1M", 1, 3);
    TraceRequest a, b;
    for (int i = 0; i < 5'000; ++i) {
        ASSERT_TRUE(viaProfile->next(a));
        ASSERT_TRUE(direct->next(b));
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.instrGap, b.instrGap);
    }
}

} // namespace
} // namespace dapsim
