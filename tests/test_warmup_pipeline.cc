/**
 * @file
 * Differential test of the pipelined functional warm-up
 * (sim/warm_pipeline.hh) against the frozen serial loops in
 * reference_warmup.hh: after warmup(n) — and after further
 * fastForward() pulls — the production System and a reference-driven
 * twin must serialize to the same v2 checkpoint bytes, make the same
 * number of next() calls on every generator, and report the same
 * fast-forward tallies. Covers every MS$ architecture, the tiered
 * system, batch-boundary warm-up lengths, two seeds, and generators
 * that run dry mid-warm-up. Also checks that an exception in a worker
 * stage reaches the caller.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "policy_stub.hh"
#include "reference_warmup.hh"
#include "sim/presets.hh"
#include "sim/warm_pipeline.hh"
#include "trace/workloads.hh"

namespace dapsim
{
namespace
{

constexpr std::uint64_t kBatch = warm::kBatchRounds;
constexpr std::uint64_t kEndless = std::numeric_limits<std::uint64_t>::max();

/**
 * Wraps a generator: yields its records until @p limit of them, then
 * declines every later next(). Counts every call; the count is part of
 * the checkpoint, so a differing call sequence changes the bytes.
 */
class FiniteGen final : public AccessGenerator
{
  public:
    FiniteGen(AccessGeneratorPtr inner, std::uint64_t limit)
        : inner_(std::move(inner)), limit_(limit)
    {
    }

    bool
    next(TraceRequest &out) override
    {
        ++calls;
        if (yielded_ >= limit_)
            return false;
        ++yielded_;
        return inner_->next(out);
    }

    void
    save(ckpt::Serializer &s) const override
    {
        inner_->save(s);
        s.u64(calls);
        s.u64(yielded_);
    }

    void
    restore(ckpt::Deserializer &d) override
    {
        inner_->restore(d);
        calls = d.u64();
        yielded_ = d.u64();
    }

    std::uint64_t calls = 0;

  private:
    AccessGeneratorPtr inner_;
    std::uint64_t limit_;
    std::uint64_t yielded_ = 0;
};

/** Generator that throws on its @p at-th call. */
class ThrowingGen final : public AccessGenerator
{
  public:
    explicit ThrowingGen(std::uint64_t at) : at_(at) {}

    bool
    next(TraceRequest &out) override
    {
        if (++calls_ == at_)
            throw std::runtime_error("generator failed");
        out.addr = calls_ * kBlockBytes;
        out.isWrite = (calls_ & 3) == 0;
        return true;
    }

  private:
    std::uint64_t at_;
    std::uint64_t calls_ = 0;
};

/** Small systems with a small L3, so a few thousand rounds already
 *  evict dirty L3 lines into the MS$ and MS$ sectors out of it. */
SystemConfig
configFor(const std::string &arch)
{
    SystemConfig cfg;
    if (arch == "alloy") {
        cfg = presets::alloySystem8();
        cfg.alloy.capacityBytes = 1 * kMiB;
    } else if (arch == "edram") {
        cfg = presets::edramSystem8(1);
    } else if (arch == "tiered") {
        cfg = presets::tieredSystem8();
        cfg.sectored.capacityBytes = 1 * kMiB;
        cfg.sectored.tagCache.entries = 128;
    } else {
        cfg = presets::sectoredSystem8();
        cfg.sectored.capacityBytes = 1 * kMiB;
        cfg.sectored.tagCache.entries = 128;
        if (arch == "none")
            cfg.arch = MsArch::None;
    }
    cfg.numCores = 4;
    cfg.l3.capacityBytes = 64 * kKiB;
    return cfg;
}

/** A System plus borrowed pointers to its generators. */
struct Rig
{
    std::unique_ptr<System> sys;
    std::vector<FiniteGen *> gens;

    std::vector<AccessGenerator *>
    rawGens() const
    {
        return {gens.begin(), gens.end()};
    }

    std::vector<std::uint8_t>
    ckptBytes() const
    {
        ckpt::Serializer s(ckpt::kVersion);
        sys->save(s);
        return s.buffer();
    }
};

Rig
build(const SystemConfig &cfg, std::uint64_t seed,
      const std::vector<std::uint64_t> &limits)
{
    static const char *const kApps[] = {"mcf", "parboil-lbm", "libquantum",
                                        "hpcg"};
    Rig rig;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
        WorkloadProfile w = workloadByName(kApps[i % 4]);
        w.params.footprintBytes = 512 * kKiB;
        auto g = std::make_unique<FiniteGen>(makeGenerator(w, i, seed),
                                             limits[i]);
        rig.gens.push_back(g.get());
        gens.push_back(std::move(g));
    }
    rig.sys = std::make_unique<System>(cfg, std::move(gens));
    return rig;
}

void
expectSamePull(const System::FastForwardPull &a,
               const System::FastForwardPull &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.l3Hits, b.l3Hits);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.msReads, b.msReads);
    EXPECT_EQ(a.msHits, b.msHits);
    EXPECT_EQ(a.msWritebacks, b.msWritebacks);
    EXPECT_EQ(a.instr, b.instr);
    EXPECT_EQ(a.instrPerCore, b.instrPerCore);
}

using Param = std::tuple<std::string, std::uint64_t>;

class WarmupPipeline : public ::testing::TestWithParam<Param>
{
  protected:
    SystemConfig cfg() const { return configFor(std::get<0>(GetParam())); }
    std::uint64_t seed() const { return std::get<1>(GetParam()); }

    /** Warm a production rig and a reference rig by @p n rounds and
     *  compare them; returns both for further driving. */
    std::pair<Rig, Rig>
    warmBoth(std::uint64_t n, const std::vector<std::uint64_t> &limits)
    {
        Rig prod = build(cfg(), seed(), limits);
        Rig ref = build(cfg(), seed(), limits);
        prod.sys->warmup(n);
        reference::warmup(ref.rawGens(), ref.sys->l3(),
                          *ref.sys->msCache(), n);
        for (std::size_t i = 0; i < prod.gens.size(); ++i) {
            EXPECT_EQ(prod.gens[i]->calls, n) << "core " << i;
            EXPECT_EQ(ref.gens[i]->calls, n) << "core " << i;
        }
        EXPECT_EQ(prod.ckptBytes(), ref.ckptBytes()) << "n = " << n;
        return {std::move(prod), std::move(ref)};
    }
};

const std::uint64_t kLengths[] = {0,     1,         kBatch - 1,
                                  kBatch, kBatch + 1, 3 * kBatch + 7};

TEST_P(WarmupPipeline, MatchesSerialLoopAcrossBatchBoundaries)
{
    const std::vector<std::uint64_t> endless(4, kEndless);
    for (const std::uint64_t n : kLengths)
        warmBoth(n, endless);
}

TEST_P(WarmupPipeline, MatchesSerialLoopWhenGeneratorsRunDry)
{
    // Core 1 runs dry inside the first batch, core 3 inside the third;
    // both keep being asked for records, as the serial loop asks them.
    const std::vector<std::uint64_t> limits = {kEndless, 700, kEndless,
                                               2 * kBatch + 3};
    for (const std::uint64_t n : kLengths)
        warmBoth(n, limits);
}

TEST_P(WarmupPipeline, FastForwardMatchesSerialPull)
{
    const std::vector<std::uint64_t> limits = {kEndless, kEndless, 4000,
                                               kEndless};
    auto [prod, ref] = warmBoth(kBatch + 1, limits);
    for (const std::uint64_t chunk : {7'777ULL, 20'000ULL, 1ULL}) {
        const System::FastForwardPull a = prod.sys->fastForward(chunk);
        const System::FastForwardPull b = reference::fastForward(
            ref.rawGens(), ref.sys->l3(), *ref.sys->msCache(), chunk);
        expectSamePull(a, b);
    }
    EXPECT_EQ(prod.ckptBytes(), ref.ckptBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Archs, WarmupPipeline,
    ::testing::Combine(::testing::Values("sectored", "alloy", "edram",
                                         "none", "tiered"),
                       ::testing::Values(1ULL, 1009ULL)),
    [](const ::testing::TestParamInfo<Param> &info) {
        return std::get<0>(info.param) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

TEST(WarmupPipelineErrors, GeneratorExceptionReachesCaller)
{
    SystemConfig cfg = configFor("sectored");
    cfg.numCores = 2;
    std::vector<AccessGeneratorPtr> gens;
    gens.push_back(std::make_unique<ThrowingGen>(kEndless));
    gens.push_back(std::make_unique<ThrowingGen>(2 * kBatch + 5));
    System sys(cfg, std::move(gens));
    EXPECT_THROW(sys.warmup(8 * kBatch), std::runtime_error);
}

/** MS$ whose warm path throws on its @p at-th touch. */
class ThrowingMs final : public MemSideCache
{
  public:
    ThrowingMs(EventQueue &eq, DramSystem &mm, PartitionPolicy &policy,
               std::uint64_t at)
        : MemSideCache(eq, mm, policy), at_(at)
    {
    }

    void handleRead(Addr, Done) override {}
    void handleWrite(Addr) override {}
    std::uint64_t arrayCasOps() const override { return 0; }

    bool
    warmTouch(Addr, bool) override
    {
        if (++touches == at_)
            throw std::runtime_error("ms failed");
        return false;
    }

    std::uint64_t touches = 0;

  private:
    std::uint64_t at_;
};

TEST(WarmupPipelineErrors, MsStageExceptionReachesCaller)
{
    EventQueue eq;
    DramSystem mm(eq, presets::ddr4_2400());
    StubPolicy policy;
    ThrowingMs ms(eq, mm, policy, 3 * kBatch);
    L3Config l3cfg;
    l3cfg.capacityBytes = 64 * kKiB;
    L3Cache l3(eq, l3cfg, ms);
    std::vector<AccessGeneratorPtr> gens;
    gens.push_back(std::make_unique<ThrowingGen>(kEndless));
    EXPECT_THROW(warm::pipelinedWarmup(gens, l3, ms, 16 * kBatch),
                 std::runtime_error);
    EXPECT_EQ(ms.touches, 3 * kBatch); // stopped at the failing touch
}

} // namespace
} // namespace dapsim
