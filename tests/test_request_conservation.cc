/**
 * @file
 * Request conservation for the per-read records: every MS$ read record
 * and every L3 MSHR record that is opened is released exactly once.
 *
 * Each architecture runs a finite stream to completion and drains the
 * hierarchy; then no record may be live, opens must equal releases,
 * and the components must checkpoint. Mid-run, records are live and a
 * component checkpoint is refused.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

/** Ends the wrapped stream after a fixed number of records, so the
 *  cores stop issuing and the hierarchy can drain. */
class FiniteGen final : public AccessGenerator
{
  public:
    FiniteGen(AccessGeneratorPtr inner, std::uint64_t records)
        : inner_(std::move(inner)), left_(records)
    {
    }

    bool
    next(TraceRequest &out) override
    {
        if (left_ == 0)
            return false;
        --left_;
        return inner_->next(out);
    }

  private:
    AccessGeneratorPtr inner_;
    std::uint64_t left_;
};

/** Bounds every run: a stream too short for the target would
 *  otherwise leave refresh events ticking forever. */
constexpr Tick kTickLimit = 10'000'000'000;

struct Scenario
{
    std::string name;
    MsArch arch;
    bool remote;

    friend void
    PrintTo(const Scenario &sc, std::ostream *os)
    {
        *os << sc.name;
    }
};

std::unique_ptr<System>
build(const Scenario &sc, std::uint64_t records_per_core)
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.arch = sc.arch;
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.alloy.capacityBytes = 8 * kMiB;
    cfg.edram.capacityBytes = 4 * kMiB;
    cfg.policy = PolicyKind::Dap;
    cfg.core.instructions = 2'000;
    if (sc.remote)
        cfg.remote.enabled = true;
    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 512 * kKiB;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(std::make_unique<FiniteGen>(makeGenerator(w, i),
                                                   records_per_core));
    // Cold caches (no warm-up, which would consume the streams): the
    // run exercises fills, evictions and every read path.
    return std::make_unique<System>(cfg, std::move(gens));
}

bool
componentsCheckpoint(System &sys)
{
    ckpt::Serializer s(ckpt::kVersion);
    try {
        sys.l3().save(s);
        sys.msCache()->save(s);
    } catch (const ckpt::CkptError &) {
        return false;
    }
    return true;
}

class RequestConservation : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(RequestConservation, EveryRecordIsReleasedOnce)
{
    auto sys = build(GetParam(), 1'500);
    MemSideCache &ms = *sys->msCache();
    L3Cache &l3 = sys->l3();
    {
        // At the pre-run checkpoint nothing has been opened.
        ckpt::Serializer s(ckpt::kVersion);
        sys->save(s);
        EXPECT_EQ(ms.readRecordsOpened(), 0u);
        EXPECT_EQ(l3.missRecordsOpened(), 0u);
    }

    sys->run(kTickLimit);
    ASSERT_TRUE(sys->allCoresFinished());
    // The streams end, so every request still in flight completes
    // well within a simulated millisecond; only refresh recurs.
    EventQueue &eq = sys->eventQueue();
    eq.run(eq.now() + 1'000'000'000);

    EXPECT_GT(l3.missRecordsOpened(), 0u);
    EXPECT_EQ(l3.missRecordsOpened(), l3.missRecordsClosed());
    EXPECT_GT(ms.readRecordsOpened(), 0u);
    EXPECT_EQ(ms.readRecordsOpened(), ms.readRecordsClosed());
    EXPECT_TRUE(componentsCheckpoint(*sys));
}

TEST_P(RequestConservation, LiveRecordsRefuseCheckpoint)
{
    auto sys = build(GetParam(), 1'500);
    sys->startRun();
    sys->runDetailedUntilRetired(500, kTickLimit);
    sys->finishRun(); // windows off: only the requests stand in the way
    MemSideCache &ms = *sys->msCache();
    L3Cache &l3 = sys->l3();
    ASSERT_GT(l3.missRecordsOpened(), l3.missRecordsClosed());
    ASSERT_GT(ms.readRecordsOpened(), ms.readRecordsClosed());
    ckpt::Serializer s(ckpt::kVersion);
    EXPECT_THROW(l3.save(s), ckpt::CkptError);
    EXPECT_THROW(ms.save(s), ckpt::CkptError);
}

INSTANTIATE_TEST_SUITE_P(
    Archs, RequestConservation,
    ::testing::Values(Scenario{"sectored", MsArch::Sectored, false},
                      Scenario{"alloy", MsArch::Alloy, false},
                      Scenario{"edram", MsArch::Edram, false},
                      Scenario{"tiered", MsArch::Sectored, true}),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        return info.param.name;
    });

} // namespace
} // namespace dapsim
