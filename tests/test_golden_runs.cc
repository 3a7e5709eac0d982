/**
 * @file
 * Golden-run regression harness.
 *
 * Runs one pinned configuration per memory-side cache architecture
 * (sectored DRAM$, Alloy, eDRAM — all under the DAP policy) and
 * compares the full gem5-style stats dump against a golden file
 * committed under tests/golden/. Any change to simulated behaviour —
 * an event reordered, a latency off by one cycle, a counter double
 * incremented — shows up as a diff against these files.
 *
 * Comparison is row-by-row: the row set and order must match exactly;
 * integer-valued rows must be equal; floating-point rows are compared
 * with a tiny relative tolerance so a compiler's FP contraction
 * choices do not fail the harness.
 *
 * Regenerating the goldens after an INTENDED behaviour change:
 *
 *     ./build/tests/dapsim_golden_tests --update-golden
 *
 * (or set DAPSIM_UPDATE_GOLDEN=1), then commit the rewritten files
 * with a note explaining why the behaviour moved.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/presets.hh"
#include "sim/runner.hh"
#include "workload/compose.hh"

namespace dapsim
{
namespace
{

bool g_update = false;

std::string
goldenPath(const std::string &name)
{
    return std::string(DAPSIM_GOLDEN_DIR) + "/" + name + ".stats.txt";
}

/** The pinned scenario: one architecture, DAP policy, a small fixed
 *  hpcg-style workload (the test_stats_dump recipe). Everything here
 *  is part of the golden contract — do not change it without
 *  regenerating the files. @p remote enables the third bandwidth
 *  source (the tiered_remote golden). */
std::string
runScenario(MsArch arch, bool remote = false)
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

    WorkloadProfile w = workloadByName("hpcg");
    w.params.footprintBytes = 512 * kKiB;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(w, i));
    System sys(cfg, std::move(gens));
    sys.warmup(cfg.warmupAccessesPerCore);
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** The workload-engine pinned scenario: a drifting Zipf spec on the
 *  sectored architecture under DAP. Freezes the whole engine pipeline
 *  — spec parsing, CDF tables, Feistel permutation, drift schedule and
 *  the per-core seed fold — in addition to the simulator proper. */
std::string
runZipfDriftScenario()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.policy = PolicyKind::Dap;
    cfg.core.instructions = 3'000;
    cfg.warmupAccessesPerCore = 5'000;

    const workload::ComposedMix cm = workload::composeWorkload(
        "zipf:skew=0.99,fp=512K,drift=rotate,period=20000,mpki=30",
        cfg.numCores);
    cfg.obs.coreTenants = cm.coreTenants;
    System sys(cfg, mixGenerators(cm.mix, 0));
    sys.warmup(cfg.warmupAccessesPerCore);
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

struct Row
{
    std::string name;
    std::string value;
};

std::vector<Row>
parseRows(const std::string &dump)
{
    std::vector<Row> rows;
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        const auto space = line.find(' ');
        if (space == std::string::npos)
            ADD_FAILURE() << "malformed stats row: " << line;
        else
            rows.push_back(
                {line.substr(0, space), line.substr(space + 1)});
    }
    return rows;
}

/** Exact for integer-literal values; relative 1e-9 otherwise (FP
 *  contraction headroom, far below any behavioural change). */
void
expectValueMatch(const Row &want, const Row &got)
{
    if (want.value == got.value)
        return;
    const bool integral =
        want.value.find('.') == std::string::npos &&
        want.value.find('e') == std::string::npos &&
        want.value.find("inf") == std::string::npos &&
        want.value.find("nan") == std::string::npos;
    if (integral) {
        FAIL() << want.name << ": expected " << want.value << ", got "
               << got.value;
    }
    const double w = std::stod(want.value);
    const double g = std::stod(got.value);
    const double scale = std::max(std::abs(w), std::abs(g));
    EXPECT_LE(std::abs(w - g), 1e-9 * std::max(scale, 1.0))
        << want.name << ": expected " << want.value << ", got "
        << got.value;
}

void
checkGolden(const std::string &name, const std::string &dump)
{
    const std::string path = goldenPath(name);

    if (g_update) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << dump;
        std::fprintf(stderr, "updated %s\n", path.c_str());
        return;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " — run dapsim_golden_tests --update-golden";
    std::stringstream buf;
    buf << is.rdbuf();

    const std::vector<Row> want = parseRows(buf.str());
    const std::vector<Row> got = parseRows(dump);
    ASSERT_EQ(want.size(), got.size())
        << "row count changed; regenerate with --update-golden if "
           "intended";
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].name, got[i].name) << "row " << i;
        expectValueMatch(want[i], got[i]);
    }
}

TEST(GoldenRuns, SectoredDap)
{
    checkGolden("sectored", runScenario(MsArch::Sectored));
}
TEST(GoldenRuns, AlloyDap)
{
    checkGolden("alloy", runScenario(MsArch::Alloy));
}
TEST(GoldenRuns, EdramDap)
{
    checkGolden("edram", runScenario(MsArch::Edram));
}
TEST(GoldenRuns, ZipfDriftDap)
{
    checkGolden("zipf_drift", runZipfDriftScenario());
}
TEST(GoldenRuns, TieredRemoteDap)
{
    checkGolden("tiered_remote",
                runScenario(MsArch::Sectored, /*remote=*/true));
}
TEST(GoldenRuns, RemoteDisabledIsBitIdentical)
{
    // The remote tier defaults to disabled, and a disabled tier must
    // be invisible: the run reproduces the pre-existing "sectored"
    // golden byte-for-byte (same row set, same values). This pins the
    // enable-gating of every remote stats row, checkpoint byte and
    // trace column.
    checkGolden("sectored",
                runScenario(MsArch::Sectored, /*remote=*/false));
}

} // namespace
} // namespace dapsim

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            dapsim::g_update = true;
    if (const char *env = std::getenv("DAPSIM_UPDATE_GOLDEN"))
        if (env[0] != '\0' && env[0] != '0')
            dapsim::g_update = true;
    return RUN_ALL_TESTS();
}
