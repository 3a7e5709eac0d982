/**
 * @file
 * Strict command-line number parsing (common/validate.hh) and the
 * NaN-proof range checks of user-facing configuration.
 *
 * Every malformed value must end in a fatal() that names the flag
 * (exit code 1), never an uncaught exception or a silently truncated,
 * wrapped or NaN setting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/event_queue.hh"
#include "common/validate.hh"
#include "memside/remote_memory.hh"

namespace dapsim
{
namespace
{

TEST(ParseCount, AcceptsWholeDecimalCounts)
{
    EXPECT_EQ(parseCount("--instr", "0"), 0u);
    EXPECT_EQ(parseCount("--instr", "2000"), 2000u);
    EXPECT_EQ(parseCount("--instr", "18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseCount<std::uint32_t>("--cores", "4294967295"),
              std::numeric_limits<std::uint32_t>::max());
}

TEST(ParseReal, AcceptsFiniteReals)
{
    EXPECT_EQ(parseReal("--efficiency", "0.75"), 0.75);
    EXPECT_EQ(parseReal("--remote-scale", "4"), 4.0);
    EXPECT_EQ(parseReal("--remote-latency-ns", "1.5e2"), 150.0);
    EXPECT_EQ(parseReal("--x", "-2.5"), -2.5);
}

class ParseCountDeathTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ParseCountDeathTest, MalformedCountIsFatalNamingTheFlag)
{
    EXPECT_EXIT(parseCount("--instr", GetParam()),
                ::testing::ExitedWithCode(1), "fatal: --instr");
}

INSTANTIATE_TEST_SUITE_P(Values, ParseCountDeathTest,
                         ::testing::Values("", "abc", "12x", "-1", "+1",
                                           " 1", "nan", "inf", "1e999",
                                           "1.5",
                                           "18446744073709551616"));

TEST(ParseCountU32DeathTest, RejectsValuesPast32Bits)
{
    EXPECT_EXIT(parseCount<std::uint32_t>("--cores", "4294967297"),
                ::testing::ExitedWithCode(1), "fatal: --cores");
    EXPECT_EXIT(parseCount<std::uint32_t>("--cores",
                                          "18446744073709551616"),
                ::testing::ExitedWithCode(1), "fatal: --cores");
}

class ParseRealDeathTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ParseRealDeathTest, MalformedRealIsFatalNamingTheFlag)
{
    EXPECT_EXIT(parseReal("--efficiency", GetParam()),
                ::testing::ExitedWithCode(1), "fatal: --efficiency");
}

INSTANTIATE_TEST_SUITE_P(Values, ParseRealDeathTest,
                         ::testing::Values("", "abc", "12x", "nan",
                                           "nanx", "-nan", "inf", "-inf",
                                           "1e999", "-1e999", " 1"));

/** A remote tier config valid except for the field a test breaks. */
RemoteConfig
remoteConfig()
{
    RemoteConfig rc;
    rc.enabled = true;
    return rc;
}

TEST(RemoteMemoryDeathTest, NanBandwidthScaleIsFatal)
{
    RemoteConfig rc = remoteConfig();
    rc.bwScaleFactor = std::nan("");
    EventQueue eq;
    EXPECT_EXIT(RemoteMemory(eq, rc, 38.4), ::testing::ExitedWithCode(1),
                "bwScaleFactor");
}

TEST(RemoteMemoryDeathTest, NanLatencyAdderIsFatal)
{
    RemoteConfig rc = remoteConfig();
    rc.addLatencyNs = std::nan("");
    EventQueue eq;
    EXPECT_EXIT(RemoteMemory(eq, rc, 38.4), ::testing::ExitedWithCode(1),
                "addLatencyNs");
}

TEST(RemoteMemoryDeathTest, NanLocalBandwidthIsFatal)
{
    EventQueue eq;
    EXPECT_EXIT(RemoteMemory(eq, remoteConfig(), std::nan("")),
                ::testing::ExitedWithCode(1), "local main-memory");
}

} // namespace
} // namespace dapsim
