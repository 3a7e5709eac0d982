/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"

namespace dapsim
{
namespace
{

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SetOverwrites)
{
    Counter c;
    c.set(123);
    EXPECT_EQ(c.value(), 123u);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_NEAR(a.mean(), 5.0, 1e-12);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_NEAR(a.sum(), 15.0, 1e-12);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
}

TEST(StatGroup, DumpsNamedRows)
{
    Counter c;
    c.inc(7);
    Average a;
    a.sample(2.0);
    StatGroup g("mem");
    g.addCounter("reads", &c);
    g.addAverage("latency", &a);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "mem.reads 7\nmem.latency 2\n");
}

TEST(StatGroup, LookupByName)
{
    Counter c;
    c.inc(3);
    Average a;
    a.sample(1.5);
    StatGroup g("x");
    g.addCounter("c", &c);
    g.addAverage("a", &a);
    EXPECT_EQ(g.counterValue("c"), 3u);
    EXPECT_NEAR(g.averageValue("a"), 1.5, 1e-12);
    EXPECT_EQ(g.counterValue("missing"), 0u);
    EXPECT_EQ(g.averageValue("missing"), 0.0);
}

} // namespace
} // namespace dapsim
