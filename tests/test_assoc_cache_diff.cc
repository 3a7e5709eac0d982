/**
 * @file
 * Differential fuzz suite for the SoA AssocCache rewrite.
 *
 * Replays pinned-RNG access streams through the production
 * structure-of-arrays directory and the frozen array-of-structures
 * reference (tests/reference_assoc_cache.hh), asserting identical
 * hits, victims, occupancy, flush order and checkpoint bytes at every
 * step, across LRU/NRU and a grid of geometries. Also pins the
 * bulk-span encode/decode (raw and per-element value paths) as a
 * lossless round trip of the full directory state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/assoc_cache.hh"
#include "ckpt/serializer.hh"
#include "common/rng.hh"
#include "reference_assoc_cache.hh"

namespace dapsim
{

/** Name the policy in test ids (found by ADL, so it lives in the
 *  policy's namespace; internal linkage keeps it to this file). */
static void
PrintTo(ReplPolicy policy, std::ostream *os)
{
    *os << (policy == ReplPolicy::LRU ? "LRU" : "NRU");
}

namespace
{

/** Encode both directories and compare the byte streams. */
template <typename Soa, typename Ref>
void
expectSameCkptBytes(const Soa &soa, const Ref &ref)
{
    ckpt::Serializer a;
    ckpt::Serializer b;
    soa.save(a, [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    });
    ref.save(b, [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    });
    ASSERT_EQ(a.buffer(), b.buffer());
}

struct Geometry
{
    std::uint64_t sets;
    std::uint32_t ways;
};

/** Print the fields, not the raw bytes: gtest would otherwise dump
 *  the struct's padding into the test ids. */
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << "{sets=" << g.sets << ", ways=" << g.ways << "}";
}

class AssocCacheDiff
    : public ::testing::TestWithParam<std::tuple<Geometry, ReplPolicy>>
{
};

TEST_P(AssocCacheDiff, StreamsAreBitIdentical)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> soa(geo.sets, geo.ways, policy);
    RefAssocCache<int> ref(geo.sets, geo.ways, policy);

    // Seed differs per geometry/policy so the streams diverge.
    Rng rng(0xd1ffe4 + geo.sets * 131 + geo.ways * 7 +
            (policy == ReplPolicy::NRU ? 1 : 0));
    // Tag universe ~2x the capacity: plenty of hits AND evictions.
    const std::uint64_t tagSpace = 2 * geo.ways + 3;

    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t set = rng.below(geo.sets);
        const std::uint64_t tag = rng.below(tagSpace);
        switch (rng.below(100)) {
          case 0 ... 39: { // lookup (+ touch on hit, like real callers)
            int *a = soa.find(set, tag);
            int *b = ref.find(set, tag);
            ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
            if (a != nullptr) {
                ASSERT_EQ(*a, *b) << "step " << step;
                soa.touch(set, tag);
                ref.touch(set, tag);
            }
            break;
          }
          case 40 ... 79: { // insert if absent
            if (soa.find(set, tag) != nullptr)
                break;
            const int v = static_cast<int>(rng.below(1 << 20));
            const auto va = soa.insert(set, tag, v);
            const auto vb = ref.insert(set, tag, v);
            ASSERT_EQ(va.valid, vb.valid) << "step " << step;
            if (va.valid) {
                ASSERT_EQ(va.tag, vb.tag) << "step " << step;
                ASSERT_EQ(va.value, vb.value) << "step " << step;
            }
            break;
          }
          case 80 ... 89: { // erase
            ASSERT_EQ(soa.erase(set, tag), ref.erase(set, tag))
                << "step " << step;
            break;
          }
          case 90 ... 94: { // occupancy probe
            ASSERT_EQ(soa.occupancy(set), ref.occupancy(set))
                << "step " << step;
            break;
          }
          default: { // flushSet: identical visit order and content
            std::vector<std::pair<std::uint64_t, int>> a, b;
            soa.flushSet(set, [&](std::uint64_t t, int &v) {
                a.emplace_back(t, v);
            });
            ref.flushSet(set, [&](std::uint64_t t, int &v) {
                b.emplace_back(t, v);
            });
            ASSERT_EQ(a, b) << "step " << step;
            break;
          }
        }
        if (step % 500 == 499)
            expectSameCkptBytes(soa, ref);
    }

    // Final state: equal occupancy in every set, and every reference
    // line present in the SoA directory with the same value, so both
    // hold the same lines; then the checkpoint bytes.
    for (std::uint64_t s = 0; s < geo.sets; ++s)
        ASSERT_EQ(soa.occupancy(s), ref.occupancy(s)) << "set " << s;
    ref.forEach([&](std::uint64_t s, std::uint64_t t, int &v) {
        const int *line = soa.find(s, t);
        ASSERT_NE(line, nullptr) << "set " << s << " tag " << t;
        EXPECT_EQ(*line, v) << "set " << s << " tag " << t;
    });
    expectSameCkptBytes(soa, ref);
}

/** Mid-stream restore: SoA state restored from the reference's bytes
 *  continues bit-identically. */
TEST_P(AssocCacheDiff, MidStreamRestoreContinuesIdentically)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> soa(geo.sets, geo.ways, policy);
    RefAssocCache<int> ref(geo.sets, geo.ways, policy);

    Rng rng(0xc0ffee + geo.sets + geo.ways);
    const std::uint64_t tagSpace = 2 * geo.ways + 3;
    auto drive = [&](auto &c, Rng r, int n) {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t set = r.below(geo.sets);
            const std::uint64_t tag = r.below(tagSpace);
            if (c.find(set, tag) != nullptr)
                c.touch(set, tag);
            else
                c.insert(set, tag, static_cast<int>(tag));
        }
    };
    drive(ref, rng, 1500);

    // Restore the SoA directory from the reference's bytes mid-stream.
    ckpt::Serializer s;
    ref.save(s, [](ckpt::Serializer &sr, const int &v) {
        sr.u64(static_cast<std::uint64_t>(v));
    });
    ckpt::Deserializer d(s.buffer());
    soa.restore(d, [](ckpt::Deserializer &dr, int &v) {
        v = static_cast<int>(dr.u64());
    });
    ASSERT_TRUE(d.atEnd());
    expectSameCkptBytes(soa, ref);

    // Both sides then replay the same continuation stream.
    Rng cont(0xfeed);
    drive(soa, cont, 1500);
    drive(ref, cont, 1500);
    expectSameCkptBytes(soa, ref);
}

/** The bulk-span round trip preserves the complete directory state
 *  (raw value path: int has unique object representations). */
TEST_P(AssocCacheDiff, V2RoundTripIsLossless)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> c(geo.sets, geo.ways, policy);

    Rng rng(0x2222 + geo.sets * 3 + geo.ways);
    const std::uint64_t tagSpace = 2 * geo.ways + 3;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t set = rng.below(geo.sets);
        const std::uint64_t tag = rng.below(tagSpace);
        if (c.find(set, tag) != nullptr)
            c.touch(set, tag);
        else if (rng.chance(0.1))
            c.erase(set, tag);
        else
            c.insert(set, tag, static_cast<int>(rng.below(1000)));
    }

    ckpt::Serializer v2;
    auto saveInt = [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    };
    auto loadInt = [](ckpt::Deserializer &d, int &v) {
        v = static_cast<int>(d.u64());
    };
    c.save(v2, saveInt);

    AssocCache<int> back(geo.sets, geo.ways, policy);
    ckpt::Deserializer d(v2.buffer());
    back.restore(d, loadInt);
    ASSERT_TRUE(d.atEnd());

    // Losslessness: every tag, valid/NRU bit, lastUse and value (stale
    // ways included) is in the image, so re-saving reproduces it.
    ckpt::Serializer again;
    back.save(again, saveInt);
    EXPECT_EQ(again.buffer(), v2.buffer());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocCacheDiff,
    ::testing::Combine(
        ::testing::Values(Geometry{1, 1}, Geometry{4, 2},
                          Geometry{8, 4}, Geometry{16, 16},
                          Geometry{64, 3}, Geometry{2, 64}),
        ::testing::Values(ReplPolicy::LRU, ReplPolicy::NRU)),
    [](const ::testing::TestParamInfo<AssocCacheDiff::ParamType> &info) {
        const Geometry &g = std::get<0>(info.param);
        return "s" + std::to_string(g.sets) + "_w" +
               std::to_string(g.ways) +
               (std::get<1>(info.param) == ReplPolicy::LRU ? "_LRU"
                                                           : "_NRU");
    });

/** Value type with interior padding: save must take the per-element
 *  stream fallback (encoding tag 0) and still round-trip. */
struct Padded
{
    std::uint8_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Padded &) const = default;
};
static_assert(!std::has_unique_object_representations_v<Padded>);

TEST(AssocCacheDiffV2, PaddedValuesUseStreamFallback)
{
    AssocCache<Padded> c(8, 4, ReplPolicy::NRU);
    Rng rng(77);
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t set = rng.below(8);
        const std::uint64_t tag = rng.below(11);
        if (c.find(set, tag) == nullptr)
            c.insert(set, tag,
                     Padded{static_cast<std::uint8_t>(tag), tag * 3});
        else
            c.touch(set, tag);
    }
    auto savePadded = [](ckpt::Serializer &s, const Padded &v) {
        s.u8(v.a);
        s.u64(v.b);
    };
    auto loadPadded = [](ckpt::Deserializer &d, Padded &v) {
        v.a = d.u8();
        v.b = d.u64();
    };
    ckpt::Serializer v2;
    c.save(v2, savePadded);

    AssocCache<Padded> back(8, 4, ReplPolicy::NRU);
    ckpt::Deserializer d(v2.buffer());
    back.restore(d, loadPadded);
    ASSERT_TRUE(d.atEnd());

    ckpt::Serializer again;
    back.save(again, savePadded);
    EXPECT_EQ(again.buffer(), v2.buffer());
    EXPECT_EQ(v2.buffer()[8 + 4 + 4 + 8 + 8 * 32 * 2 + 8 * 8 * 2], 0u)
        << "value encoding tag: per-element stream";
}

/** The explicit LRU tie-break contract: equal lastUse picks the
 *  lowest-numbered way. Constructs the tie via restore. */
TEST(AssocCacheDiffV2, LruTieBreakIsLowestWay)
{
    AssocCache<int> c(1, 4, ReplPolicy::LRU);
    for (std::uint64_t t = 0; t < 4; ++t)
        c.insert(0, t, static_cast<int>(t));

    // Force all four lastUse clocks equal through a patched image.
    ckpt::Serializer s;
    c.save(s, [](ckpt::Serializer &sr, const int &v) {
        sr.u64(static_cast<std::uint64_t>(v));
    });
    std::vector<std::uint8_t> img = s.buffer();
    // Layout: sets u64, ways u32, policy u32, useClock u64, 4 tags u64,
    // the set's valid and NRU masks u64, then 4 lastUse u64.
    const std::size_t lastUseAt = 8 + 4 + 4 + 8 + 4 * 8 + 8 + 8;
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 8; ++i)
            img[lastUseAt + 8 * w + i] = (i == 0) ? 7 : 0; // lastUse = 7
    ckpt::Deserializer d(img);
    c.restore(d, [](ckpt::Deserializer &dr, int &v) {
        v = static_cast<int>(dr.u64());
    });

    const auto victim = c.insert(0, 99, 0);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.tag, 0u); // way 0 held tag 0
}

/** A crafted image whose valid or NRU mask names a way past the
 *  geometry is refused instead of indexing another set's tags. */
TEST(AssocCacheDiffV2, RestoreRefusesMaskBitsPastTheWays)
{
    AssocCache<int> c(2, 4, ReplPolicy::NRU);
    c.insert(1, 7, 7);
    ckpt::Serializer s;
    c.save(s, [](ckpt::Serializer &, const int &) {});
    // Layout: sets u64, ways u32, policy u32, useClock u64, 8 tags
    // u64, then the valid masks of sets 0 and 1, then the NRU masks.
    for (std::size_t mask : {1, 3}) {
        std::vector<std::uint8_t> img = s.buffer();
        img[8 + 4 + 4 + 8 + 8 * 8 + 8 * mask] |= 0x10; // way 4
        ckpt::Deserializer d(img);
        AssocCache<int> back(2, 4, ReplPolicy::NRU);
        EXPECT_THROW(back.restore(d, [](ckpt::Deserializer &, int &) {}),
                     ckpt::CkptError)
            << "mask " << mask;
    }
}

} // namespace
} // namespace dapsim
