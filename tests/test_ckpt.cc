/**
 * @file
 * Tests for the checkpoint subsystem: serializer framing, the
 * dapsim.ckpt.v2 container, bit-identical save/restore across every
 * MS$ architecture and partitioning policy, mismatch rejection, and
 * the sweep runner's warmup-fork mode.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ckpt/checkpoint.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

constexpr std::uint64_t kInstr = 2'000;

SystemConfig
sectoredTiny()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 4;
    cfg.sectored.capacityBytes = 2 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
alloyTiny()
{
    SystemConfig cfg = presets::alloySystem8();
    cfg.numCores = 4;
    cfg.alloy.capacityBytes = 2 * kMiB;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
edramTiny()
{
    SystemConfig cfg = presets::edramSystem8(1);
    cfg.numCores = 4;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
noneTiny()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.arch = MsArch::None;
    cfg.numCores = 4;
    cfg.warmupAccessesPerCore = 1;
    return cfg;
}

SystemConfig
tieredTiny()
{
    SystemConfig cfg = sectoredTiny();
    cfg.remote.enabled = true;
    cfg.remote.bwScaleFactor = 4.0;
    cfg.remote.addLatencyNs = 120.0;
    cfg.remote.maxOutstanding = 32;
    return cfg;
}

Mix
tinyMix(const std::string &workload)
{
    WorkloadProfile w = workloadByName(workload);
    w.params.footprintBytes = 256 * kKiB;
    return rateMix(w, 4);
}

/** Every metric of @p a and @p b is bit-identical. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.msHitRatio, b.msHitRatio);
    EXPECT_EQ(a.msReadMissRatio, b.msReadMissRatio);
    EXPECT_EQ(a.mmCasFraction, b.mmCasFraction);
    EXPECT_EQ(a.tagCacheMissRatio, b.tagCacheMissRatio);
    EXPECT_EQ(a.avgL3ReadMissLatency, b.avgL3ReadMissLatency);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.readGBps, b.readGBps);
    EXPECT_EQ(a.fwb, b.fwb);
    EXPECT_EQ(a.wb, b.wb);
    EXPECT_EQ(a.ifrm, b.ifrm);
    EXPECT_EQ(a.sfrm, b.sfrm);
}

/** Restoring a warm-up checkpoint reproduces the uninterrupted run. */
void
expectRestoreMatchesRun(SystemConfig cfg)
{
    const Mix mix = tinyMix("mcf");
    const RunResult direct = runMix(cfg, mix, kInstr, 7);
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const RunResult restored =
        ckpt::runMixFromCheckpoint(cfg, mix, kInstr, 7, ck);
    expectIdentical(direct, restored);
}

TEST(Serializer, PrimitivesRoundTrip)
{
    ckpt::Serializer s;
    s.u8(0xab);
    s.u32(0xdeadbeefu);
    s.u64(0x0123456789abcdefULL);
    s.i64(-42);
    s.f64(3.141592653589793);
    s.boolean(true);
    s.str("hello");
    const std::uint8_t raw[3] = {1, 2, 3};
    s.bytes(raw, sizeof(raw));

    ckpt::Deserializer d(s.buffer());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.f64(), 3.141592653589793);
    EXPECT_TRUE(d.boolean());
    EXPECT_EQ(d.str(), "hello");
    const auto bytes = d.bytes();
    ASSERT_EQ(bytes.size(), 3u);
    EXPECT_EQ(bytes[2], 3u);
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, SectionsFrameAndVerify)
{
    ckpt::Serializer s;
    s.beginSection("outer");
    s.u64(1);
    s.beginSection("inner");
    s.u32(2);
    s.endSection();
    s.endSection();

    ckpt::Deserializer d(s.buffer());
    d.enterSection("outer");
    EXPECT_EQ(d.u64(), 1u);
    d.enterSection("inner");
    EXPECT_EQ(d.u32(), 2u);
    d.leaveSection();
    d.leaveSection();
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, WrongSectionNameThrows)
{
    ckpt::Serializer s;
    s.beginSection("cores");
    s.u64(1);
    s.endSection();
    ckpt::Deserializer d(s.buffer());
    EXPECT_THROW(d.enterSection("l3"), ckpt::CkptError);
}

TEST(Serializer, UnderconsumedSectionThrows)
{
    ckpt::Serializer s;
    s.beginSection("cores");
    s.u64(1);
    s.u64(2);
    s.endSection();
    ckpt::Deserializer d(s.buffer());
    d.enterSection("cores");
    (void)d.u64();
    EXPECT_THROW(d.leaveSection(), ckpt::CkptError);
}

TEST(Serializer, SkipSectionReturnsNameAndAdvances)
{
    ckpt::Serializer s;
    s.beginSection("policy");
    s.u64(99);
    s.endSection();
    s.u32(5);
    ckpt::Deserializer d(s.buffer());
    EXPECT_EQ(d.skipSection(), "policy");
    EXPECT_EQ(d.u32(), 5u);
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, TruncatedInputThrows)
{
    ckpt::Serializer s;
    s.u64(1);
    std::vector<std::uint8_t> buf = s.buffer();
    buf.pop_back();
    ckpt::Deserializer d(buf);
    EXPECT_THROW((void)d.u64(), ckpt::CkptError);
}

TEST(Ckpt, EncodeDecodeRoundTripsHeaderAndPayload)
{
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   3);
    EXPECT_EQ(ck.header.version, ckpt::kVersion);
    EXPECT_EQ(ck.header.tick, 0u);
    EXPECT_EQ(ck.header.numCores, 4u);
    EXPECT_EQ(ck.header.seedSalt, 3u);
    EXPECT_EQ(ck.header.archId, ckpt::archIdOf(MsArch::None));

    const ckpt::Checkpoint rt = ckpt::decode(ckpt::encode(ck));
    EXPECT_EQ(rt.header.stateHash, ck.header.stateHash);
    EXPECT_EQ(rt.header.fullHash, ck.header.fullHash);
    EXPECT_EQ(rt.header.warmupPerCore, ck.header.warmupPerCore);
    EXPECT_EQ(rt.header.pendingEvents, ck.header.pendingEvents);
    EXPECT_EQ(rt.payload, ck.payload);
}

TEST(Ckpt, DecodeRejectsCorruption)
{
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    const std::vector<std::uint8_t> bytes = ckpt::encode(ck);

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(ckpt::decode(bad_magic), ckpt::CkptError);

    std::vector<std::uint8_t> bad_version = bytes;
    bad_version[8] = 0x63; // the version u32 follows the 8-byte magic
    EXPECT_THROW(ckpt::decode(bad_version), ckpt::CkptError);

    std::vector<std::uint8_t> v1 = bytes;
    v1[8] = 1; // the retired per-primitive encoding
    EXPECT_THROW(ckpt::decode(v1), ckpt::CkptError);

    std::vector<std::uint8_t> truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(ckpt::decode(truncated), ckpt::CkptError);

    std::vector<std::uint8_t> corrupt = bytes;
    corrupt.back() ^= 0x01; // flip a payload bit: CRC must catch it
    EXPECT_THROW(ckpt::decode(corrupt), ckpt::CkptError);
}

TEST(Ckpt, FileRoundTripAndMissingFile)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_test.ckpt")
            .string();
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    ckpt::writeFile(path, ck);
    const ckpt::Checkpoint rt = ckpt::readFile(path);
    EXPECT_EQ(rt.header.fullHash, ck.header.fullHash);
    EXPECT_EQ(rt.payload, ck.payload);
    std::remove(path.c_str());
    EXPECT_THROW(ckpt::readFile(path), ckpt::CkptError);
}

TEST(Ckpt, AtomicWriteIsNeverTornUnderConcurrentWriters)
{
    // Regression test for the shared-warmup-cache reuse race: two
    // sweeps publishing the same checkpoint path concurrently while a
    // third loads it. writeFile (temp file + rename) guarantees
    // a reader only ever sees one writer's COMPLETE bytes.
    const std::string path = (std::filesystem::temp_directory_path() /
                              "dapsim_test_atomic.ckpt")
                                 .string();
    std::remove(path.c_str());

    const ckpt::Checkpoint a =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    const ckpt::Checkpoint b =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   1);
    ASSERT_NE(a.header.fullHash, b.header.fullHash);

    constexpr int kRounds = 200;
    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    ckpt::writeFile(path, a);

    std::thread writer_a([&] {
        for (int i = 0; i < kRounds; ++i)
            ckpt::writeFile(path, a);
    });
    std::thread writer_b([&] {
        for (int i = 0; i < kRounds; ++i)
            ckpt::writeFile(path, b);
    });
    std::thread reader([&] {
        while (!stop.load()) {
            // Every read must decode (CRC-clean) as exactly one of
            // the two published checkpoints, never a mixture.
            try {
                const ckpt::Checkpoint got = ckpt::readFile(path);
                if (got.header.fullHash == a.header.fullHash) {
                    if (got.payload != a.payload)
                        ++torn;
                } else if (got.header.fullHash == b.header.fullHash) {
                    if (got.payload != b.payload)
                        ++torn;
                } else {
                    ++torn;
                }
            } catch (const ckpt::CkptError &) {
                ++torn;
            }
        }
    });
    writer_a.join();
    writer_b.join();
    stop = true;
    reader.join();
    EXPECT_EQ(torn.load(), 0);
    std::remove(path.c_str());
}

TEST(Ckpt, SectoredRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(sectoredTiny());
}

TEST(Ckpt, AlloyRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(alloyTiny());
}

TEST(Ckpt, EdramRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(edramTiny());
}

TEST(Ckpt, NoMsCacheRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(noneTiny());
}

TEST(Ckpt, TieredRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(tieredTiny());
}

TEST(Ckpt, TieredDapRestoreIsBitIdentical)
{
    SystemConfig cfg = tieredTiny();
    cfg.policy = PolicyKind::Dap;
    expectRestoreMatchesRun(cfg);
}

/**
 * The warm payload layout is pinned: stores key warm-up files by
 * stateHash alone, so a layout change that kept the hash would make
 * existing files restore into the wrong fields. A deliberate layout
 * change must also add a layout tag to its architecture's arm of the
 * stateHash (as the Alloy arm's "alloy.frames.v1"; see
 * StateHashLayoutTagIsAlloyOnly) and update these constants.
 */
TEST(Ckpt, WarmPayloadLayoutIsPinned)
{
    const Mix mix = tinyMix("mcf");
    const auto payloadHash = [&](const SystemConfig &cfg) {
        return ckpt::fnv1a(
            ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7).payload);
    };
    EXPECT_EQ(payloadHash(sectoredTiny()), 0xa947e5d1ee9d9748ULL);
    EXPECT_EQ(payloadHash(edramTiny()), 0x8a297daa742ec50dULL);
    // Alloy: one packed word per frame (tagged "alloy.frames.v1" in
    // the stateHash, see StateHashLayoutTagIsAlloyOnly).
    EXPECT_EQ(payloadHash(alloyTiny()), 0x5bc783657d788d2aULL);
}

/**
 * A payload layout change tags only its own architecture's arm of the
 * stateHash. The Alloy frame store changed the Alloy "ms" section, so
 * old Alloy warm-up files no longer match; every other architecture
 * keeps the keys its files were stored under (the pinned values).
 */
TEST(Ckpt, StateHashLayoutTagIsAlloyOnly)
{
    const std::string desc = ckpt::describeMix(tinyMix("mcf"));
    const auto hash = [&](const SystemConfig &cfg) {
        return ckpt::stateHash(cfg, desc, 7, 2'000);
    };
    EXPECT_EQ(hash(sectoredTiny()), 0xcc6d3a8a66e54d16ULL);
    EXPECT_EQ(hash(edramTiny()), 0x761fde8fea12c3d1ULL);
    EXPECT_EQ(hash(tieredTiny()), 0x7bc24ccbde8dbd65ULL);
    EXPECT_EQ(hash(noneTiny()), 0xdec4f2f4af8bd9c6ULL);
    // The 1-way-directory layout's key, and the frame store's.
    EXPECT_NE(hash(alloyTiny()), 0x9c72a12b3cd75cc6ULL);
    EXPECT_EQ(hash(alloyTiny()), 0xb3d6abf48f44f17dULL);

    // Job ids hash the content hash, which leaves layout tags out:
    // it is the pre-tag key for Alloy and the stateHash elsewhere.
    const auto content = [&](const SystemConfig &cfg) {
        return ckpt::stateContentHash(cfg, desc, 7, 2'000);
    };
    EXPECT_EQ(content(alloyTiny()), 0x9c72a12b3cd75cc6ULL);
    for (const SystemConfig &cfg :
         {sectoredTiny(), edramTiny(), tieredTiny(), noneTiny()})
        EXPECT_EQ(content(cfg), hash(cfg));
}

/** Save a freshly built @p from system and restore it into a fresh
 *  @p into system directly (no hash check); returns the error
 *  message, or "" when the restore succeeds. */
std::string
restoreAcross(const SystemConfig &from, const SystemConfig &into)
{
    const Mix mix = tinyMix("mcf");
    auto build = [&](const SystemConfig &cfg) {
        return std::make_unique<System>(cfg, mixGenerators(mix, 0));
    };
    ckpt::Serializer s;
    build(from)->save(s);

    auto target = build(into);
    ckpt::Deserializer d(s.buffer());
    try {
        target->restore(d);
    } catch (const ckpt::CkptError &e) {
        return e.what();
    }
    return "";
}

TEST(Ckpt, AlloyRestoreRefusesFrameCountMismatch)
{
    SystemConfig bigger = alloyTiny();
    bigger.alloy.capacityBytes *= 2;
    EXPECT_NE(restoreAcross(alloyTiny(), bigger).find("Alloy frame count"),
              std::string::npos);
    EXPECT_EQ(restoreAcross(alloyTiny(), alloyTiny()), "");
}

TEST(Ckpt, RemoteMemoryMidRunRoundTripMatchesUninterrupted)
{
    RemoteConfig rc;
    rc.enabled = true;
    rc.bwScaleFactor = 4.0;
    rc.addLatencyNs = 120.0;
    rc.maxOutstanding = 2;

    // Six posted writes against a two-deep credit window: two on the
    // link, four queued behind them.
    EventQueue eq1;
    RemoteMemory rm1(eq1, rc, 38.4);
    for (int i = 0; i < 6; ++i)
        rm1.access(static_cast<Addr>(i) * kBlockBytes, true);
    ASSERT_EQ(rm1.outstanding(), 6u);

    // Snapshot with the queue backed up, then let the original drain.
    ckpt::Serializer s;
    rm1.save(s);
    eq1.runUntil([&] { return rm1.writes.value() == 6; });

    // Restore into a fresh queue and drain the replica.
    EventQueue eq2;
    RemoteMemory rm2(eq2, rc, 38.4);
    ckpt::Deserializer d(s.buffer());
    rm2.restore(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(rm2.outstanding(), 6u);
    eq2.runUntil([&] { return rm2.writes.value() == 6; });

    // The replayed drain is indistinguishable from the uninterrupted
    // one: same finish time, same link statistics.
    EXPECT_EQ(eq1.now(), eq2.now());
    EXPECT_EQ(rm1.dataBytes(), rm2.dataBytes());
    EXPECT_EQ(rm1.queuePeakDepth(), rm2.queuePeakDepth());
    EXPECT_EQ(rm1.busUtilization(eq1.now()),
              rm2.busUtilization(eq2.now()));
}

TEST(Ckpt, RemoteSaveRefusesOutstandingReads)
{
    RemoteConfig rc;
    rc.enabled = true;
    EventQueue eq;
    RemoteMemory rm(eq, rc, 38.4);
    bool fired = false;
    rm.access(0, false, [&fired] { fired = true; });
    ckpt::Serializer s;
    EXPECT_THROW(rm.save(s), ckpt::CkptError);
    eq.runUntil([&] { return fired; });
    ckpt::Serializer ok;
    EXPECT_NO_THROW(rm.save(ok)); // drained: quiescent again
}

/** Capture a two-tier checkpoint and restore it into the same config
 *  with the remote tier switched on; returns the error message. */
std::string
restoreTwoTierIntoTiered()
{
    return restoreAcross(sectoredTiny(), tieredTiny());
}

TEST(Ckpt, TwoTierCheckpointRefusedInTieredConfig)
{
    // A checkpoint taken without the remote tier has no "remote"
    // section: restoring it into a 3-tier config must fail with a
    // message naming the missing tier, not a generic framing error.
    const std::string msg = restoreTwoTierIntoTiered();
    EXPECT_NE(msg.find("remote"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot seed"), std::string::npos) << msg;
}

TEST(CkptDeathTest, TwoTierCheckpointIntoTieredConfigIsFatal)
{
    // The CLI surfaces the CkptError via fatal(); the death message
    // must name the remote tier so users know which knob to flip.
    EXPECT_DEATH(fatal(restoreTwoTierIntoTiered()), "remote");
}

TEST(Ckpt, ForkSeedsEveryPolicyBitIdentically)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    for (PolicyKind p :
         {PolicyKind::Dap, PolicyKind::Sbd, PolicyKind::SbdWt,
          PolicyKind::Batman, PolicyKind::Bear}) {
        SystemConfig variant = cfg;
        variant.policy = p;
        const RunResult direct = runMix(variant, mix, kInstr, 0);
        const RunResult forked = ckpt::runMixFromCheckpoint(
            variant, mix, kInstr, 0, ck, /*fork=*/true);
        expectIdentical(direct, forked);
    }
}

TEST(Ckpt, MismatchedConfigurationRefusesRestore)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    SystemConfig bigger = cfg;
    bigger.sectored.capacityBytes = 4 * kMiB;
    EXPECT_THROW(
        ckpt::runMixFromCheckpoint(bigger, mix, kInstr, 0, ck),
        ckpt::CkptError);

    // Different seed salt changes the streams: also refused.
    EXPECT_THROW(ckpt::runMixFromCheckpoint(cfg, mix, kInstr, 1, ck),
                 ckpt::CkptError);

    // Different workload: refused.
    EXPECT_THROW(ckpt::runMixFromCheckpoint(cfg, tinyMix("bwaves"),
                                            kInstr, 0, ck),
                 ckpt::CkptError);
}

TEST(Ckpt, MismatchedPolicyRequiresFork)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    SystemConfig variant = cfg;
    variant.policy = PolicyKind::Dap;
    EXPECT_THROW(
        ckpt::runMixFromCheckpoint(variant, mix, kInstr, 0, ck),
        ckpt::CkptError);
    EXPECT_NO_THROW(ckpt::runMixFromCheckpoint(variant, mix, kInstr, 0,
                                               ck, /*fork=*/true));
}

TEST(Ckpt, CaptureRequiresQuiescentPoint)
{
    SystemConfig cfg = noneTiny();
    cfg.core.instructions = kInstr;
    System sys(cfg, mixGenerators(tinyMix("mcf"), 0));
    sys.warmup(1);
    sys.run();
    ckpt::Serializer s;
    EXPECT_THROW(sys.save(s), ckpt::CkptError);
}

/** Queue a one-workload, five-policy grid on @p runner. */
void
addPolicyGrid(exp::SweepRunner &runner)
{
    runner.addGrid(sectoredTiny(), {tinyMix("mcf")},
                   {PolicyKind::Baseline, PolicyKind::Dap,
                    PolicyKind::Sbd, PolicyKind::Batman,
                    PolicyKind::Bear},
                   kInstr);
}

TEST(SweepWarmupFork, ForkedSweepIsBitIdenticalToUnforked)
{
    exp::SweepRunner plain;
    addPolicyGrid(plain);
    const auto base = plain.run(1);

    exp::SweepRunner forked;
    addPolicyGrid(forked);
    forked.setWarmupFork(true);
    const auto fork = forked.run(4);

    // One shared warm-up for the whole 5-policy group.
    EXPECT_EQ(forked.warmupsExecuted(), 1u);
    ASSERT_EQ(base.size(), fork.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_TRUE(base[i].ok) << base[i].error;
        ASSERT_TRUE(fork[i].ok) << fork[i].error;
        expectIdentical(base[i].result, fork[i].result);
    }
}

TEST(SweepWarmupFork, OneWarmupPerDistinctGroup)
{
    exp::SweepRunner runner;
    runner.addGrid(sectoredTiny(),
                   {tinyMix("mcf"), tinyMix("bwaves")},
                   {PolicyKind::Baseline, PolicyKind::Dap}, kInstr);
    runner.setWarmupFork(true);
    const auto results = runner.run(4);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(runner.warmupsExecuted(), 2u);
}

TEST(SweepWarmupFork, ReleaseDropsTheCachedCheckpoint)
{
    exp::JobSpec spec;
    spec.cfg = sectoredTiny();
    spec.mix = tinyMix("mcf");
    spec.instr = kInstr;

    exp::WarmupCache cache("");
    const exp::WarmupCache::Result first = cache.ensure(spec);
    ASSERT_TRUE(first.ckpt);
    EXPECT_TRUE(first.executed);
    EXPECT_EQ(first.ckpt.backing.use_count(), 2); // caller + cache
    cache.release(exp::warmupStateHash(spec));
    EXPECT_EQ(first.ckpt.backing.use_count(), 1); // caller only

    // A released group is simulated again on the next request.
    EXPECT_TRUE(cache.ensure(spec).executed);
    EXPECT_EQ(cache.executed(), 2u);
}

TEST(SweepWarmupFork, CkptDirIsReusedAcrossSweeps)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_ckpt_dir")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    exp::SweepRunner first;
    addPolicyGrid(first);
    first.setWarmupFork(true, dir);
    const auto a = first.run(2);
    EXPECT_EQ(first.warmupsExecuted(), 1u);

    exp::SweepRunner second;
    addPolicyGrid(second);
    second.setWarmupFork(true, dir);
    const auto b = second.run(2);
    EXPECT_EQ(second.warmupsExecuted(), 0u); // loaded from disk

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        expectIdentical(a[i].result, b[i].result);
    }
    std::filesystem::remove_all(dir);
}

/** Write @p bytes to @p path (no atomicity: test fixtures only). */
void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** addPolicyGrid's warm-up checkpoint under a version-1 header, as
 *  a file from before that encoding was retired would carry it. */
std::vector<std::uint8_t>
versionOneImage()
{
    std::vector<std::uint8_t> bytes = ckpt::encode(ckpt::makeWarmupCheckpoint(
        sectoredTiny(), tinyMix("mcf"), kInstr, 0));
    bytes[8] = 1; // the version u32 follows the 8-byte magic
    return bytes;
}

TEST(SweepWarmupFork, VersionOneFileInCkptDirIsRegenerated)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_ckpt_dir_v1")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    exp::JobSpec spec;
    spec.cfg = sectoredTiny();
    spec.mix = tinyMix("mcf");
    spec.instr = kInstr;
    const std::string path =
        exp::WarmupCache(dir).checkpointPath(exp::warmupStateHash(spec));
    writeBytes(path, versionOneImage());

    exp::SweepRunner plain, forked;
    addPolicyGrid(plain);
    addPolicyGrid(forked);
    forked.setWarmupFork(true, dir);
    const auto base = plain.run(1);
    const auto fork = forked.run(2);
    EXPECT_EQ(forked.warmupsExecuted(), 1u); // the v1 file was not used
    EXPECT_EQ(ckpt::readFile(path).header.version, ckpt::kVersion);
    ASSERT_EQ(base.size(), fork.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_TRUE(fork[i].ok) << fork[i].error;
        expectIdentical(base[i].result, fork[i].result);
    }
    std::filesystem::remove_all(dir);
}

/** Forks skip the policy section: a baseline warm-up seeds DAP. */
TEST(CkptV2, V2ForkSeedsOtherPolicies)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);

    SystemConfig dap = cfg;
    dap.policy = PolicyKind::Dap;
    const RunResult direct = runMix(dap, mix, kInstr, 7);
    expectIdentical(direct,
                    ckpt::runMixFromCheckpoint(dap, mix, kInstr, 7, ck,
                                               /*fork=*/true));
}

/** readFileMapped serves the same checkpoint as readFile, and the
 *  restored run matches; the mapping outlives the restore via the
 *  view's backing reference. */
TEST(CkptV2, MappedReadMatchesHeapRead)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_v2_map.ckpt")
            .string();
    ckpt::writeFile(path, ck);

    const ckpt::Checkpoint heap = ckpt::readFile(path);
    ckpt::CheckpointView mapped = ckpt::readFileMapped(path);
    ASSERT_TRUE(static_cast<bool>(mapped));
    EXPECT_EQ(mapped.header.version, heap.header.version);
    EXPECT_EQ(mapped.header.stateHash, heap.header.stateHash);
    ASSERT_EQ(mapped.payloadSize, heap.payload.size());
    EXPECT_EQ(std::memcmp(mapped.payload, heap.payload.data(),
                          heap.payload.size()),
              0);

    const RunResult direct = runMix(cfg, mix, kInstr, 7);
    expectIdentical(direct, ckpt::runMixFromCheckpoint(cfg, mix, kInstr,
                                                       7, mapped));
    std::filesystem::remove(path);
}

/** A version-1 file is refused by both readers. */
TEST(CkptV2, ReadersRefuseVersionOne)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_v1.ckpt")
            .string();
    writeBytes(path, versionOneImage());
    EXPECT_THROW((void)ckpt::readFileMapped(path), ckpt::CkptError);
    EXPECT_THROW((void)ckpt::readFile(path), ckpt::CkptError);
    std::filesystem::remove(path);
}

/** Corrupt payload bytes are rejected by the mapped reader too. */
TEST(CkptV2, MappedReadRejectsCorruption)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_v2_bad.ckpt")
            .string();
    std::vector<std::uint8_t> bytes = ckpt::encode(ck);
    bytes[bytes.size() - 1] ^= 0xff;
    writeBytes(path, bytes);
    EXPECT_THROW((void)ckpt::readFileMapped(path), ckpt::CkptError);
    std::filesystem::remove(path);
}

} // namespace
} // namespace dapsim
