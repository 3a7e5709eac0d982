/**
 * @file
 * dapsim — command-line simulation driver.
 *
 * Runs one simulation from the command line and prints the headline
 * metrics (optionally a full gem5-style stats dump). Workloads are
 * either named synthetic profiles (rate mode) or trace files.
 *
 * Examples:
 *   dapsim --workload mcf --policy dap
 *   dapsim --arch alloy --policy bear --instr 200000 --stats
 *   dapsim --trace mem.trace --cores 4 --policy dap
 *   dapsim --arch edram --capacity-mb 8 --workload hpcg
 *   dapsim --workload mcf --save-ckpt warm.ckpt
 *   dapsim --workload mcf --policy dap --restore-ckpt warm.ckpt
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "common/validate.hh"
#include "sim/fidelity_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "trace/mixes.hh"
#include "trace/trace_file.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

using namespace dapsim;

namespace
{

struct Options
{
    std::string arch = "sectored";
    std::string policy = "baseline";
    std::string workload = "mcf";
    std::string trace;
    std::uint32_t cores = 8;
    std::uint64_t instr = 120'000;
    std::uint64_t capacityMb = 0; // 0 = preset default
    Cycle window = 64;
    double efficiency = 0.75;
    std::uint64_t seed = 0;
    std::string saveCkpt;
    std::string restoreCkpt;
    bool stats = false;
    bool remote = false;
    double remoteScale = 4.0;
    double remoteLatencyNs = 120.0;
    std::uint32_t remoteOutstanding = 32;
    std::string fidelity = "exact";
    std::uint64_t fidelityDetail = 0;
    std::uint64_t fidelityPeriod = 0;
    obs::ObsConfig obs{};
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: dapsim [options]\n"
        "  --arch sectored|alloy|edram|none   MS$ architecture\n"
        "  --policy baseline|dap|sbd|sbd-wt|batman|bear\n"
        "  --workload NAME      synthetic profile or workload-engine\n"
        "                       spec, e.g. zipf:skew=0.99,fp=64M or\n"
        "                       mix:t0=zipf,t0.cores=4,t1=flood\n"
        "                       (see --list)\n"
        "  --trace FILE         drive every core from a trace file\n"
        "  --cores N            core count (default 8)\n"
        "  --instr N            instructions per core (default 120000)\n"
        "  --capacity-mb N      override MS$ capacity\n"
        "  --window W           DAP window in CPU cycles (default 64)\n"
        "  --efficiency E       DAP bandwidth efficiency in (0, 1]\n"
        "                       (default 0.75)\n"
        "  --seed N             workload seed salt\n"
        "  --fidelity MODE      exact (default) | sampled | analytic\n"
        "  --fidelity-detail N  sampled: detailed instructions per "
        "core\n"
        "                       per period (default 2000)\n"
        "  --fidelity-period N  sampled: sampling period in "
        "instructions\n"
        "                       per core (default 10000)\n"
        "  --remote             enable the remote bandwidth tier\n"
        "  --remote-scale S     remote BW = DDR BW / S (default 4)\n"
        "  --remote-latency-ns N  remote latency adder (default 120)\n"
        "  --remote-outstanding N remote credit window (default 32)\n"
        "  --save-ckpt FILE     snapshot the post-warmup state to FILE\n"
        "  --restore-ckpt FILE  skip warm-up; restore the state from "
        "FILE\n"
        "  --sample-every N     sample stats every N CPU cycles\n"
        "  --sample-out FILE    time-series output (with "
        "--sample-every)\n"
        "  --sample-format F    jsonl (default) or csv\n"
        "  --dap-trace FILE     per-window DAP decision trace (JSONL)\n"
        "  --chrome-trace FILE  Chrome trace_event JSON (Perfetto)\n"
        "  --stats              dump full statistics\n"
        "  --list               list workload profiles\n");
    std::exit(1);
}

PolicyKind
parsePolicy(const std::string &s)
{
    if (s == "baseline")
        return PolicyKind::Baseline;
    if (s == "dap")
        return PolicyKind::Dap;
    if (s == "sbd")
        return PolicyKind::Sbd;
    if (s == "sbd-wt")
        return PolicyKind::SbdWt;
    if (s == "batman")
        return PolicyKind::Batman;
    if (s == "bear")
        return PolicyKind::Bear;
    fatal("unknown policy: " + s);
}

SystemConfig
buildConfig(const Options &opt)
{
    SystemConfig cfg;
    if (opt.arch == "sectored") {
        cfg = presets::sectoredSystem8();
        if (opt.capacityMb)
            cfg.sectored.capacityBytes = opt.capacityMb * kMiB;
    } else if (opt.arch == "alloy") {
        cfg = presets::alloySystem8();
        if (opt.capacityMb)
            cfg.alloy.capacityBytes = opt.capacityMb * kMiB;
    } else if (opt.arch == "edram") {
        cfg = presets::edramSystem8(opt.capacityMb ? opt.capacityMb : 4);
    } else if (opt.arch == "none") {
        cfg = presets::sectoredSystem8();
        cfg.arch = MsArch::None;
        cfg.warmupAccessesPerCore = 1;
    } else {
        fatal("unknown arch: " + opt.arch);
    }
    cfg.numCores = opt.cores;
    cfg.core.instructions = opt.instr;
    cfg.windowCycles = opt.window;
    cfg.dap.efficiency = opt.efficiency;
    cfg.policy = parsePolicy(opt.policy);
    cfg.remote.enabled = opt.remote;
    cfg.remote.bwScaleFactor = opt.remoteScale;
    cfg.remote.addLatencyNs = opt.remoteLatencyNs;
    cfg.remote.maxOutstanding = opt.remoteOutstanding;
    if (!fidelityModeFromName(opt.fidelity, cfg.fidelity.mode))
        fatal("unknown fidelity: " + opt.fidelity);
    if (opt.fidelityDetail)
        cfg.fidelity.detailInstr = opt.fidelityDetail;
    if (opt.fidelityPeriod)
        cfg.fidelity.periodInstr = opt.fidelityPeriod;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (a == "--arch")
            opt.arch = value();
        else if (a == "--policy")
            opt.policy = value();
        else if (a == "--workload")
            opt.workload = value();
        else if (a == "--trace")
            opt.trace = value();
        else if (a == "--cores")
            opt.cores = parseCount<std::uint32_t>(a, value());
        else if (a == "--instr")
            opt.instr = parseCount(a, value());
        else if (a == "--capacity-mb")
            opt.capacityMb = parseCount(a, value());
        else if (a == "--window")
            opt.window = parseCount(a, value());
        else if (a == "--efficiency")
            opt.efficiency = checkEfficiency(a, parseReal(a, value()));
        else if (a == "--seed")
            opt.seed = parseCount(a, value());
        else if (a == "--fidelity")
            opt.fidelity = value();
        else if (a == "--fidelity-detail")
            opt.fidelityDetail = parseCount(a, value());
        else if (a == "--fidelity-period")
            opt.fidelityPeriod = parseCount(a, value());
        else if (a == "--remote")
            opt.remote = true;
        else if (a == "--remote-scale")
            opt.remoteScale = parseReal(a, value());
        else if (a == "--remote-latency-ns")
            opt.remoteLatencyNs = parseReal(a, value());
        else if (a == "--remote-outstanding")
            opt.remoteOutstanding = parseCount<std::uint32_t>(a, value());
        else if (a == "--save-ckpt")
            opt.saveCkpt = value();
        else if (a == "--restore-ckpt")
            opt.restoreCkpt = value();
        else if (a == "--sample-every")
            opt.obs.sampleEvery = parseCount(a, value());
        else if (a == "--sample-out")
            opt.obs.sampleOut = value();
        else if (a == "--sample-format") {
            const std::string f = value();
            if (f == "jsonl")
                opt.obs.sampleFormat = obs::SampleFormat::Jsonl;
            else if (f == "csv")
                opt.obs.sampleFormat = obs::SampleFormat::Csv;
            else
                fatal("--sample-format expects jsonl or csv");
        } else if (a == "--dap-trace")
            opt.obs.dapTrace = value();
        else if (a == "--chrome-trace")
            opt.obs.chromeTrace = value();
        else if (a == "--stats")
            opt.stats = true;
        else if (a == "--list") {
            workload::printCatalog();
            return 0;
        } else {
            usage();
        }
    }

    if (!opt.saveCkpt.empty() && !opt.restoreCkpt.empty())
        fatal("--save-ckpt and --restore-ckpt are mutually exclusive");
    if ((opt.obs.sampleEvery != 0) != !opt.obs.sampleOut.empty())
        fatal("--sample-every and --sample-out must be used together");

    SystemConfig cfg = buildConfig(opt);
    cfg.obs = opt.obs;

    std::vector<AccessGeneratorPtr> gens;
    std::string mix_name;
    std::string stream_desc;
    if (!opt.trace.empty()) {
        mix_name = opt.trace;
        stream_desc = "trace:" + opt.trace;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i)
            gens.push_back(std::make_unique<TraceFileGenerator>(
                opt.trace, static_cast<Addr>(i) << 40));
    } else {
        const workload::ComposedMix cm =
            workload::composeWorkload(opt.workload, cfg.numCores);
        mix_name = cm.mix.name;
        stream_desc = ckpt::describeMix(cm.mix);
        // Tenant attribution only for engine specs; classic profile
        // runs keep their exact historical stats row set.
        if (workload::looksLikeSpec(opt.workload))
            cfg.obs.coreTenants = cm.coreTenants;
        gens = mixGenerators(cm.mix, opt.seed);
    }

    // `cfg` stays the PRE-construction configuration the checkpoint
    // hashes are taken from (System derives fields in its own copy).
    System sys(cfg, std::move(gens));
    try {
        if (!opt.restoreCkpt.empty()) {
            // Mapped read: payload arrays restore by memcpy straight
            // out of the page cache.
            const ckpt::CheckpointView c =
                ckpt::readFileMapped(opt.restoreCkpt);
            ckpt::restoreChecked(sys, cfg, stream_desc, opt.seed, c);
            std::printf("restored %s (%llu warm-up accesses/core)\n",
                        opt.restoreCkpt.c_str(),
                        static_cast<unsigned long long>(
                            c.header.warmupPerCore));
        } else {
            sys.warmup(ckpt::resolveWarmCount(cfg));
            if (!opt.saveCkpt.empty()) {
                const ckpt::CheckpointHeader h = ckpt::warmupHeader(
                    cfg, stream_desc, opt.instr, opt.seed);
                ckpt::writeFile(opt.saveCkpt, ckpt::capture(sys, h));
                std::printf("saved %s (%llu warm-up accesses/core)\n",
                            opt.saveCkpt.c_str(),
                            static_cast<unsigned long long>(
                                h.warmupPerCore));
            }
        }
    } catch (const ckpt::CkptError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    const RunResult r = runFidelityOn(sys, mix_name, opt.instr);
    std::printf("mix %s  arch %s  policy %s  seed %llu\n",
                mix_name.c_str(), opt.arch.c_str(),
                r.policyName.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::printf("throughput %.3f IPC  cycles %llu\n", r.throughput(),
                static_cast<unsigned long long>(r.cycles));
    std::printf("MS$ hit ratio %.3f  MM CAS fraction %.3f  "
                "L3 read-miss latency %.1f ns\n",
                r.msHitRatio, r.mmCasFraction,
                r.avgL3ReadMissLatency / 1000.0);
    if (r.fidelity.valid)
        std::printf("fidelity %s  windows %llu  detail %.1f%%  "
                    "IPC %.3f +/- %.3f\n",
                    r.fidelity.mode.c_str(),
                    static_cast<unsigned long long>(
                        r.fidelity.windows),
                    r.fidelity.detailFraction * 100.0,
                    r.fidelity.ipcMean, r.fidelity.ipcCiHalf);
    if (r.fwb + r.wb + r.ifrm + r.sfrm > 0)
        std::printf("DAP decisions: FWB %llu WB %llu IFRM %llu "
                    "SFRM %llu\n",
                    static_cast<unsigned long long>(r.fwb),
                    static_cast<unsigned long long>(r.wb),
                    static_cast<unsigned long long>(r.ifrm),
                    static_cast<unsigned long long>(r.sfrm));
    if (opt.stats) {
        std::printf("---- stats ----\n");
        sys.dumpStats(std::cout);
    }
    return 0;
}
