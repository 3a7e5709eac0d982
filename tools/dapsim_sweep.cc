/**
 * @file
 * dapsim_sweep — parallel grid-sweep driver.
 *
 * Expands an arch x capacity x policy x workload grid into jobs, runs
 * them on a thread pool, and writes results as a console table and/or
 * a JSON-lines artifact. Results are emitted in grid order no matter
 * how jobs interleave, and the metrics are bit-identical for any
 * --jobs value (each job owns its whole simulation state).
 *
 * The grid expansion itself lives in src/expd/grid.cc and is shared
 * with the persistent experiment service: --dry-run prints the
 * expansion (stable job ids + warmup group keys) without simulating,
 * and --store DIR submits the grid to a durable `dapsim.expq.v1`
 * store for dapsim_expd workers instead of running it here.
 *
 * Examples:
 *   dapsim_sweep --policy baseline,dap --workload sensitive --jobs 4
 *   dapsim_sweep --arch sectored,alloy --workload mcf,lbm \
 *                --jobs 8 --json bench/out/sweep.jsonl
 *   dapsim_sweep --capacity-mb 32,64,128 --policy dap --workload all
 *   dapsim_sweep --workload all --dry-run
 *   dapsim_sweep --workload all --store bench/out/store
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/validate.hh"
#include "exp/result_sink.hh"
#include "exp/sweep_runner.hh"
#include "expd/store.hh"
#include "workload/compose.hh"

using namespace dapsim;

namespace
{

struct Options
{
    expd::GridOptions grid;
    std::size_t jobs = 1;
    std::string jsonPath;
    bool quiet = false;
    bool dryRun = false;
    std::string storeDir;
    bool warmupFork = false;
    std::string ckptDir;

    // Per-job observability (see src/obs/): every selected output
    // goes to its own file under obsDir, so parallel jobs never
    // interleave a stream.
    std::string obsDir;
    std::uint64_t sampleEvery = 0;
    obs::SampleFormat sampleFormat = obs::SampleFormat::Jsonl;
    bool dapTrace = false;
    bool chromeTrace = false;
    std::string phaseTracePath;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: dapsim_sweep [options]\n"
        "  --arch LIST          sectored|alloy|edram (comma-separated,"
        " default sectored)\n"
        "  --policy LIST        baseline|dap|sbd|sbd-wt|batman|bear\n"
        "                       (default baseline,dap)\n"
        "  --workload LIST      profile names, all|sensitive|"
        "insensitive, or\n"
        "                       workload-engine specs "
        "(zipf:skew=0.99,fp=64M);\n"
        "                       a list element containing '=' continues"
        " the\n"
        "                       previous spec (default sensitive)\n"
        "  --capacity-mb LIST   MS$ capacities to sweep (default: "
        "preset)\n"
        "  --cores N            cores per system (default 8)\n"
        "  --instr N            instructions per core (default "
        "120000)\n"
        "  --seed N             workload seed salt (default 0)\n"
        "  --warmup N           warm-up accesses per core (default: "
        "preset)\n"
        "  --jobs N             worker threads (default 1)\n"
        "  --fidelity MODE      exact (default) | sampled | analytic\n"
        "  --fidelity-detail N  sampled: detailed instructions per core"
        " per\n"
        "                       period (default 2000)\n"
        "  --fidelity-period N  sampled: sampling period in "
        "instructions\n"
        "                       per core (default 10000)\n"
        "  --remote             enable the remote bandwidth tier\n"
        "  --remote-scale S     remote BW = DDR BW / S (default 4)\n"
        "  --remote-latency-ns N  remote latency adder (default 120)\n"
        "  --remote-outstanding N remote credit window (default 32)\n"
        "  --json FILE          also write JSON-lines results to "
        "FILE\n"
        "  --dry-run            print the expanded grid (index, job "
        "id,\n"
        "                       warmup group, label) and exit\n"
        "  --store DIR          submit the grid as a dapsim.expq.v1 "
        "store\n"
        "                       for dapsim_expd workers instead of "
        "running\n"
        "  --warmup-fork        share one warm-up per (arch, workload,"
        " seed)\n"
        "                       group via checkpoints (bit-identical "
        "results)\n"
        "  --ckpt-dir DIR       keep/reuse warm-up checkpoints in DIR "
        "(implies\n"
        "                       --warmup-fork)\n"
        "  --obs-dir DIR        write per-job observability files into "
        "DIR\n"
        "  --sample-every N     per-job stat time series every N CPU "
        "cycles\n"
        "  --sample-format F    jsonl (default) or csv\n"
        "  --dap-trace          per-job DAP decision traces (JSONL)\n"
        "  --chrome-trace       per-job Chrome trace_event files\n"
        "  --phase-trace FILE   wall-clock job-scheduling trace "
        "(Chrome JSON)\n"
        "  --quiet              suppress the console table\n"
        "  --list               list workload profiles\n");
    std::exit(1);
}

/** Filesystem-safe job label: '/' and other separators become '_'. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
              c == '.'))
            c = '_';
    }
    return out;
}

/** `DIR/job###-<label>` — the per-job observability path stem. */
std::string
obsStem(const std::string &dir, std::size_t index,
        const std::string &label)
{
    char num[16];
    std::snprintf(num, sizeof(num), "job%03zu", index);
    return dir + "/" + num + "-" + sanitizeLabel(label);
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
        if (expd::parseGridFlag(opt.grid, a, value))
            continue;
        if (a == "--jobs")
            opt.jobs = parseCount(a, value());
        else if (a == "--json")
            opt.jsonPath = value();
        else if (a == "--dry-run")
            opt.dryRun = true;
        else if (a == "--store")
            opt.storeDir = value();
        else if (a == "--warmup-fork")
            opt.warmupFork = true;
        else if (a == "--ckpt-dir")
            opt.ckptDir = value();
        else if (a == "--obs-dir")
            opt.obsDir = value();
        else if (a == "--sample-every")
            opt.sampleEvery = parseCount(a, value());
        else if (a == "--sample-format") {
            const std::string f = value();
            if (f == "jsonl")
                opt.sampleFormat = obs::SampleFormat::Jsonl;
            else if (f == "csv")
                opt.sampleFormat = obs::SampleFormat::Csv;
            else
                fatal("--sample-format expects jsonl or csv");
        } else if (a == "--dap-trace")
            opt.dapTrace = true;
        else if (a == "--chrome-trace")
            opt.chromeTrace = true;
        else if (a == "--phase-trace")
            opt.phaseTracePath = value();
        else if (a == "--quiet")
            opt.quiet = true;
        else if (a == "--list") {
            workload::printCatalog();
            return 0;
        } else {
            usage();
        }
    }
    if (opt.jobs == 0)
        opt.jobs = 1;

    const bool perJobObs =
        opt.sampleEvery != 0 || opt.dapTrace || opt.chromeTrace;
    if (perJobObs && opt.obsDir.empty())
        fatal("--sample-every/--dap-trace/--chrome-trace require "
              "--obs-dir");
    if (!opt.obsDir.empty() && !perJobObs)
        fatal("--obs-dir needs --sample-every, --dap-trace or "
              "--chrome-trace");
    if (perJobObs) {
        std::error_code ec;
        std::filesystem::create_directories(opt.obsDir, ec);
        if (ec)
            fatal("cannot create " + opt.obsDir + ": " + ec.message());
    }

    if (opt.dryRun) {
        const auto expanded = expd::expandGrid(opt.grid);
        for (std::size_t i = 0; i < expanded.size(); ++i)
            std::printf("%zu\t%s\t%s\t%s\n", i,
                        expanded[i].id.c_str(),
                        expanded[i].group.empty()
                            ? "-"
                            : expanded[i].group.c_str(),
                        expanded[i].spec.displayLabel().c_str());
        return 0;
    }

    if (!opt.storeDir.empty()) {
        try {
            const expd::Store store =
                expd::Store::create(opt.storeDir, opt.grid);
            std::fprintf(stderr,
                         "submitted %zu jobs to %s; run workers "
                         "with:\n  dapsim_expd run --store %s\n",
                         store.jobs().size(), opt.storeDir.c_str(),
                         opt.storeDir.c_str());
        } catch (const std::exception &e) {
            fatal(e.what());
        }
        return 0;
    }

    std::vector<expd::ExpandedJob> expanded =
        expd::expandGrid(opt.grid);
    if (expanded.empty())
        fatal("empty sweep grid");

    exp::SweepRunner runner;
    for (expd::ExpandedJob &job : expanded) {
        if (perJobObs && !job.spec.custom) {
            const std::string stem = obsStem(
                opt.obsDir, runner.jobCount(),
                job.spec.mix.name + "/" +
                    exp::policyKindName(job.spec.policy));
            if (opt.sampleEvery) {
                job.spec.cfg.obs.sampleEvery = opt.sampleEvery;
                job.spec.cfg.obs.sampleFormat = opt.sampleFormat;
                job.spec.cfg.obs.sampleOut =
                    stem + (opt.sampleFormat == obs::SampleFormat::Csv
                                ? ".samples.csv"
                                : ".samples.jsonl");
            }
            if (opt.dapTrace)
                job.spec.cfg.obs.dapTrace = stem + ".daptrace.jsonl";
            if (opt.chromeTrace)
                job.spec.cfg.obs.chromeTrace = stem + ".trace.json";
        }
        runner.add(std::move(job.spec));
    }

    exp::ConsoleTableSink console;
    if (!opt.quiet)
        runner.addSink(&console);

    std::ofstream json_file;
    exp::JsonLinesSink json_sink(json_file);
    if (!opt.jsonPath.empty()) {
        json_file.open(opt.jsonPath);
        if (!json_file)
            fatal("cannot open " + opt.jsonPath + " for writing");
        runner.addSink(&json_sink);
    }

    const bool fork = opt.warmupFork || !opt.ckptDir.empty();
    if (fork)
        runner.setWarmupFork(true, opt.ckptDir);
    if (!opt.phaseTracePath.empty())
        runner.setPhaseTrace(opt.phaseTracePath);

    runner.setProgress(true);
    const auto results = runner.run(opt.jobs);

    std::size_t failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    std::fprintf(stderr, "sweep complete: %zu jobs, %zu failed\n",
                 results.size(), failed);
    if (fork)
        std::fprintf(stderr,
                     "warmup-fork: %llu shared warm-ups executed\n",
                     static_cast<unsigned long long>(
                         runner.warmupsExecuted()));
    return failed == results.size() ? 1 : 0;
}
