/**
 * @file
 * paper_figures: every table and figure of the paper, plus the DAP
 * ablation and the workload-engine and tiered-memory sweeps.
 *
 *   paper_figures [--jobs N] [--store DIR] all|<figure>...
 *
 * A figure is one entry of figureTable(), keyed by its id: a title and
 * panels of rows (a label and a Mix) run under named variants (a
 * SystemConfig and a PolicyKind), with columns computed from a row's
 * results by variant name. The few figures that need code of their
 * own keep a small body in the same entry. All selected figures queue
 * into one Plan, which de-duplicates jobs by exp::jobId, so a run that
 * several figures share runs once; the plan runs on one warm-up-forking
 * SweepRunner (checkpoints in DIR/ckpt with --store), then the figures
 * print in order. Output is identical for any --jobs.
 *
 * DAPSIM_BENCH_INSTR sets the instructions per core (default 120000,
 * the reduced-scale methodology of EXPERIMENTS.md): the shape of each
 * result, not its absolute value, is the reproduction target.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hh"
#include "common/validate.hh"
#include "dap/bandwidth_model.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "workload/compose.hh"

using namespace dapsim;
using namespace dapsim::bench;

namespace
{

/** Instructions per core: DAPSIM_BENCH_INSTR, else 120000. */
std::uint64_t
benchInstructions()
{
    const char *env = std::getenv("DAPSIM_BENCH_INSTR");
    const std::uint64_t v =
        env ? parseCount("DAPSIM_BENCH_INSTR", env) : 120'000;
    if (v == 0)
        fatal("DAPSIM_BENCH_INSTR must be positive");
    return v;
}

/** Every selected figure's simulations, de-duplicated by job id. */
class Plan
{
  public:
    explicit Plan(std::uint64_t instr) : instr_(instr) {}

    std::uint64_t instr() const { return instr_; }

    /** Queue @p mix on @p cfg under @p policy; returns its handle. */
    std::size_t
    run(const SystemConfig &cfg, PolicyKind policy, const Mix &mix)
    {
        exp::JobSpec spec;
        spec.cfg = cfg;
        spec.mix = mix;
        spec.policy = policy;
        spec.instr = instr_;
        return add(std::move(spec));
    }

    /** Queue a custom simulation. Its label is its identity, so it
     *  must name everything @p fn depends on. */
    std::size_t
    custom(std::string label, std::function<RunResult()> fn)
    {
        exp::JobSpec spec;
        spec.label = std::move(label);
        spec.custom = std::move(fn);
        return add(std::move(spec));
    }

    /** Run every unique job on @p threads workers. */
    void
    execute(std::size_t threads, const std::string &store_dir)
    {
        std::string ckpt_dir;
        if (!store_dir.empty()) {
            ckpt_dir = store_dir + "/ckpt";
            std::error_code ec;
            std::filesystem::create_directories(ckpt_dir, ec);
            if (ec)
                fatal("cannot create " + ckpt_dir + ": " + ec.message());
        }
        runner_.setWarmupFork(true, ckpt_dir);
        runner_.setProgress(true);
        results_ = runner_.run(threads);
    }

    /** The result behind @p handle; fatal() if its job failed. */
    const RunResult &
    operator[](std::size_t handle) const
    {
        const exp::JobResult &r = results_.at(handle);
        if (!r.ok)
            fatal("job '" + r.label + "' failed: " + r.error);
        return r.result;
    }

    std::size_t queued() const { return queued_; }
    std::size_t unique() const { return runner_.jobCount(); }

  private:
    std::size_t
    add(exp::JobSpec spec)
    {
        ++queued_;
        const auto [it, fresh] =
            index_.try_emplace(exp::jobId(spec), runner_.jobCount());
        if (fresh)
            runner_.add(std::move(spec));
        return it->second;
    }

    std::uint64_t instr_;
    std::size_t queued_ = 0;
    std::map<std::string, std::size_t> index_; ///< job id -> handle
    exp::SweepRunner runner_;
    std::vector<exp::JobResult> results_;
};

/** Prints one part of a figure once the plan has run. */
using Printer = std::function<void()>;

/** A table row: its label and the mix every variant runs. */
struct Row
{
    std::string label;
    Mix mix;
    /** Optional change to every variant's config for this row. */
    std::function<void(SystemConfig &)> adjust = {};
};

/** A named system: a configuration and a partitioning policy. */
struct Variant
{
    std::string name;
    SystemConfig cfg;
    PolicyKind policy;
};

/** One row's results, by variant name. */
struct RowResults
{
    std::map<std::string, const RunResult *> byVariant;
    const RunResult &
    operator()(const std::string &v) const { return *byVariant.at(v); }
};

struct Column
{
    std::string header; ///< printed verbatim; headers concatenate
    std::function<double(const RowResults &)> value;
    /** Fold into the last line by the mean; by default the geomean,
     *  or the mean when a value is not positive (deltas). */
    bool plainMean = false;
};

/** Rows x variants, printed as one table with an aggregate line. */
struct Panel
{
    std::string heading = {}; ///< printed verbatim above the table
    std::vector<Row> rows = {};
    std::vector<Variant> variants = {};
    std::vector<Column> columns = {};
    const char *total = "GMEAN"; ///< label of the aggregate line
};

struct Figure
{
    const char *id;
    const char *title;
    const char *what;
    std::vector<Panel> panels;
    /** Code of the figure's own, after its panels: queues its jobs
     *  and returns the printer of its output. */
    std::function<Printer(Plan &)> body = {};
};

double
speedup(const RunResult &test, const RunResult &base)
{
    return test.throughput() / base.throughput();
}

/** Column: throughput of variant @p test over variant @p base. */
Column
speedupOf(std::string header, std::string test, std::string base)
{
    return {std::move(header), [test, base](const RowResults &r) {
                return speedup(r(test), r(base));
            }};
}

/** Column: field or accessor @p m of variant @p variant's result. */
template <typename M>
Column
metric(std::string header, std::string variant, M m)
{
    return {std::move(header), [variant, m](const RowResults &r) {
                return std::invoke(m, r(variant));
            }};
}

double
aggregate(const std::vector<double> &v, bool plain_mean)
{
    const bool all_positive =
        std::all_of(v.begin(), v.end(), [](double x) { return x > 0.0; });
    return plain_mean || !all_positive ? mean(v) : geomean(v);
}

/** Queue every row x variant of @p panel; returns its table printer. */
Printer
queuePanel(Plan &plan, const Panel &panel)
{
    std::vector<std::vector<std::size_t>> handles; // [row][variant]
    for (const Row &row : panel.rows) {
        auto &h = handles.emplace_back();
        for (const Variant &v : panel.variants) {
            SystemConfig cfg = v.cfg;
            if (row.adjust)
                row.adjust(cfg);
            h.push_back(plan.run(cfg, v.policy, row.mix));
        }
    }
    return [&plan, &panel, handles] {
        std::fputs(panel.heading.c_str(), stdout);
        std::string header;
        for (const Column &c : panel.columns)
            header += c.header;
        std::printf("%-18s %s\n", "workload", header.c_str());

        std::vector<std::vector<double>> values(panel.columns.size());
        for (std::size_t i = 0; i < panel.rows.size(); ++i) {
            RowResults r;
            for (std::size_t v = 0; v < panel.variants.size(); ++v)
                r.byVariant[panel.variants[v].name] = &plan[handles[i][v]];
            std::printf("%-18s", panel.rows[i].label.c_str());
            for (std::size_t c = 0; c < panel.columns.size(); ++c) {
                values[c].push_back(panel.columns[c].value(r));
                std::printf(" %10.3f", values[c].back());
            }
            std::printf("\n");
        }
        std::printf("%-18s", panel.total);
        for (std::size_t c = 0; c < panel.columns.size(); ++c)
            std::printf(" %10.3f",
                        aggregate(values[c], panel.columns[c].plainMean));
        std::printf("\n");
    };
}

/** The twelve bandwidth-sensitive rate-@p copies mixes. */
std::vector<Row>
sensitiveRows(std::uint32_t copies = 8)
{
    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads())
        rows.push_back({w.name, rateMix(w, copies)});
    return rows;
}

/** Rows of workload-engine specs on the 8-core system. */
std::vector<Row>
specRows(const std::vector<std::pair<std::string, std::string>> &specs)
{
    std::vector<Row> rows;
    for (const auto &[label, spec] : specs)
        rows.push_back({label, workload::composeWorkload(spec, 8).mix});
    return rows;
}

/** The tiered sweep's rows: per (label, remote BW divisor, latency
 *  adder) scenario, a classic profile and a workload-engine spec, each
 *  with the remote tier behind the DDR tier. */
std::vector<Row>
tieredRows(const std::vector<std::tuple<const char *, double, double>>
               &scenarios)
{
    std::vector<Row> rows;
    for (const auto &[x, scale, latency_ns] : scenarios) {
        for (const auto &[label, spec] :
             {std::pair{"hpcg", "hpcg"},
              std::pair{"zipf0.99", "zipf:skew=0.99,fp=16M"}})
            rows.push_back({std::string(x) + "/" + label,
                            workload::composeWorkload(spec, 8).mix,
                            [scale, latency_ns](SystemConfig &cfg) {
                                cfg.remote.enabled = true;
                                cfg.remote.bwScaleFactor = scale;
                                cfg.remote.addLatencyNs = latency_ns;
                            }});
    }
    return rows;
}

/** DAP over baseline, one column per (header, config). */
Panel
dapSpeedups(std::vector<Row> rows,
            const std::vector<std::pair<std::string, SystemConfig>> &cfgs)
{
    Panel p;
    p.rows = std::move(rows);
    for (const auto &[header, cfg] : cfgs) {
        p.variants.push_back({header + "/base", cfg, PolicyKind::Baseline});
        p.variants.push_back({header + "/dap", cfg, PolicyKind::Dap});
        p.columns.push_back(
            speedupOf(header, header + "/dap", header + "/base"));
    }
    return p;
}

/** Each policy over the baseline on @p cfg, one column per policy;
 *  variants are named after the policies. */
Panel
policySpeedups(std::vector<Row> rows, const SystemConfig &cfg,
               const std::vector<std::pair<std::string, PolicyKind>> &pols)
{
    Panel p;
    p.rows = std::move(rows);
    p.variants.push_back({"baseline", cfg, PolicyKind::Baseline});
    for (const auto &[header, policy] : pols) {
        const std::string name = exp::policyKindName(policy);
        p.variants.push_back({name, cfg, policy});
        p.columns.push_back(speedupOf(header, name, "baseline"));
    }
    return p;
}

/** The extension sweeps' policy columns. */
const std::vector<std::pair<std::string, PolicyKind>> kRivalColumns{
    {"       dap", PolicyKind::Dap},
    {"        sbd", PolicyKind::Sbd},
    {"     batman", PolicyKind::Batman},
    {"       bear", PolicyKind::Bear},
};

template <typename... Args>
std::string
formatted(const char *fmt, Args... args)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

/** Figure 1's read kernel: hits a small resident region with
 *  probability h and streams through a huge cold region otherwise. */
class HitRateKernel final : public AccessGenerator
{
  public:
    HitRateKernel(double hit_rate, Addr base)
        : hitRate_(hit_rate), rng_(base + 17), base_(base) {}

    bool
    next(TraceRequest &out) override
    {
        if (rng_.chance(hitRate_)) {
            out.addr = base_ + (hotPtr_++ % kHotBlocks) * kBlockBytes;
        } else {
            // One block per sector, never revisited: a guaranteed
            // miss with no spatial reuse to distort the target rate.
            out.addr = base_ + (1ULL << 36) + (coldPtr_++) * 4096;
        }
        out.isWrite = false;
        out.instrGap = 4; // bandwidth kernel: demand-saturating
        return true;
    }

  private:
    static constexpr std::uint64_t kHotBlocks = 8192; // 512 KB / core
    double hitRate_;
    Rng rng_;
    Addr base_;
    std::uint64_t hotPtr_ = 0;
    std::uint64_t coldPtr_ = 0;
};

RunResult
runHitRateKernel(MsArch arch, double hit_rate)
{
    SystemConfig cfg = arch == MsArch::Sectored
                           ? presets::sectoredSystem8()
                           : presets::edramSystem8(64);
    cfg.arch = arch;
    cfg.l3.capacityBytes = 256 * kKiB; // keep the L3 out of the way
    cfg.core.instructions = 60'000;
    // The kernel measures intrinsic source bandwidths: no prefetch
    // machinery, demand-block-only fills (the paper's Figure 1 also
    // assumes no maintenance overheads).
    cfg.prefetch.enabled = false;
    cfg.sectored.footprint.coldRunLength = 1;
    cfg.edram.footprint.coldRunLength = 1;

    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(std::make_unique<HitRateKernel>(
            hit_rate, static_cast<Addr>(i) << 40));
    System sys(cfg, std::move(gens));
    sys.warmup(40'000);
    sys.run();
    return harvest(sys, "kernel");
}

/** Figure 1: simulated and modelled read bandwidth per hit rate. */
Printer
fig01Body(Plan &plan)
{
    const std::vector<double> rates{0.0, 0.25, 0.5, 0.7, 0.9, 1.0};
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (double h : rates) {
        auto kernel = [&](MsArch arch, const char *name) {
            return plan.custom(formatted("fig01/%s/hit=%g", name, h),
                               [=] { return runHitRateKernel(arch, h); });
        };
        runs.push_back({kernel(MsArch::Sectored, "sectored"),
                        kernel(MsArch::Edram, "edram")});
    }
    return [&plan, rates, runs] {
        std::printf("%-10s %12s %12s %12s %12s\n", "hit-rate",
                    "DRAM$ sim", "DRAM$ model", "eDRAM sim",
                    "eDRAM model");
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const double h = rates[i];
            std::printf(
                "%-10.0f %12.1f %12.1f %12.1f %12.1f\n", h * 100,
                plan[runs[i].first].readGBps,
                bwmodel::dramCacheReadKernelBW(h, 0.75 * 102.4,
                                               0.75 * 38.4),
                plan[runs[i].second].readGBps,
                bwmodel::edramReadKernelBW(h, 0.75 * 51.2, 0.75 * 38.4));
        }
        std::printf("\nShape check: DRAM$ saturates near the cache "
                    "bandwidth by ~70%%;\neDRAM peaks mid-range and falls "
                    "toward its read-channel bandwidth at 100%%.\n");
    };
}

/** Figure 4's footer: mean L3 MPKI of each sensitivity class. */
Printer
mpkiFooter(Plan &plan)
{
    std::vector<std::pair<bool, std::size_t>> runs;
    for (const auto &w : allWorkloads())
        runs.push_back({w.bandwidthSensitive,
                        plan.run(presets::sectoredSystem8(),
                                 PolicyKind::Baseline, rateMix(w, 8))});
    return [&plan, runs] {
        std::vector<double> sens, insens;
        for (const auto &[sensitive, h] : runs)
            (sensitive ? sens : insens).push_back(plan[h].l3Mpki);
        std::printf("\nmean L3 MPKI: bandwidth-sensitive %.1f, "
                    "insensitive %.1f (paper: 20.4 vs 11.6)\n",
                    mean(sens), mean(insens));
    };
}

/** Figure 12: weighted speedups over all 44 mixes (alone IPCs from
 *  single-core runs), sorted within each mix class. */
Printer
fig12Body(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();
    std::map<std::string, std::size_t> alone;
    for (const auto &w : allWorkloads()) {
        alone[w.name] = plan.custom(
            w.name + "/alone", [cfg, w, instr = plan.instr()] {
                RunResult r;
                r.mixName = w.name;
                r.ipc = {aloneIpc(cfg, w, instr)};
                return r;
            });
    }
    struct Run
    {
        Mix mix;
        std::size_t base, dap;
    };
    std::vector<Run> runs;
    for (const Mix &mix : allMixes())
        runs.push_back({mix, plan.run(cfg, PolicyKind::Baseline, mix),
                        plan.run(cfg, PolicyKind::Dap, mix)});

    return [&plan, alone, runs] {
        std::map<Mix::Kind, std::vector<std::pair<double, std::string>>>
            byKind; // (speedup, mix) per class
        std::vector<double> all;
        for (const Run &r : runs) {
            std::vector<double> alone_ipc;
            for (const auto &a : r.mix.apps)
                alone_ipc.push_back(plan[alone.at(a.name)].ipc[0]);
            const double s = plan[r.dap].weightedSpeedup(alone_ipc) /
                             plan[r.base].weightedSpeedup(alone_ipc);
            byKind[r.mix.kind].push_back({s, r.mix.name});
            all.push_back(s);
        }
        for (const auto &[kind, name] :
             {std::pair{Mix::Kind::Sensitive, "bandwidth-sensitive (12)"},
              std::pair{Mix::Kind::Insensitive, "bandwidth-insensitive (5)"},
              std::pair{Mix::Kind::Hetero, "heterogeneous (27)"}}) {
            auto &entries = byKind[kind];
            std::sort(entries.begin(), entries.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            std::printf("--- %s, sorted by speedup ---\n", name);
            std::vector<double> v;
            for (const auto &[s, mix] : entries) {
                std::printf("%-22s %8.3f\n", mix.c_str(), s);
                v.push_back(s);
            }
            std::printf("%-22s %8.3f\n\n", "GMEAN", geomean(v));
        }
        std::printf("overall GMEAN (44 mixes): %.3f  (paper: 1.13)\n",
                    geomean(all));
    };
}

/** Table I: geomean DAP speedup over the sensitive mixes per (W, E). */
Printer
table1Body(Plan &plan)
{
    const SystemConfig base = presets::sectoredSystem8();
    struct Point
    {
        std::string label;
        std::vector<std::pair<std::size_t, std::size_t>> runs;
    };
    std::vector<Point> points;
    auto point = [&](std::string label, Cycle window, double efficiency) {
        SystemConfig cfg = base;
        cfg.windowCycles = window;
        cfg.dap.efficiency = efficiency;
        Point &p = points.emplace_back(Point{std::move(label), {}});
        for (const Row &row : sensitiveRows())
            p.runs.push_back({plan.run(base, PolicyKind::Baseline, row.mix),
                              plan.run(cfg, PolicyKind::Dap, row.mix)});
    };
    for (Cycle w : {32u, 64u, 128u})
        point(formatted("W=%-4llu E=0.75", static_cast<unsigned long long>(w)),
              w, 0.75);
    for (double e : {0.50, 0.75, 1.00})
        point(formatted("W=64   E=%-4.2f", e), 64, e);

    return [&plan, points] {
        std::printf("%-24s %10s\n", "configuration", "speedup");
        for (const Point &p : points) {
            std::vector<double> v;
            for (const auto &[b, d] : p.runs)
                v.push_back(speedup(plan[d], plan[b]));
            std::printf("%-24s%10.3f\n", p.label.c_str(), geomean(v));
        }
    };
}

/** The ablation's credit-counter width panel (gcc.s04). */
Printer
creditWidthBody(Plan &plan)
{
    const Mix mix = rateMix(workloadByName("gcc.s04"), 8);
    const std::size_t base =
        plan.run(presets::sectoredSystem8(), PolicyKind::Baseline, mix);
    std::vector<std::pair<std::int64_t, std::size_t>> runs;
    for (std::int64_t max : {15, 63, 255, 1 << 20}) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.dap.creditMax = max;
        runs.push_back({max, plan.run(cfg, PolicyKind::Dap, mix)});
    }
    return [&plan, base, runs] {
        std::printf("\n--- credit-counter width ablation (gcc.s04) ---\n");
        for (const auto &[max, h] : runs)
            std::printf("creditMax=%-8lld speedup %.3f\n",
                        static_cast<long long>(max),
                        speedup(plan[h], plan[base]));
    };
}

std::vector<Figure>
figureTable()
{
    using enum PolicyKind;
    const SystemConfig sectored = presets::sectoredSystem8();
    const SystemConfig edram4 = presets::edramSystem8(4);
    const SystemConfig edram8 = presets::edramSystem8(8);
    std::vector<Figure> t;

    t.push_back({"fig01_bw_vs_hitrate", "Figure 1",
                 "Delivered read bandwidth vs MS$ hit ratio (read kernel)",
                 {}, fig01Body});

    // Percentage-point drops, some slightly negative: a plain mean.
    Column drop{"  missdrop%", [](const RowResults &r) {
                    return (r("4MB").msReadMissRatio -
                            r("8MB").msReadMissRatio) * 100;
                }, true};
    t.push_back({"fig02_edram_capacity", "Figure 2",
                 "512 MB (scaled 8 MB) vs 256 MB (scaled 4 MB) eDRAM cache",
                 {{.rows = sensitiveRows(),
                   .variants = {{"4MB", edram4, Baseline},
                                {"8MB", edram8, Baseline}},
                   .columns = {speedupOf("   speedup", "8MB", "4MB"), drop},
                   .total = "MEAN"}}});

    std::vector<Row> all17; // "(i)" marks the insensitive snippets
    for (const auto &w : allWorkloads())
        all17.push_back({w.name + (w.bandwidthSensitive ? "" : " (i)"),
                         rateMix(w, 8)});
    SystemConfig fast = sectored;
    fast.sectored.array = dapsim::presets::hbm_205();
    t.push_back({"fig04_bw_sensitivity", "Figure 4",
                 "Speedup from doubling MS$ bandwidth (102.4 -> 204.8 "
                 "GB/s) + L3 MPKI",
                 {{.rows = all17,
                   .variants = {{"base", sectored, Baseline},
                                {"fast", fast, Baseline}},
                   .columns = {speedupOf("   speedup", "fast", "base"),
                               metric("     L3MPKI", "base",
                                      &RunResult::l3Mpki)}}},
                 mpkiFooter});

    t.push_back(
        {"fig05_tag_cache", "Figure 5",
         "Effect of the 32K-entry (scaled) SRAM tag cache",
         {{.rows = sensitiveRows(),
           .variants = {{"no-tc", presets::sectoredSystemNoTagCache8(),
                         Baseline},
                        {"tc", sectored, Baseline}},
           .columns = {speedupOf("   speedup", "tc", "no-tc"),
                       metric("  tc-missratio", "tc",
                              &RunResult::tagCacheMissRatio)}}}});

    Panel fig06 =
        policySpeedups(sensitiveRows(), sectored, {{"   speedup", Dap}});
    fig06.columns.push_back(
        {"  norm-l3-read-miss-lat", [](const RowResults &r) {
             return r("dap").avgL3ReadMissLatency /
                    std::max(1.0, r("baseline").avgL3ReadMissLatency);
         }});
    t.push_back({"fig06_dap_sectored", "Figure 6",
                 "DAP vs optimized baseline (sectored DRAM cache, rate-8)",
                 {fig06}});

    t.push_back(
        {"fig07_dap_decisions", "Figure 7",
         "DAP decision mix: FWB / WB / IFRM / SFRM",
         {{.rows = sensitiveRows(),
           .variants = {{"dap", sectored, Dap}},
           .columns = {metric("       FWB", "dap", &RunResult::fwbFraction),
                       metric("         WB", "dap", &RunResult::wbFraction),
                       metric("       IFRM", "dap",
                              &RunResult::ifrmFraction),
                       metric("       SFRM", "dap",
                              &RunResult::sfrmFraction)},
           .total = "MEAN"}}});

    SystemConfig fwbwb = sectored;
    fwbwb.dap.enableIfrm = false;
    fwbwb.dap.enableSfrm = false;
    t.push_back(
        {"fig08_cas_fraction", "Figure 8",
         "Main-memory CAS fraction and MS$ hit ratio under DAP",
         {{.heading = formatted("optimal MM CAS fraction: %.2f\n\n",
                                bwmodel::optimalMemoryFraction(102.4, 38.4)),
           .rows = sensitiveRows(),
           .variants = {{"base", sectored, Baseline},
                        {"fwb+wb", fwbwb, Dap},
                        {"dap", sectored, Dap}},
           .columns = {metric("  casB", "base", &RunResult::mmCasFraction),
                       metric("      casDAP", "dap",
                              &RunResult::mmCasFraction),
                       metric("     hitB", "base", &RunResult::msHitRatio),
                       metric("   hitFWB+WB", "fwb+wb",
                              &RunResult::msHitRatio),
                       metric("   hitDAP", "dap", &RunResult::msHitRatio)},
           .total = "MEAN"}}});

    std::vector<std::pair<std::string, SystemConfig>> memories;
    for (const auto &[header, mem] :
         {std::pair{"   ddr4-2400", dapsim::presets::ddr4_2400()},
          std::pair{"  no-io", dapsim::presets::ddr4_2400_no_io()},
          std::pair{"      lpddr4", dapsim::presets::lpddr4_2400()},
          std::pair{"     ddr4-3200", dapsim::presets::ddr4_3200()}}) {
        memories.push_back({header, sectored});
        memories.back().second.mainMemory = mem;
    }
    t.push_back({"fig09_mm_technology", "Figure 9",
                 "DAP speedup vs main-memory technology",
                 {dapSpeedups(sensitiveRows(), memories)}});

    std::vector<std::pair<std::string, SystemConfig>> capacities, arrays;
    for (const auto &[header, mb] :
         {std::pair{"      32MB", 32u}, std::pair{"       64MB", 64u},
          std::pair{"      128MB", 128u}}) {
        capacities.push_back({header, sectored});
        capacities.back().second.sectored.capacityBytes = mb * kMiB;
    }
    for (const auto &[header, array] :
         {std::pair{"     102.4", dapsim::presets::hbm_102()},
          std::pair{"      128.0", dapsim::presets::hbm_128()},
          std::pair{"      204.8", dapsim::presets::hbm_205()}}) {
        arrays.push_back({header, sectored});
        arrays.back().second.sectored.array = array;
    }
    Panel capacity = dapSpeedups(sensitiveRows(), capacities);
    capacity.heading = "--- capacity sweep (bandwidth 102.4 GB/s) ---\n";
    Panel bandwidth = dapSpeedups(sensitiveRows(), arrays);
    bandwidth.heading = "\n--- bandwidth sweep (capacity 64 MB scaled) ---\n";
    t.push_back({"fig10_cache_scaling", "Figure 10",
                 "DAP speedup vs MS$ capacity and bandwidth",
                 {capacity, bandwidth}});

    t.push_back({"fig11_related", "Figure 11",
                 "SBD / SBD-WT / BATMAN / DAP vs baseline",
                 {policySpeedups(sensitiveRows(), sectored,
                                 {{"      SBD", Sbd},
                                  {"     SBD-WT", SbdWt},
                                  {"     BATMAN", Batman},
                                  {"        DAP", Dap}})}});

    t.push_back({"fig12_all_workloads", "Figure 12",
                 "DAP speedup over all 44 multi-programmed mixes", {},
                 fig12Body});

    t.push_back(
        {"fig13_16core", "Figure 13", "DAP on the sixteen-core configuration",
         {dapSpeedups(sensitiveRows(16),
                      {{"   speedup", presets::sectoredSystem16()}})}});

    // The direct-mapped Alloy cache has no footprint prefetcher to
    // compensate for conflict misses, so matching the paper's
    // footprint:capacity regime (~0.5 for its SPEC snippets on 4 GB)
    // requires halving the scaled footprints; otherwise the array
    // never saturates and DAP correctly stands down.
    std::vector<Row> halved;
    for (auto w : bandwidthSensitiveWorkloads()) {
        w.params.footprintBytes /= 2;
        halved.push_back({w.name, rateMix(w, 8)});
    }
    Panel alloy = policySpeedups(halved, presets::alloySystem8(),
                                 {{"    BEAR", Bear}, {"        DAP", Dap}});
    alloy.heading = formatted(
        "optimal MM CAS fraction (TAD-derated): %.2f\n\n",
        bwmodel::optimalMemoryFraction(102.4 * 2.0 / 3.0, 38.4));
    for (const auto &[header, variant] :
         {std::pair{"       casB", "baseline"},
          std::pair{"    casBEAR", "bear"}, std::pair{"     casDAP", "dap"}})
        alloy.columns.push_back(
            metric(header, variant, &RunResult::mmCasFraction));
    t.push_back({"fig14_alloy", "Figure 14", "Alloy cache: BEAR vs Alloy+DAP",
                 {alloy}});

    auto hitGain = [](std::string header, std::string variant) {
        return Column{std::move(header), [variant](const RowResults &r) {
                          return r(variant).msHitRatio -
                                 r("base256").msHitRatio;
                      }};
    };
    t.push_back(
        {"fig15_edram", "Figure 15", "eDRAM cache: DAP vs capacity doubling",
         {{.rows = sensitiveRows(),
           .variants = {{"base256", edram4, Baseline},
                        {"dap256", edram4, Dap},
                        {"base512", edram8, Baseline},
                        {"dap512", edram8, Dap}},
           .columns = {speedupOf("  dap256", "dap256", "base256"),
                       speedupOf("     base512", "base512", "base256"),
                       speedupOf("     dap512", "dap512", "base256"),
                       hitGain("   dHit256", "dap256"),
                       hitGain("  dHit512d", "dap512")}}}});

    t.push_back({"table1_sensitivity", "Table I",
                 "DAP speedup sensitivity to window size W and efficiency E",
                 {}, table1Body});

    Panel steps = policySpeedups(sensitiveRows(), sectored, {});
    for (const auto &[header, wb, ifrm, sfrm] :
         {std::tuple{"     FWB", false, false, false},
          std::tuple{"        +WB", true, false, false},
          std::tuple{"      +IFRM", true, true, false},
          std::tuple{"  +SFRM(all)", true, true, true}}) {
        SystemConfig cfg = sectored;
        cfg.dap.enableFwb = true;
        cfg.dap.enableWb = wb;
        cfg.dap.enableIfrm = ifrm;
        cfg.dap.enableSfrm = sfrm;
        steps.variants.push_back({header, cfg, Dap});
        steps.columns.push_back(speedupOf(header, header, "baseline"));
    }
    t.push_back({"ablation_dap", "Ablation",
                 "DAP techniques enabled incrementally", {steps},
                 creditWidthBody});

    // Single-tenant Zipf skew x phase drift, then tenant count with
    // adversarial co-runners composed by the mix engine.
    std::vector<std::pair<std::string, std::string>> skews;
    for (const char *drift : {"", "rotate", "jump"}) {
        const bool still = *drift == '\0';
        for (const char *z : {"0.7", "0.99", "1.3"})
            skews.push_back(
                {formatted("skew%s%s%s", z, still ? "" : "+", drift),
                 formatted("zipf:skew=%s,fp=16M%s%s%s", z,
                           still ? "" : ",drift=", drift,
                           still ? "" : ",period=50000")});
    }
    Panel skew = policySpeedups(specRows(skews), sectored, kRivalColumns);
    skew.heading =
        "\n-- Zipf skew x phase drift (speedup over baseline) --\n";
    Panel tenants = policySpeedups(
        specRows({
            {"tenants1", "zipf:skew=0.99,fp=16M"},
            {"tenants2", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,t0.cores=4,"
                         "t1=flood,t1.fp=8M,t1.mpki=40"},
            {"tenants4", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,t0.cores=2,"
                         "t1=flood,t1.fp=8M,t1.mpki=40,t1.cores=2,"
                         "t2=chase,t2.fp=8M,t2.cores=2,"
                         "t3=wburst,t3.fp=8M,t3.cores=2"},
            {"tenants8", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,"
                         "t1=zipf,t1.skew=1.2,t1.fp=8M,t1.drift=jump,"
                         "t1.period=50000,"
                         "t2=hotspot,t2.hot=0.05,t2.fp=8M,"
                         "t3=flood,t3.fp=8M,t3.mpki=40,"
                         "t4=chase,t4.fp=8M,"
                         "t5=wburst,t5.fp=8M,"
                         "t6=sparse,t6.fp=8M,"
                         "t7=wburst,t7.fp=4M,t7.burst=32,t7.duty=0.6"},
        }),
        sectored, kRivalColumns);
    tenants.heading = "\n-- tenant count with adversarial co-runners --\n";
    t.push_back({"fig_workload_stress", "Workload-engine stress sweep",
                 "DAP vs SBD/BATMAN/BEAR under Zipf skew, phase drift and "
                 "adversarial multi-tenant mixes (sectored DRAM cache, "
                 "8 cores)",
                 {skew, tenants}});

    Panel remoteBw = policySpeedups(
        tieredRows({{"ddr/2", 2, 120}, {"ddr/4", 4, 120},
                    {"ddr/8", 8, 120}, {"ddr/16", 16, 120}}),
        sectored, kRivalColumns);
    remoteBw.heading = "\n-- remote bandwidth sweep, 120 ns adder (speedup "
                       "over baseline) --\n";
    Panel remoteLat = policySpeedups(
        tieredRows({{"60ns", 4, 60}, {"120ns", 4, 120},
                    {"240ns", 4, 240}, {"480ns", 4, 480}}),
        sectored, kRivalColumns);
    remoteLat.heading = "\n-- remote latency sweep, DDR/4 bandwidth --\n";
    t.push_back({"fig_tiered_sweep",
                 "Tiered-memory sweep (remote third source)",
                 "DAP-n vs SBD/BATMAN/BEAR with a remote bandwidth tier: "
                 "remote-bandwidth and remote-latency sweeps (sectored DRAM "
                 "cache, 8 cores)",
                 {remoteBw, remoteLat}});
    return t;
}

[[noreturn]] void
usage(const std::vector<Figure> &table)
{
    std::fprintf(stderr,
                 "usage: paper_figures [--jobs N] [--store DIR] "
                 "all|<figure>...\n"
                 "  --jobs N     worker threads (default 1)\n"
                 "  --store DIR  keep warm-up checkpoints in DIR/ckpt\n"
                 "figures:\n");
    for (const Figure &f : table)
        std::fprintf(stderr, "  %-22s %s\n", f.id, f.title);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Figure> table = figureTable();
    std::size_t jobs = 1;
    std::string store;
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                usage(table);
            return argv[i];
        };
        if (a == "--jobs") {
            jobs = parseCount("--jobs", value());
            if (jobs == 0)
                fatal("--jobs must be positive");
        } else if (a == "--store") {
            store = value();
        } else if (a == "all") {
            for (const Figure &f : table)
                selected.push_back(&f);
        } else if (a.starts_with("-")) {
            usage(table);
        } else {
            const auto it =
                std::find_if(table.begin(), table.end(),
                             [&](const Figure &f) { return a == f.id; });
            if (it == table.end())
                fatal("unknown figure '" + a + "' (run without arguments "
                      "for the list)");
            selected.push_back(&*it);
        }
    }
    if (selected.empty())
        usage(table);

    Plan plan(benchInstructions());
    std::vector<Printer> printers;
    for (const Figure *f : selected) {
        printers.push_back([f] { banner(f->title, f->what); });
        for (const Panel &p : f->panels)
            printers.push_back(queuePanel(plan, p));
        if (f->body)
            printers.push_back(f->body(plan));
    }
    plan.execute(jobs, store);
    std::fprintf(stderr, "paper_figures: %zu jobs queued, %zu unique\n",
                 plan.queued(), plan.unique());
    for (const Printer &print : printers)
        print();
    return 0;
}
