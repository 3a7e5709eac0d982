#include "sim/metrics.hh"

#include <cmath>

#include "common/log.hh"
#include "cache/tag_cache.hh"
#include "sim/system.hh"

namespace dapsim
{

double
RunResult::throughput() const
{
    double s = 0.0;
    for (double v : ipc)
        s += v;
    return s;
}

double
RunResult::weightedSpeedup(const std::vector<double> &alone_ipc) const
{
    if (alone_ipc.size() != ipc.size())
        fatal("weightedSpeedup: size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < ipc.size(); ++i)
        s += ipc[i] / alone_ipc[i];
    return s;
}

double
RunResult::fwbFraction() const
{
    const auto t = fwb + wb + ifrm + sfrm;
    return t ? static_cast<double>(fwb) / static_cast<double>(t) : 0.0;
}

double
RunResult::wbFraction() const
{
    const auto t = fwb + wb + ifrm + sfrm;
    return t ? static_cast<double>(wb) / static_cast<double>(t) : 0.0;
}

double
RunResult::ifrmFraction() const
{
    const auto t = fwb + wb + ifrm + sfrm;
    return t ? static_cast<double>(ifrm) / static_cast<double>(t) : 0.0;
}

double
RunResult::sfrmFraction() const
{
    const auto t = fwb + wb + ifrm + sfrm;
    return t ? static_cast<double>(sfrm) / static_cast<double>(t) : 0.0;
}

RunResult
harvest(System &sys, const std::string &mix_name)
{
    RunResult r;
    r.mixName = mix_name;
    r.policyName = sys.policy().name();

    Tick last_finish = 0;
    std::uint64_t reads = 0;
    std::uint64_t total_instr = 0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        RobCore &c = sys.core(i);
        r.ipc.push_back(c.finished() ? c.finishIpc()
                                     : c.ipcAt(sys.eventQueue().now()));
        last_finish = std::max(last_finish, c.finishTick());
        reads += c.readsIssued.value();
        total_instr += c.retiredInstructions();
    }
    if (last_finish == 0)
        last_finish = sys.eventQueue().now();
    r.cycles = last_finish / kCpuPeriodPs;

    MemSideCache *ms = sys.msCache();
    r.msHitRatio = ms->hitRatio();
    r.msReadMissRatio = ms->readMissRatio();
    r.mmCasFraction = ms->mainMemoryCasFraction();
    r.avgL3ReadMissLatency = sys.l3().meanReadMissLatency();
    if (total_instr > 0)
        r.l3Mpki = static_cast<double>(sys.l3().misses.value()) *
                   1000.0 / static_cast<double>(total_instr);

    if (const TagCache *tc = ms->tagCacheStats())
        r.tagCacheMissRatio = tc->missRatio();

    const double seconds = static_cast<double>(last_finish) /
                           static_cast<double>(kPsPerSecond);
    if (seconds > 0.0)
        r.readGBps = static_cast<double>(reads) * kBlockBytes /
                     seconds / 1e9;

    if (DapPolicy *dap = sys.dapPolicy()) {
        r.fwb = dap->fwbApplied.value();
        r.wb = dap->wbApplied.value();
        r.ifrm = dap->ifrmApplied.value();
        r.sfrm = dap->sfrmApplied.value();
    }
    return r;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal("geomean: non-positive value");
        s += std::log(v);
    }
    return std::exp(s / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

} // namespace dapsim
