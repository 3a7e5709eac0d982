#include "expd/grid.hh"

#include <stdexcept>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/validate.hh"
#include "sim/presets.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

namespace dapsim::expd
{

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    if (out.empty())
        fatal("empty list argument");
    return out;
}

std::vector<std::string>
splitWorkloadList(const std::string &s)
{
    // Workload-engine specs contain commas themselves
    // (zipf:skew=0.99,fp=64M): after the plain comma split, any token
    // that is a key=value continuation — '=' before any ':' — folds
    // back into the preceding element.
    std::vector<std::string> out;
    for (const auto &tok : splitList(s)) {
        const std::size_t eq = tok.find('=');
        const std::size_t colon = tok.find(':');
        const bool continuation =
            eq != std::string::npos &&
            (colon == std::string::npos || eq < colon);
        if (continuation && !out.empty())
            out.back() += "," + tok;
        else if (continuation)
            fatal("--workload: '" + tok +
                  "' continues a spec but no spec precedes it");
        else
            out.push_back(tok);
    }
    return out;
}

bool
parseGridFlag(GridOptions &opt, const std::string &flag,
              const std::function<std::string()> &value)
{
    if (flag == "--arch")
        opt.archs = splitList(value());
    else if (flag == "--policy")
        opt.policies = splitList(value());
    else if (flag == "--workload")
        opt.workloads = splitWorkloadList(value());
    else if (flag == "--capacity-mb") {
        opt.capacitiesMb.clear();
        for (const auto &c : splitList(value()))
            opt.capacitiesMb.push_back(parseCount(flag, c));
    } else if (flag == "--cores")
        opt.cores = parseCount<std::uint32_t>(flag, value());
    else if (flag == "--instr")
        opt.instr = parseCount(flag, value());
    else if (flag == "--seed")
        opt.seed = parseCount(flag, value());
    else if (flag == "--warmup")
        opt.warmup = parseCount(flag, value());
    else if (flag == "--fidelity")
        opt.fidelity = value();
    else if (flag == "--fidelity-detail")
        opt.fidelityDetail = parseCount(flag, value());
    else if (flag == "--fidelity-period")
        opt.fidelityPeriod = parseCount(flag, value());
    else if (flag == "--remote")
        opt.remote = true;
    else if (flag == "--remote-scale")
        opt.remoteScale = parseReal(flag, value());
    else if (flag == "--remote-latency-ns")
        opt.remoteLatencyNs = parseReal(flag, value());
    else if (flag == "--remote-outstanding")
        opt.remoteOutstanding = parseCount<std::uint32_t>(flag, value());
    else
        return false;
    return true;
}

SystemConfig
archConfig(const std::string &arch, std::uint64_t capacity_mb)
{
    SystemConfig cfg;
    if (arch == "sectored") {
        cfg = presets::sectoredSystem8();
        if (capacity_mb)
            cfg.sectored.capacityBytes = capacity_mb * kMiB;
    } else if (arch == "alloy") {
        cfg = presets::alloySystem8();
        if (capacity_mb)
            cfg.alloy.capacityBytes = capacity_mb * kMiB;
    } else if (arch == "edram") {
        cfg = presets::edramSystem8(capacity_mb ? capacity_mb : 4);
    } else {
        fatal("unknown arch: " + arch);
    }
    return cfg;
}

namespace
{

/** A grid workload: a resolved profile, a composed workload-engine
 *  spec, or an unknown name kept so its grid points surface as error
 *  records instead of killing the whole sweep. */
struct GridWorkload
{
    WorkloadProfile profile;
    bool known = true;
    bool isSpec = false;
    workload::ComposedMix composed; ///< when isSpec
};

std::vector<GridWorkload>
resolveWorkloads(const std::vector<std::string> &names,
                 std::uint32_t cores)
{
    std::vector<GridWorkload> out;
    auto push = [&out](const WorkloadProfile &w) {
        out.push_back({w, true, false, {}});
    };
    for (const auto &name : names) {
        if (name == "all") {
            for (const auto &w : allWorkloads())
                push(w);
        } else if (name == "sensitive") {
            for (const auto &w : bandwidthSensitiveWorkloads())
                push(w);
        } else if (name == "insensitive") {
            for (const auto &w : bandwidthInsensitiveWorkloads())
                push(w);
        } else {
            bool found = false;
            for (const auto &w : allWorkloads()) {
                if (w.name == name) {
                    push(w);
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            if (workload::looksLikeSpec(name)) {
                // Malformed specs fatal() here, before any job runs.
                GridWorkload gw;
                gw.known = true;
                gw.isSpec = true;
                gw.composed = workload::composeWorkload(name, cores);
                out.push_back(std::move(gw));
            } else {
                WorkloadProfile unknown;
                unknown.name = name;
                out.push_back({unknown, false, false, {}});
            }
        }
    }
    return out;
}

} // namespace

std::vector<ExpandedJob>
expandGrid(const GridOptions &opt)
{
    const std::vector<GridWorkload> workloads =
        resolveWorkloads(opt.workloads, opt.cores);

    std::vector<ExpandedJob> out;
    for (const auto &arch : opt.archs) {
        for (std::uint64_t cap : opt.capacitiesMb) {
            SystemConfig cfg = archConfig(arch, cap);
            cfg.numCores = opt.cores;
            if (opt.warmup)
                cfg.warmupAccessesPerCore = opt.warmup;
            if (opt.remote) {
                cfg.remote.enabled = true;
                cfg.remote.bwScaleFactor = opt.remoteScale;
                cfg.remote.addLatencyNs = opt.remoteLatencyNs;
                cfg.remote.maxOutstanding = opt.remoteOutstanding;
            }
            if (!fidelityModeFromName(opt.fidelity,
                                      cfg.fidelity.mode))
                fatal("unknown fidelity: " + opt.fidelity);
            if (opt.fidelityDetail)
                cfg.fidelity.detailInstr = opt.fidelityDetail;
            if (opt.fidelityPeriod)
                cfg.fidelity.periodInstr = opt.fidelityPeriod;
            for (const auto &gw : workloads) {
                for (const auto &policy : opt.policies) {
                    exp::JobSpec spec;
                    spec.cfg = cfg;
                    spec.policy = exp::policyKindFromName(policy);
                    spec.instr = opt.instr;
                    spec.seedSalt = opt.seed;
                    spec.knobs["arch"] = arch;
                    if (!cfg.fidelity.exact())
                        spec.knobs["fidelity"] = opt.fidelity;
                    if (cap)
                        spec.knobs["capacity_mb"] =
                            std::to_string(cap);
                    if (gw.isSpec) {
                        spec.mix = gw.composed.mix;
                        spec.cfg.obs.coreTenants =
                            gw.composed.coreTenants;
                    } else if (gw.known) {
                        spec.mix = rateMix(gw.profile, opt.cores);
                    } else {
                        spec.mix.name = gw.profile.name;
                        spec.label = gw.profile.name + "/" + policy;
                        const std::string name = gw.profile.name;
                        spec.custom = [name]() -> RunResult {
                            throw std::invalid_argument(
                                "unknown workload: " + name);
                        };
                    }
                    ExpandedJob job;
                    job.id = exp::jobId(spec);
                    job.group = exp::groupKey(spec);
                    job.spec = std::move(spec);
                    out.push_back(std::move(job));
                }
            }
        }
    }
    return out;
}

std::string
encodeGridOptions(const GridOptions &opt)
{
    json::JsonWriter w;
    w.beginObject();
    auto strings = [&w](const char *key,
                        const std::vector<std::string> &v) {
        w.key(key).beginArray();
        for (const auto &s : v)
            w.value(s);
        w.endArray();
    };
    strings("archs", opt.archs);
    strings("policies", opt.policies);
    strings("workloads", opt.workloads);
    w.key("capacities_mb").beginArray();
    for (std::uint64_t c : opt.capacitiesMb)
        w.value(c);
    w.endArray();
    w.key("cores").value(opt.cores);
    w.key("instr").value(opt.instr);
    w.key("seed").value(opt.seed);
    w.key("warmup").value(opt.warmup);
    w.key("remote").value(opt.remote);
    w.key("remote_scale").value(opt.remoteScale);
    w.key("remote_latency_ns").value(opt.remoteLatencyNs);
    w.key("remote_outstanding").value(opt.remoteOutstanding);
    w.key("fidelity").value(opt.fidelity);
    w.key("fidelity_detail").value(opt.fidelityDetail);
    w.key("fidelity_period").value(opt.fidelityPeriod);
    w.endObject();
    return w.str();
}

GridOptions
decodeGridOptions(const json::Value &v)
{
    GridOptions opt;
    auto strings = [&v](const char *key) {
        std::vector<std::string> out;
        for (const auto &e : v.at(key).arr)
            out.push_back(e.asString());
        return out;
    };
    opt.archs = strings("archs");
    opt.policies = strings("policies");
    opt.workloads = strings("workloads");
    opt.capacitiesMb.clear();
    for (const auto &e : v.at("capacities_mb").arr)
        opt.capacitiesMb.push_back(e.asU64());
    opt.cores = static_cast<std::uint32_t>(v.at("cores").asU64());
    opt.instr = v.at("instr").asU64();
    opt.seed = v.at("seed").asU64();
    opt.warmup = v.at("warmup").asU64();
    opt.remote = v.at("remote").asBool();
    opt.remoteScale = v.at("remote_scale").asDouble();
    opt.remoteLatencyNs = v.at("remote_latency_ns").asDouble();
    opt.remoteOutstanding = static_cast<std::uint32_t>(
        v.at("remote_outstanding").asU64());
    // Fidelity keys postdate dapsim.expq.v1 manifests; stores written
    // before them decode with the exact-mode defaults.
    if (const json::Value *f = v.find("fidelity"))
        opt.fidelity = f->asString();
    if (const json::Value *f = v.find("fidelity_detail"))
        opt.fidelityDetail = f->asU64();
    if (const json::Value *f = v.find("fidelity_period"))
        opt.fidelityPeriod = f->asU64();
    return opt;
}

} // namespace dapsim::expd
