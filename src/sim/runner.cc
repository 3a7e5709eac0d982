#include "sim/runner.hh"

#include "common/log.hh"
#include "sim/fidelity_runner.hh"

namespace dapsim
{

std::uint64_t
resolveWarmCount(const SystemConfig &cfg)
{
    std::uint64_t warm = cfg.warmupAccessesPerCore;
    if (warm == 0)
        warm = 2 * (cfg.msCapacityBytes() / kBlockBytes) / cfg.numCores;
    return warm;
}

std::vector<AccessGeneratorPtr>
mixGenerators(const Mix &mix, std::uint64_t seed_salt)
{
    std::vector<AccessGeneratorPtr> gens;
    gens.reserve(mix.apps.size());
    for (std::uint32_t i = 0; i < mix.apps.size(); ++i)
        gens.push_back(makeGenerator(mix.apps[i], i, seed_salt));
    return gens;
}

RunResult
runMix(SystemConfig cfg, const Mix &mix, std::uint64_t instr_per_core,
       std::uint64_t seed_salt)
{
    if (mix.apps.size() != cfg.numCores)
        fatal("runMix: mix width != core count");
    cfg.core.instructions = instr_per_core;

    System sys(cfg, mixGenerators(mix, seed_salt));
    sys.warmup(resolveWarmCount(cfg));
    return runFidelityOn(sys, mix.name, instr_per_core);
}

double
aloneIpc(SystemConfig cfg, const WorkloadProfile &profile,
         std::uint64_t instr, std::uint64_t seed_salt)
{
    cfg.numCores = 1;
    cfg.core.instructions = instr;

    std::vector<AccessGeneratorPtr> gens;
    gens.push_back(makeGenerator(profile, 0, seed_salt));

    System sys(cfg, std::move(gens));
    sys.warmup(resolveWarmCount(cfg));
    sys.run();
    return sys.core(0).finished()
               ? sys.core(0).finishIpc()
               : sys.core(0).ipcAt(sys.eventQueue().now());
}

} // namespace dapsim
