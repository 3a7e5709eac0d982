/**
 * @file
 * High-level experiment runner: build a System for a mix, run it to
 * completion, harvest results. This is the API the benches and
 * examples drive.
 */

#ifndef DAPSIM_SIM_RUNNER_HH
#define DAPSIM_SIM_RUNNER_HH

#include <cstdint>
#include <vector>

#include "sim/metrics.hh"
#include "sim/system.hh"
#include "trace/mixes.hh"

namespace dapsim
{

/** Warm-up accesses per core for @p cfg: its warmupAccessesPerCore,
 *  or, when that is 0, twice the MS$ block count over the cores. */
std::uint64_t resolveWarmCount(const SystemConfig &cfg);

/** One access generator per core of @p mix, seeded with @p seed_salt. */
std::vector<AccessGeneratorPtr> mixGenerators(const Mix &mix,
                                              std::uint64_t seed_salt);

/** Run @p mix on @p cfg, each core retiring @p instr_per_core. */
RunResult runMix(SystemConfig cfg, const Mix &mix,
                 std::uint64_t instr_per_core,
                 std::uint64_t seed_salt = 0);

/** IPC of @p profile running alone (one active core) under @p cfg. */
double aloneIpc(SystemConfig cfg, const WorkloadProfile &profile,
                std::uint64_t instr, std::uint64_t seed_salt = 0);

} // namespace dapsim

#endif // DAPSIM_SIM_RUNNER_HH
