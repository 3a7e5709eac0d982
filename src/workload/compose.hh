/**
 * @file
 * MixComposer — turn a workload spec (or classic profile name) into a
 * runnable multi-programmed Mix.
 *
 * This is the top half of the workload engine: it knows about the
 * classic profile roster (trace/workloads.hh) so `mix:` tenants can
 * name either an engine kind ("zipf") or a profile ("mcf"), and it is
 * therefore built into the trace library rather than the lower
 * dapsim_workload library (see src/CMakeLists.txt).
 *
 * A composed Mix keeps the one-generator-per-core architecture: each
 * core's WorkloadProfile carries either a classic parameter block or a
 * per-tenant spec string, and cores keep their private 1 TB address
 * slices. Checkpoint state-hashing covers the spec string (see
 * ckpt::describeMix), so warmup-fork grouping stays correct.
 */

#ifndef DAPSIM_WORKLOAD_COMPOSE_HH
#define DAPSIM_WORKLOAD_COMPOSE_HH

#include <string>
#include <vector>

#include "trace/mixes.hh"

namespace dapsim::workload
{

/** A composed mix plus the tenant each core belongs to. */
struct ComposedMix
{
    Mix mix;
    /** Tenant display name per core ("t0", or tN.name=...). */
    std::vector<std::string> coreTenants;
};

/**
 * Compose @p workload onto @p cores cores.
 *
 *  - classic profile name ("mcf")      -> rate-N mix of that profile
 *  - engine spec ("zipf:skew=0.99")    -> every core runs the spec
 *  - mix spec ("mix:t0=zipf,t1=mcf")   -> tenants mapped to core
 *    ranges in declaration order; explicit tN.cores counts are
 *    honoured, remaining cores split evenly over the rest
 *
 * fatal() on unknown names, malformed specs, or core-count
 * mismatches — before any simulation starts.
 */
ComposedMix composeWorkload(const std::string &workload,
                            std::uint32_t cores);

/** Print the classic profiles and the engine spec kinds with their
 *  keys to stdout (the CLIs' `--list` table). */
void printCatalog();

} // namespace dapsim::workload

#endif // DAPSIM_WORKLOAD_COMPOSE_HH
