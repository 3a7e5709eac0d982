/**
 * @file
 * Staged functional warm-up (DESIGN.md §15).
 *
 * The serial warm-up loop pulls one record per core, round-robin, and
 * pushes it through the L3 directory and then the MS$ controller's
 * warm path. Those three structures share no state, so the loop splits
 * into a pipeline over fixed batches of records:
 *
 *   generators (worker) -> L3 directory (caller) -> MS$ (worker)
 *
 * Each structure sees exactly the input sequence the serial loop gives
 * it — every generator its next() calls in round-robin order, the L3
 * every record in that order, the MS$ every reported touch in that
 * order — so the warm state is bit-identical to the serial loop.
 */

#ifndef DAPSIM_SIM_WARM_PIPELINE_HH
#define DAPSIM_SIM_WARM_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "memside/ms_cache.hh"
#include "sim/l3_cache.hh"
#include "trace/access_gen.hh"

namespace dapsim::warm
{

/** Generator rounds (one next() per core) per pipeline batch. */
inline constexpr std::uint64_t kBatchRounds = 1024;

/** Batches in flight between the generator and the MS$ stage. */
inline constexpr std::uint32_t kRingSlots = 4;

/**
 * Pull @p rounds rounds of records from @p gens (each round calls every
 * generator's next() once, in order; records it declines are skipped),
 * apply each record to @p l3's warm path and the MS$ touches that
 * reports to @p ms's warm path.
 *
 * The generator and MS$ stages run on two threads created for this
 * call and joined before it returns; the L3 stage runs on the calling
 * thread. An exception thrown by any stage stops all three and is
 * rethrown here once every thread has been joined.
 */
void pipelinedWarmup(const std::vector<AccessGeneratorPtr> &gens,
                     L3Cache &l3, MemSideCache &ms, std::uint64_t rounds);

} // namespace dapsim::warm

#endif // DAPSIM_SIM_WARM_PIPELINE_HH
