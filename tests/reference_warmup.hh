/**
 * @file
 * Reference warm-up loops: the serial functional warm-up and
 * fast-forward pull.
 *
 * These are System::warmup and System::fastForward as they ran before
 * warm-up became a three-stage pipeline (sim/warm_pipeline.hh), frozen
 * as the behavioural oracle for it. The differential test
 * (test_warmup_pipeline.cc) runs them on one System and the production
 * entry points on an identically built one, and compares checkpoint
 * bytes and tallies.
 *
 * Do not optimise or otherwise modify these loops: their value is that
 * they fix the contract — one next() per core per round, in core
 * order, whether or not a generator still yields records; each record
 * through the L3 and then, inline, the dirty victim's MS$ write before
 * the record's MS$ read — in the most obviously correct way.
 */

#ifndef DAPSIM_TESTS_REFERENCE_WARMUP_HH
#define DAPSIM_TESTS_REFERENCE_WARMUP_HH

#include <cstdint>
#include <vector>

#include "sim/system.hh"

namespace dapsim::reference
{

/** One record through the L3 warm path and the MS$ touches it reports;
 *  @return whether the record's MS$ read hit. */
inline bool
warmRecord(L3Cache &l3, MemSideCache &ms, const TraceRequest &req,
           L3Cache::WarmOutcome *outcome = nullptr)
{
    const L3Cache::WarmOutcome o = l3.warmTouch(req.addr, req.isWrite);
    if (outcome != nullptr)
        *outcome = o;
    if (o.msWriteback)
        ms.warmTouch(o.victim, true);
    bool hit = false;
    if (o.msRead)
        hit = ms.warmTouch(req.addr, false);
    return hit;
}

/** The serial System::warmup over @p gens (one per core, in order). */
inline void
warmup(const std::vector<AccessGenerator *> &gens, L3Cache &l3,
       MemSideCache &ms, std::uint64_t accesses_per_core)
{
    TraceRequest req;
    for (std::uint64_t n = 0; n < accesses_per_core; ++n) {
        for (AccessGenerator *g : gens) {
            if (g->next(req))
                warmRecord(l3, ms, req);
        }
    }
    // Warm-up must not leak into the reported predictor statistics.
    ms.resetWarmupStats();
}

/** The serial System::fastForward over @p gens. */
inline System::FastForwardPull
fastForward(const std::vector<AccessGenerator *> &gens, L3Cache &l3,
            MemSideCache &ms, std::uint64_t instr_per_core)
{
    System::FastForwardPull out;
    out.instrPerCore.assign(gens.size(), 0);
    TraceRequest req;
    for (std::size_t i = 0; i < gens.size(); ++i) {
        std::uint64_t done = 0;
        while (done < instr_per_core && gens[i]->next(req)) {
            done += req.instrGap + 1;
            if (req.isWrite)
                ++out.writes;
            else
                ++out.reads;
            L3Cache::WarmOutcome o;
            const bool ms_hit = warmRecord(l3, ms, req, &o);
            if (o.l3Hit)
                ++out.l3Hits;
            else
                ++out.l3Misses;
            if (o.msRead) {
                ++out.msReads;
                if (ms_hit)
                    ++out.msHits;
            }
            if (o.msWriteback)
                ++out.msWritebacks;
        }
        out.instrPerCore[i] = done;
        out.instr += done;
    }
    return out;
}

} // namespace dapsim::reference

#endif // DAPSIM_TESTS_REFERENCE_WARMUP_HH
