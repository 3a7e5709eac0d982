/**
 * @file
 * The paper's Eq 1/2/4 bandwidth model as a fast-forward engine.
 *
 * Exact simulation prices every access; this engine instead learns the
 * steady-state access mix from short detailed windows (EWMA-smoothed
 * per-instruction rates to each bandwidth source plus the detailed
 * IPC) and prices fast-forwarded instructions in closed form: cycles
 * accrue at the smoothed measured IPC (SMARTS-style extrapolation),
 * per-source access counts at the smoothed rates, while the n-source
 * delivered-bandwidth model answers the mix-shift questions (DAP
 * credit warm-up windows, the analytic fidelity mode). Fractional cycle/access
 * remainders carry across fast-forward chunks so interval boundaries
 * never lose time, and the full engine state serializes through the
 * ckpt layer so a run interrupted mid-fast-forward resumes
 * byte-identically.
 *
 * Guarantees (property-tested in tests/test_fidelity.cc):
 *  - predicted delivered bandwidth never exceeds efficiency x sum(B_i)
 *  - predicted IPC is monotone non-increasing in offered load
 *  - with the remote source off and loads at the optimal split, the
 *    prediction degenerates to the 2-source Eq 4 answer
 *  - save/restore mid-fast-forward is byte-identical to uninterrupted
 */

#ifndef DAPSIM_DAP_ANALYTIC_ENGINE_HH
#define DAPSIM_DAP_ANALYTIC_ENGINE_HH

#include <cstdint>

#include "ckpt/serializer.hh"

namespace dapsim::fastfwd
{

/** Deltas measured over one detailed window (aggregate over cores). */
struct WindowSample
{
    std::uint64_t instr = 0;  ///< instructions retired in the window
    std::uint64_t cycles = 0; ///< CPU cycles the window spanned
    std::uint64_t msReads = 0, msWrites = 0;   ///< MS$ array CAS ops
    std::uint64_t mmReads = 0, mmWrites = 0;   ///< DDR CAS ops
    std::uint64_t remReads = 0, remWrites = 0; ///< remote transfers
};

/** One fast-forward chunk priced by the engine. */
struct FastForwardChunk
{
    std::uint64_t cycles = 0; ///< modeled CPU cycles the chunk took
    std::uint64_t msReads = 0, msWrites = 0;
    std::uint64_t mmReads = 0, mmWrites = 0;
    std::uint64_t remReads = 0, remWrites = 0;
};

/** Steady-state bandwidth model driving the fast-forward. */
class AnalyticEngine
{
  public:
    /**
     * @param b_ms       MS$ peak, 64B accesses per CPU cycle
     * @param b_mm       main-memory peak, accesses per cycle
     * @param b_remote   remote-tier peak (0 = no remote source)
     * @param efficiency achievable fraction of each peak (DAP's E)
     * @param alpha      EWMA smoothing factor in (0, 1]
     */
    AnalyticEngine(double b_ms, double b_mm, double b_remote,
                   double efficiency, double alpha);

    /** Fold one detailed window into the smoothed rates. Windows with
     *  zero instructions or cycles are ignored. */
    void observe(const WindowSample &w);

    /** True once at least one window has been observed. */
    bool ready() const { return ready_; }

    /**
     * Maximum total access rate (accesses/CPU-cycle, all sources
     * combined) sustainable at the given per-source load mix — Eq 2
     * over the efficiency-derated peaks. Never exceeds
     * efficiency x sum(B_i); with zero total load the sum cap itself
     * is returned.
     */
    double deliveredAccPerCycle(double ms_load, double mm_load,
                                double remote_load) const;

    /** Steady-state aggregate IPC: the smoothed detailed IPC capped by
     *  the bandwidth-limited IPC of the smoothed access mix. */
    double predictIpc() const;

    /** Price @p instr aggregate fast-forwarded instructions,
     *  accumulating fractional remainders across calls. */
    FastForwardChunk fastForward(std::uint64_t instr);

    // Smoothed per-instruction access rates (modeling inputs for the
    // functional DAP window warm-up).
    double msReadsPerInstr() const { return msR_; }
    double msWritesPerInstr() const { return msW_; }
    double mmReadsPerInstr() const { return mmR_; }
    double mmWritesPerInstr() const { return mmW_; }
    double remReadsPerInstr() const { return remR_; }
    double remWritesPerInstr() const { return remW_; }
    double mmPerInstr() const { return mmR_ + mmW_; }
    double remotePerInstr() const { return remR_ + remW_; }
    double detailedIpc() const { return ipcDet_; }

    /** Serialize the complete engine state (checkpoint section
     *  discipline: fixed field order, doubles as bit patterns). */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

  private:
    double ewma(double prev, double next) const;

    // Configuration (not serialized: reconstructed from the run config).
    double bMs_, bMm_, bRem_, eff_, alpha_;

    // Smoothed measurements.
    bool ready_ = false;
    double ipcDet_ = 0.0; ///< detailed aggregate IPC
    double msR_ = 0.0, msW_ = 0.0; ///< accesses per instruction
    double mmR_ = 0.0, mmW_ = 0.0;
    double remR_ = 0.0, remW_ = 0.0;

    // Fractional remainders carried across fastForward() chunks.
    double remCycles_ = 0.0;
    double remMsR_ = 0.0, remMsW_ = 0.0;
    double remMmR_ = 0.0, remMmW_ = 0.0;
    double remRemR_ = 0.0, remRemW_ = 0.0;
};

} // namespace dapsim::fastfwd

#endif // DAPSIM_DAP_ANALYTIC_ENGINE_HH
