/**
 * @file
 * Types shared by the host-speed benchmark's main program (main.cc) and its
 * layer drives (drives.cc).
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/mixes.hh"

namespace hostbench
{

using dapsim::Addr;
using dapsim::Tick;

inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** One generator record pulled by a core during the timed run. */
struct GenRecord
{
    Tick tick;          ///< simulated time of the fetch
    std::uint32_t core;
    dapsim::TraceRequest req;
};

/** One request at the L3 -> MS$ boundary (recorded by the L3 drive). */
struct MsRecord
{
    Tick tick;
    Addr addr;
    bool isWrite;
};

/** What the traced run recorded for the layer drives. */
struct Recording
{
    /** The configuration the System resolved (DAP fields derived). */
    dapsim::SystemConfig cfg;
    dapsim::Mix mix;
    std::uint64_t seed = 0;
    /** Generator records of the timed run, in fetch order. */
    std::vector<GenRecord> gen;
    /** DAP window inputs, one per window (via DapTraceSink). */
    std::vector<dapsim::WindowCounters> windows;
    /** Post-setup snapshots of the L3 and MS$ ("l3" / "ms" sections). */
    std::vector<std::uint8_t> l3State;
    std::vector<std::uint8_t> msState;
    /** Mean core read latency and L3 read-miss latency of the run. */
    double coreReadLatencyTicks = 0.0;
    double l3MissLatencyTicks = 0.0;
};

/** Host time of one drive: the median over its repetitions. */
struct DriveTime
{
    double seconds = 0.0;
    std::uint64_t ops = 0; ///< calls into the layer per repetition

    double
    nsPerOp() const
    {
        return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
    }
};

/** workload: freshly seeded generators, next() in a tight loop. */
DriveTime driveWorkload(const Recording &rec);

/** cpu: RobCore on the recorded per-core streams; reads complete
 *  after the run's mean core read latency. */
DriveTime driveCpu(const Recording &rec);

/** l3: L3Cache::access on the recorded stream with a fixed-latency
 *  MS$ stub, which records the L3 -> MS$ stream into @p out. */
DriveTime driveL3(const Recording &rec, std::vector<MsRecord> &out);

struct MemsideDrive
{
    DriveTime time;
    double allocsPerRequest = 0.0;
};

/** memside: the workload's MS$ controller (own array, fresh DDR, the
 *  run's DAP config, warm directories) fed the L3 -> MS$ stream. */
MemsideDrive driveMemside(const Recording &rec,
                          const std::vector<MsRecord> &stream);

/** dram: DramSystem::access on the L3 -> MS$ addresses at their ticks. */
DriveTime driveDram(const dapsim::DramConfig &cfg,
                    const std::vector<MsRecord> &stream);

/** dap: DapPolicy::beginWindow on the recorded window inputs. */
DriveTime driveDap(const dapsim::DapConfig &cfg,
                   const std::vector<dapsim::WindowCounters> &windows);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
