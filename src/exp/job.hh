/**
 * @file
 * Job layer of the experiment orchestration subsystem.
 *
 * A JobSpec pins down one simulation completely: SystemConfig x Mix x
 * PolicyKind x instruction budget x seed salt. Running a job is a pure
 * function of its spec — each execution builds a private EventQueue /
 * System / generator set, and nothing in src/sim, src/common/rng.hh,
 * or src/common/stats.cc is shared mutable state (the only global in
 * the simulator, trace/workloads.cc's profile table, is a const
 * function-local static with thread-safe initialization). Running the
 * same spec on any thread of any sweep therefore yields bit-identical
 * RunResult metrics.
 */

#ifndef DAPSIM_EXP_JOB_HH
#define DAPSIM_EXP_JOB_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ckpt/checkpoint.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/mixes.hh"

namespace dapsim::exp
{

/** Stable lowercase name for a PolicyKind (matches policy->name()). */
const char *policyKindName(PolicyKind policy);

/** Stable lowercase name for an MsArch. */
const char *archName(MsArch arch);

/** Parse a policy name back to its kind; fatal() on unknown names. */
PolicyKind policyKindFromName(const std::string &name);

/** One fully-specified simulation in a sweep. */
struct JobSpec
{
    SystemConfig cfg;
    Mix mix;
    PolicyKind policy = PolicyKind::Baseline;
    std::uint64_t instr = 0;
    std::uint64_t seedSalt = 0;

    /** Extra config knobs recorded verbatim by result sinks
     *  (e.g. {"capacity_mb", "64"} in a capacity sweep). */
    std::map<std::string, std::string> knobs;

    /**
     * Optional override: when set, run() invokes this instead of the
     * standard runMix() path. Used for auxiliary simulations (alone-IPC
     * runs) and for fault-injection in tests. Must be a pure function
     * of captured state — no shared mutable captures.
     */
    std::function<RunResult()> custom;

    /** Human-readable label: "<mix>/<policy>" unless overridden. */
    std::string label;

    std::string displayLabel() const;
};

/** 16-hex-digit lowercase rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t h);

/**
 * Stable content hash of a JobSpec — the "job id".
 *
 * Canonical serialization of everything that determines the job's
 * result: the policy-invariant configuration + access-stream
 * description + seed + warm-up length (ckpt::stateContentHash: a
 * checkpoint layout change does not re-key jobs), the policy
 * kind and its configuration (ckpt::fullHash), the instruction budget,
 * and the knobs map. Independent of grid order, submission index,
 * display label, and observability settings, so rows of re-runs
 * correlate across reordered grids. Custom jobs (which carry an opaque
 * closure) hash their label instead and are excluded from the
 * experiment service.
 */
std::uint64_t jobContentHash(const JobSpec &spec);

/** jobContentHash as the canonical 16-hex-digit job-id string. */
std::string jobId(const JobSpec &spec);

/** True when the spec can share a warmup-fork checkpoint (standard,
 *  well-formed job — the condition SweepRunner::buildForkGroups and
 *  the expd warmup dedup both use). */
bool warmupForkable(const JobSpec &spec);

/** The warmup-fork group key (ckpt::stateHash of the spec); only
 *  meaningful when warmupForkable(). */
std::uint64_t warmupStateHash(const JobSpec &spec);

/** warmupStateHash as a hex string, or "" when not forkable. */
std::string groupKey(const JobSpec &spec);

/** Outcome of one job: a RunResult or a captured error. */
struct JobResult
{
    std::size_t index = 0; ///< submission order within the sweep
    bool ok = false;
    std::string error;     ///< exception text when !ok
    RunResult result;      ///< valid only when ok

    // Spec echo so sinks can serialize without the JobSpec.
    std::string jobId; ///< stable content hash (see exp::jobId)
    std::string label;
    std::string archName;
    std::string policyName;
    std::string mixName;
    std::uint32_t numCores = 0;
    std::uint64_t instr = 0;
    std::uint64_t seedSalt = 0;
    std::map<std::string, std::string> knobs;
};

/**
 * Execute @p spec on the calling thread. Exceptions thrown by the
 * simulation are captured into the JobResult; they never propagate.
 * (@note fatal()/panic() terminate the process by design — impossible
 * configurations should be rejected before sweep submission.)
 *
 * With @p fork the job skips its own functional warm-up and instead
 * restores the shared post-warmup checkpoint (policy section skipped),
 * which must match the spec's stateHash — the sweep runner's
 * warmup-fork mode. Ignored for custom jobs.
 */
JobResult runJob(const JobSpec &spec, std::size_t index,
                 const ckpt::CheckpointView *fork = nullptr);

} // namespace dapsim::exp

#endif // DAPSIM_EXP_JOB_HH
