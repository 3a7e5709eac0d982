/**
 * @file
 * SweepRunner: expand parameter grids into jobs, run them on a thread
 * pool, and deliver results in submission order.
 *
 * Determinism contract: every job builds its own EventQueue, System,
 * and generator Rngs from the spec alone (audited: the simulator keeps
 * no global mutable state — see exp/job.hh), so the metrics of a sweep
 * are bit-identical whether it runs on 1 thread or N. Only the
 * wall-clock time and the stderr progress interleaving change.
 *
 * Failure isolation: a job that throws is delivered as a failed
 * JobResult carrying the exception text; the rest of the sweep
 * completes normally.
 */

#ifndef DAPSIM_EXP_SWEEP_RUNNER_HH
#define DAPSIM_EXP_SWEEP_RUNNER_HH

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/job.hh"
#include "exp/result_sink.hh"
#include "exp/warmup_cache.hh"

namespace dapsim::exp
{

/** Runs a batch of JobSpecs and reports ordered results. */
class SweepRunner
{
  public:
    /** Add one job; returns its submission index. */
    std::size_t add(JobSpec spec);

    /** Cross-product convenience: every policy for every mix under
     *  @p cfg. Jobs are added mix-major (all policies of mix 0, then
     *  mix 1, ...). Returns the index of the first added job. */
    std::size_t addGrid(const SystemConfig &cfg,
                        const std::vector<Mix> &mixes,
                        const std::vector<PolicyKind> &policies,
                        std::uint64_t instr,
                        std::uint64_t seed_salt = 0);

    /** Attach a sink; consume() is called in submission order. */
    void addSink(ResultSink *sink) { sinks_.push_back(sink); }

    /** Report per-job progress lines to stderr (default off). */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Warmup-fork mode: group jobs by their checkpoint stateHash
     * (configuration x stream x seed x warm-up length — in practice
     * (arch, workload, warmup) tuples), execute the shared functional
     * warm-up ONCE per group, snapshot it, and fork every other job of
     * the group from the in-memory checkpoint with its own policy and
     * fresh statistics. Results are bit-identical to a non-forked
     * sweep because the warm state never depends on the policy.
     *
     * With a non-empty @p ckpt_dir the per-group checkpoints are also
     * kept on disk as `warmup-<statehash>.ckpt` and reused by later
     * sweeps; unreadable or mismatched files are regenerated. The
     * directory is a fleet-wide WarmupCache: checkpoints are published
     * with atomic renames and creation is guarded by a lock file, so
     * any number of concurrent sweeps (or expd workers) sharing the
     * directory simulate each warmup exactly once. Custom jobs and
     * jobs that would fail validation run unforked.
     */
    void
    setWarmupFork(bool on, std::string ckpt_dir = "")
    {
        warmupFork_ = on;
        ckptDir_ = std::move(ckpt_dir);
    }

    /** Shared warm-ups actually executed (not loaded from disk) by the
     *  last run() — for tests and telemetry. */
    std::uint64_t warmupsExecuted() const { return warmupsExecuted_; }

    /**
     * Write a Chrome trace_event file of wall-clock job execution
     * after run(): one track per worker thread, one span per job
     * (category "job" or "failed"), plus shared warm-up spans. Spans
     * are collected during the run and written single-threaded at the
     * end, so the trace never perturbs job scheduling.
     */
    void setPhaseTrace(std::string path) { phaseTracePath_ = std::move(path); }

    std::size_t jobCount() const { return specs_.size(); }

    /**
     * Run every job on @p threads workers (1 = serial on the calling
     * thread) and return results indexed by submission order. Sinks
     * receive each result as soon as its submission-order predecessors
     * have been delivered, regardless of completion order.
     */
    std::vector<JobResult> run(std::size_t threads = 1);

  private:
    /** One warmup-fork group: jobs sharing a post-warmup state. */
    struct ForkGroup
    {
        std::uint64_t stateHash = 0;
        std::once_flag once;
        /** Shared snapshot; null when preparation failed (the group's
         *  jobs then fall back to running their own warm-up). */
        ckpt::CheckpointView ckpt;
        /** Jobs of the group not yet finished; the last one drops the
         *  snapshot, so a sweep holds only its running groups' ones. */
        std::atomic<std::size_t> pending{0};
    };

    /** Deliver any contiguous completed prefix to the sinks. A sink
     *  that throws (e.g. the JSON-lines sink on a full disk) marks the
     *  affected job failed instead of aborting the sweep. */
    void drainReady();

    /** Map each job to its fork group (null = run unforked). */
    void buildForkGroups();

    /** Run job @p i, forking from its group's checkpoint if any. */
    JobResult execute(std::size_t i);

    /** One wall-clock span for the phase trace. */
    struct PhaseSpan
    {
        std::string name;
        std::string cat;
        double startUs = 0;
        double endUs = 0;
        std::size_t worker = 0;
    };

    /** Ordinal of the calling worker thread (assigned on first use). */
    std::size_t workerOrdinal();

    /** Record one span (thread-safe; no-op without a phase trace). */
    void recordSpan(const std::string &name, const std::string &cat,
                    double start_us, double end_us);

    /** Microseconds since run() started. */
    double nowUs() const;

    void writePhaseTrace();

    std::vector<JobSpec> specs_;
    std::vector<ResultSink *> sinks_;
    bool progress_ = false;

    bool warmupFork_ = false;
    std::string ckptDir_;
    std::atomic<std::uint64_t> warmupsExecuted_{0};
    std::unique_ptr<WarmupCache> warmupCache_;
    std::map<std::uint64_t, ForkGroup> groups_;
    std::vector<ForkGroup *> jobGroup_;

    // run() state
    std::mutex mutex_;
    std::vector<JobResult> results_;
    std::vector<bool> done_;
    std::size_t nextToDeliver_ = 0;
    std::size_t completed_ = 0;

    // Phase-trace state
    std::string phaseTracePath_;
    std::chrono::steady_clock::time_point epoch_;
    std::mutex phaseMutex_;
    std::vector<PhaseSpan> phaseSpans_;
    std::map<std::thread::id, std::size_t> workerIds_;
};

} // namespace dapsim::exp

#endif // DAPSIM_EXP_SWEEP_RUNNER_HH
