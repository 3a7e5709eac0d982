/**
 * @file
 * Fleet-wide warmup-checkpoint cache with create-once semantics.
 *
 * Warmup checkpoints are content-addressed by the warmup state hash
 * (arch x workload-spec x seed x warm-up length — the same group key
 * SweepRunner's warmup-fork mode uses): `warmup-<16 hex>.ckpt` in a
 * shared directory. Any number of processes — expd workers on several
 * machines sharing a filesystem, concurrent dapsim_sweep invocations,
 * fig benches with --store — can point at one directory and each
 * distinct warmup is simulated exactly once fleet-wide:
 *
 *  - in-process: one mutex/condvar gate per group; concurrent ensure()
 *    calls for one group block behind the first.
 *  - cross-process: a `.lock` file created with O_CREAT|O_EXCL elects
 *    the single creator; everyone else polls for the checkpoint to
 *    appear. Checkpoints are published by temp-file + fsync + atomic
 *    rename, so a reader never observes a torn file (this replaces the
 *    racy direct writeFile the sweep runner used to do).
 *  - crash-safety: a lock whose owner pid is dead (same host) or whose
 *    mtime exceeds the TTL is reaped and the election re-run. At worst
 *    a crashed creator costs one duplicate warmup — never a corrupt or
 *    missing checkpoint, because warmups are deterministic and
 *    publication is atomic.
 *
 * With an empty directory the cache degrades to in-process dedup only.
 */

#ifndef DAPSIM_EXP_WARMUP_CACHE_HH
#define DAPSIM_EXP_WARMUP_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exp/job.hh"

namespace dapsim::exp
{

/** Load-or-create cache of shared warmup checkpoints. */
class WarmupCache
{
  public:
    /** @p dir empty = in-process only. @p lock_ttl_sec bounds how long
     *  a dead foreign creator can stall a group. */
    explicit WarmupCache(std::string dir, double lock_ttl_sec = 300.0);

    struct Result
    {
        /** Empty when the warmup itself failed (callers fall back to
         *  running jobs unforked). On-disk checkpoints are served as
         *  memory-mapped views, so fleet-wide warmup-fork restores
         *  deserialize straight out of the page cache instead of
         *  re-reading and copying the bytes per job. */
        ckpt::CheckpointView ckpt;
        /** THIS call simulated the warmup (vs loaded/waited). */
        bool executed = false;
        /** Satisfied from an on-disk checkpoint made elsewhere. */
        bool reused = false;
    };

    /**
     * Return the group checkpoint for @p spec (which must be
     * warmupForkable()), simulating and publishing it if this caller
     * wins the create-once election. Thread-safe; concurrent calls for
     * one group yield one execution.
     */
    Result ensure(const JobSpec &spec);

    /** Drop the in-memory checkpoint of group @p state_hash once no
     *  caller needs it; a later ensure() loads or re-simulates it. */
    void release(std::uint64_t state_hash);

    /** Warmups simulated by this cache instance. */
    std::uint64_t executed() const { return executed_; }

    /** Warmups satisfied from disk (made by another process/run). */
    std::uint64_t reused() const { return reused_; }

    /** `DIR/warmup-<16 hex>.ckpt` (for tests and tooling). */
    std::string checkpointPath(std::uint64_t state_hash) const;

  private:
    struct Group
    {
        std::mutex mutex;
        bool done = false;
        Result result;
    };

    /** The cross-process load-or-create protocol for one group. */
    Result prepare(const JobSpec &spec, std::uint64_t state_hash);

    /** True when the lock at @p path belongs to a dead owner. */
    bool lockIsStale(const std::string &path) const;

    std::string dir_;
    double lockTtlSec_;
    std::mutex mapMutex_;
    std::map<std::uint64_t, std::shared_ptr<Group>> groups_;
    std::uint64_t executed_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace dapsim::exp

#endif // DAPSIM_EXP_WARMUP_CACHE_HH
