#include "sim/warm_pipeline.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>

#include <pthread.h>

#ifdef __linux__
#include <sched.h>
#endif

namespace dapsim::warm
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Busy-wait iterations before a waiting stage starts yielding. */
constexpr std::uint32_t kPauseSpins = 64;

/**
 * How long a waiting stage keeps polling (yielding the CPU between
 * polls) before it blocks on the futex. Several batches of the slowest
 * stage (~0.3 ms at eight cores), so a steady-state pipeline never
 * blocks: a blocked stage's wake-up lets the scheduler pull it onto
 * its waker's CPU, serializing the stages. Yielding keeps a single-CPU
 * run from burning its slice while the awaited stage is runnable.
 */
constexpr auto kSpinFor = std::chrono::milliseconds(2);

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Where the two workers start: the first two CPUs after the caller's
 * in its affinity mask. Linux places a new thread, and a thread woken
 * from a futex, next to its creator or waker often enough that all
 * three stages can share one CPU for a whole warm-up while the others
 * idle; a running thread, though, stays where it is. So each worker
 * hops to its CPU once and then restores the caller's mask, leaving
 * the scheduler free to move it later. Without a second allowed CPU
 * (e.g. under `taskset -c 0`) the workers start wherever the
 * scheduler puts them.
 */
class Placement
{
  public:
    Placement()
    {
#ifdef __linux__
        const int here = sched_getcpu();
        if (here < 0 ||
            sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            return;
        int found = 0;
        for (int i = 1; i < CPU_SETSIZE && found < 2; ++i) {
            const int c = (here + i) % CPU_SETSIZE;
            if (CPU_ISSET(c, &allowed_))
                cpu_[found++] = c;
        }
#endif
    }

    /** Move the calling worker onto its start CPU (@p worker 0 or 1). */
    void
    hop(int worker) const
    {
#ifdef __linux__
        if (cpu_[worker] < 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu_[worker], &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0)
            sched_setaffinity(0, sizeof(allowed_), &allowed_);
#else
        (void)worker;
#endif
    }

  private:
#ifdef __linux__
    cpu_set_t allowed_{};
#endif
    int cpu_[2] = {-1, -1};
};

/** One stage's count of finished batches (modulo 2^32), alone on its
 *  cache line. */
struct alignas(64) Cursor
{
    std::atomic<std::uint32_t> done{0};

    void
    publish(std::uint32_t batches)
    {
        done.store(batches, std::memory_order_release);
        done.notify_all();
    }
};

/**
 * The batch ring and its three stages. Batch k lives in slot
 * k % kRingSlots; the generator stage may fill it once the MS$ stage
 * has finished batch k - kRingSlots, the L3 stage may apply it once the
 * generator stage has published it, and the MS$ stage once the L3 stage
 * has. All storage is sized before any worker starts.
 */
class Pipeline
{
  public:
    Pipeline(const std::vector<AccessGeneratorPtr> &gens, L3Cache &l3,
             MemSideCache &ms, std::uint64_t rounds)
        : gens_(gens), l3_(l3), ms_(ms), rounds_(rounds),
          batches_((rounds + kBatchRounds - 1) / kBatchRounds),
          cap_(kBatchRounds * gens.size()),
          addr_(kRingSlots * cap_), victim_(kRingSlots * cap_),
          op_(kRingSlots * cap_)
    {
    }

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    void
    run()
    {
        const Placement place;
        Worker workers[2] = {{this, kGen, &place, 0},
                             {this, kMs, &place, 1}};
        std::size_t started = 0;
        int create_error = 0;
        for (Worker &w : workers) {
            create_error =
                pthread_create(&w.thread, nullptr, &workerMain, &w);
            if (create_error != 0) {
                abort(); // stops the worker that did start
                break;
            }
            ++started;
        }
        if (create_error == 0)
            stage(kL3);
        for (std::size_t i = 0; i < started; ++i)
            pthread_join(workers[i].thread, nullptr);
        if (create_error != 0)
            throw std::system_error(create_error, std::generic_category(),
                                    "warm-up: cannot start a worker thread");
        for (const std::exception_ptr &e : errors_)
            if (e)
                std::rethrow_exception(e);
    }

  private:
    enum Stage { kGen, kL3, kMs, kNumStages };

    /**
     * One worker thread's start record, alive in run()'s frame until
     * the join. Workers are raw pthreads so that they never call the
     * allocator: std::thread frees its start state on the new thread,
     * and with glibc that first free() sets up a thread cache and a
     * malloc arena for the worker, one more arena per process.
     */
    struct Worker
    {
        Pipeline *pipeline;
        Stage stage;
        const Placement *place;
        int cpuSlot; ///< which of place's start CPUs
        pthread_t thread{};
    };

    static void *
    workerMain(void *arg)
    {
        const Worker &w = *static_cast<Worker *>(arg);
        w.place->hop(w.cpuSlot);
        w.pipeline->stage(w.stage);
        return nullptr;
    }

    /** Op bits of one record. */
    static constexpr std::uint8_t kWrite = 1;     ///< set by the generators
    static constexpr std::uint8_t kMsWb = 2;      ///< set by the L3 stage
    static constexpr std::uint8_t kMsRead = 4;    ///< set by the L3 stage

    void
    stage(Stage s)
    {
        try {
            switch (s) {
              case kGen: generate(); break;
              case kL3: applyL3(); break;
              case kMs: applyMs(); break;
              default: break;
            }
        } catch (...) {
            errors_[s] = std::current_exception();
            abort();
        }
    }

    /** Stop every stage: each waiter wakes (its cursor changes), sees
     *  failed_, and returns. */
    void
    abort()
    {
        failed_.store(true, std::memory_order_seq_cst);
        for (Cursor &c : cursors_) {
            c.done.fetch_add(1, std::memory_order_seq_cst);
            c.done.notify_all();
        }
    }

    /**
     * Wait until @p ready holds for @p c's value: spin briefly, then
     * poll with yields for up to kSpinFor, then block.
     * @return false when the pipeline failed meanwhile
     */
    template <typename Ready>
    bool
    await(const Cursor &c, Ready ready) const
    {
        std::uint32_t v = c.done.load(std::memory_order_acquire);
        Clock::time_point until{};
        for (std::uint32_t i = 0; !ready(v); ++i) {
            if (failed_.load(std::memory_order_acquire))
                return false;
            if (i < kPauseSpins) {
                cpuRelax();
            } else {
                const Clock::time_point now = Clock::now();
                if (i == kPauseSpins)
                    until = now + kSpinFor;
                if (now < until)
                    std::this_thread::yield();
                else
                    c.done.wait(v, std::memory_order_acquire);
            }
            v = c.done.load(std::memory_order_acquire);
        }
        return !failed_.load(std::memory_order_acquire);
    }

    /** Wait for the upstream stage to publish batch @p k. */
    bool
    awaitBatch(Stage upstream, std::uint64_t k) const
    {
        const auto kk = static_cast<std::uint32_t>(k);
        return await(cursors_[upstream],
                     [kk](std::uint32_t v) { return v != kk; });
    }

    std::size_t slotBase(std::uint64_t k) const
    {
        return static_cast<std::size_t>(k % kRingSlots) * cap_;
    }

    void
    generate()
    {
        TraceRequest req;
        for (std::uint64_t k = 0; k < batches_; ++k) {
            // Slot reuse: batch k - kRingSlots must have left the MS$.
            const auto kk = static_cast<std::uint32_t>(k);
            if (!await(cursors_[kMs], [kk](std::uint32_t v) {
                    return kk - v < kRingSlots;
                }))
                return;
            const std::size_t base = slotBase(k);
            const std::uint64_t rounds =
                std::min(kBatchRounds, rounds_ - k * kBatchRounds);
            std::size_t n = 0;
            for (std::uint64_t r = 0; r < rounds; ++r) {
                for (const AccessGeneratorPtr &g : gens_) {
                    if (g->next(req)) {
                        addr_[base + n] = req.addr;
                        op_[base + n] = req.isWrite ? kWrite : 0;
                        ++n;
                    }
                }
            }
            count_[k % kRingSlots] = n;
            cursors_[kGen].publish(kk + 1);
        }
    }

    void
    applyL3()
    {
        for (std::uint64_t k = 0; k < batches_; ++k) {
            if (!awaitBatch(kGen, k))
                return;
            const std::size_t base = slotBase(k);
            const std::size_t end = base + count_[k % kRingSlots];
            for (std::size_t j = base; j < end; ++j) {
                const L3Cache::WarmOutcome o =
                    l3_.warmTouch(addr_[j], op_[j] & kWrite);
                op_[j] = (o.msWriteback ? kMsWb : 0) |
                         (o.msRead ? kMsRead : 0);
                victim_[j] = o.victim;
            }
            cursors_[kL3].publish(static_cast<std::uint32_t>(k + 1));
        }
    }

    void
    applyMs()
    {
        for (std::uint64_t k = 0; k < batches_; ++k) {
            if (!awaitBatch(kL3, k))
                return;
            const std::size_t base = slotBase(k);
            const std::size_t end = base + count_[k % kRingSlots];
            for (std::size_t j = base; j < end; ++j) {
                if (op_[j] == 0)
                    continue;
                L3Cache::WarmOutcome o;
                o.msWriteback = (op_[j] & kMsWb) != 0;
                o.msRead = (op_[j] & kMsRead) != 0;
                o.victim = victim_[j];
                L3Cache::forwardWarm(ms_, addr_[j], o);
            }
            cursors_[kMs].publish(static_cast<std::uint32_t>(k + 1));
        }
    }

    const std::vector<AccessGeneratorPtr> &gens_;
    L3Cache &l3_;
    MemSideCache &ms_;
    const std::uint64_t rounds_;
    const std::uint64_t batches_;
    /** Records one slot holds: a full batch with no declined next(). */
    const std::size_t cap_;

    // The ring, one region of cap_ records per slot (structure of
    // arrays: 17 bytes per record).
    std::vector<Addr> addr_;          ///< record address (generators)
    std::vector<Addr> victim_;        ///< dirty L3 victim (L3 stage)
    std::vector<std::uint8_t> op_;    ///< kWrite, then kMsWb | kMsRead
    std::array<std::size_t, kRingSlots> count_{}; ///< records per slot

    std::array<Cursor, kNumStages> cursors_;
    std::atomic<bool> failed_{false};
    std::array<std::exception_ptr, kNumStages> errors_;
};

} // namespace

void
pipelinedWarmup(const std::vector<AccessGeneratorPtr> &gens, L3Cache &l3,
                MemSideCache &ms, std::uint64_t rounds)
{
    if (rounds == 0 || gens.empty())
        return;
    Pipeline(gens, l3, ms, rounds).run();
}

} // namespace dapsim::warm
