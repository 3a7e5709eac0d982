/**
 * @file
 * Counting global allocator owned by the benchmark.
 *
 * The benchmark replaces the global operator new/delete family; every
 * allocation is counted (calls and bytes) against the benchmark span
 * open at the time. Spans are opened only from the benchmark's own
 * files, around its calls into the simulator, so the simulator itself
 * is measured unmodified. The benchmark runs on one thread, so the
 * tallies are plain counters.
 */

#ifndef HOSTBENCH_ALLOC_COUNT_HH
#define HOSTBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace hostbench::allocs
{

/** What the benchmark is doing when an allocation happens. */
enum Span : unsigned
{
    kOther, ///< outside any span (start-up, result printing)
    kSetup, ///< System construction, warm-up, checkpoint restore
    kTimed, ///< the timed simulation
    kDrive, ///< inside a layer drive's timed calls
    kBench, ///< the benchmark's own bookkeeping (recording streams)
    kNumSpans,
};

struct Tally
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/** Calls and bytes counted against @p s since the program started. */
Tally tally(Span s);

/** Open span @p s until the scope ends (spans nest). */
class Scope
{
  public:
    explicit Scope(Span s);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Span prev_;
};

} // namespace hostbench::allocs

#endif // HOSTBENCH_ALLOC_COUNT_HH
