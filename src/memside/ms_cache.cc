#include "memside/ms_cache.hh"

#include "common/log.hh"

namespace dapsim
{

MemSideCache::MemSideCache(EventQueue &eq, DramSystem &main_memory,
                           PartitionPolicy &policy)
    : eq_(eq), mm_(main_memory), policy_(policy)
{
    reads_.reserve(kReadReserve);
    readFree_.reserve(kReadReserve);
}

MemSideCache::~MemSideCache() = default;

std::uint64_t
MemSideCache::arrayCasOps() const
{
    std::uint64_t n = 0;
    for (const NamedArray &a : arrays_)
        n += a.dram->casOps();
    return n;
}

void
MemSideCache::creditFastForward(std::uint64_t reads, std::uint64_t writes)
{
    if (arrays_.empty())
        return;
    arrays_.front().dram->creditFastForward(reads, 0);
    arrays_.back().dram->creditFastForward(0, writes);
}

std::uint32_t
MemSideCache::openRead(Addr addr, Done done)
{
    ++readsOpened_;
    ReadRec rec;
    rec.addr = addr;
    rec.done = done;
    if (!readFree_.empty()) {
        const std::uint32_t id = readFree_.back();
        readFree_.pop_back();
        reads_[id] = rec;
        return id;
    }
    reads_.push_back(rec);
    return static_cast<std::uint32_t>(reads_.size() - 1);
}

void
MemSideCache::settleRead(std::uint32_t id)
{
    ReadRec &r = reads_[id];
    if (--r.pending != 0)
        return;
    if (r.done)
        panic("MS$: read record released with its completion unfired");
    ++readsClosed_;
    readFree_.push_back(id);
}

void
MemSideCache::startWindows(Cycle window_cycles)
{
    if (windowsRunning_)
        return;
    windowsRunning_ = true;
    windowCycles_ = window_cycles;
    eq_.scheduleAfter(
        cpuCyclesToTicks(windowCycles_),
        EventQueue::Callback::of<&MemSideCache::windowTick>(this));
}

void
MemSideCache::stopWindows()
{
    windowsRunning_ = false;
}

void
MemSideCache::windowTick()
{
    if (!windowsRunning_)
        return;
    policy_.beginWindow(window_);
    window_ = WindowCounters{};
    for (Addr page : policy_.collectCleaningRequests())
        cleanRegion(page);
    for (std::uint64_t set : policy_.collectSetsToFlush())
        flushSetImpl(set);
    eq_.scheduleAfter(
        cpuCyclesToTicks(windowCycles_),
        EventQueue::Callback::of<&MemSideCache::windowTick>(this));
}

void
MemSideCache::memAccess(Addr addr, bool is_write, Done done,
                        bool low_priority)
{
    if (remote_ && policy_.shouldRouteToRemote(addr)) {
        window_.aRemote++;
        remote_->access(addr, is_write, done);
        return;
    }
    mm_.access(addr, is_write, done, 0, low_priority);
}

void
MemSideCache::saveBase(ckpt::Serializer &s) const
{
    if (windowsRunning_)
        throw ckpt::CkptError(
            "ckpt: MS$ window machinery running; checkpoints must be "
            "taken before the timed run");
    if (readsOpened_ != readsClosed_)
        throw ckpt::CkptError("ckpt: MS$ reads in flight");
    s.u64(window_.aMs);
    s.u64(window_.aMsRead);
    s.u64(window_.aMsWrite);
    s.u64(window_.aMm);
    s.u64(window_.readMisses);
    s.u64(window_.writes);
    s.u64(window_.cleanHits);
    s.u64(window_.lookups);
    s.u64(window_.hits);
    s.u64(readHits.value());
    s.u64(readMisses.value());
    s.u64(writeHits.value());
    s.u64(writeMisses.value());
    s.u64(cleanReadHits.value());
    s.u64(fills.value());
    s.u64(fillsBypassed.value());
    s.u64(writesBypassed.value());
    s.u64(forcedReadMisses.value());
    s.u64(speculativeReads.value());
    s.u64(speculativeWasted.value());
    s.u64(sectorEvictions.value());
    s.u64(dirtyWritebacks.value());
    // Appended only when a remote tier exists so 2-tier checkpoints
    // keep their exact historical byte layout.
    if (remote_ != nullptr)
        s.u64(window_.aRemote);
}

void
MemSideCache::restoreBase(ckpt::Deserializer &d)
{
    if (windowsRunning_)
        throw ckpt::CkptError(
            "ckpt: cannot restore into an MS$ with windows running");
    window_.aMs = d.u64();
    window_.aMsRead = d.u64();
    window_.aMsWrite = d.u64();
    window_.aMm = d.u64();
    window_.readMisses = d.u64();
    window_.writes = d.u64();
    window_.cleanHits = d.u64();
    window_.lookups = d.u64();
    window_.hits = d.u64();
    readHits.set(d.u64());
    readMisses.set(d.u64());
    writeHits.set(d.u64());
    writeMisses.set(d.u64());
    cleanReadHits.set(d.u64());
    fills.set(d.u64());
    fillsBypassed.set(d.u64());
    writesBypassed.set(d.u64());
    forcedReadMisses.set(d.u64());
    speculativeReads.set(d.u64());
    speculativeWasted.set(d.u64());
    sectorEvictions.set(d.u64());
    dirtyWritebacks.set(d.u64());
    if (remote_ != nullptr)
        window_.aRemote = d.u64();
}

} // namespace dapsim
