#include "memside/remote_memory.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hh"

namespace dapsim
{

RemoteMemory::RemoteMemory(EventQueue &eq, const RemoteConfig &cfg,
                           double local_peak_gbps)
    : eq_(eq), cfg_(cfg)
{
    if (!(cfg.bwScaleFactor > 0.0))
        fatal("remote: bwScaleFactor must be positive");
    if (!(cfg.addLatencyNs >= 0.0))
        fatal("remote: addLatencyNs must be non-negative");
    if (cfg.maxOutstanding == 0)
        fatal("remote: maxOutstanding must be positive");
    if (!(local_peak_gbps > 0.0))
        fatal("remote: local main-memory bandwidth must be positive");

    peakGBps_ = local_peak_gbps / cfg.bwScaleFactor;
    // One 64B block at peak GB/s occupies the link for
    // bytes / (GB/s) ns = bytes * 1000 / peak ps.
    transferTicks_ = static_cast<Tick>(
        std::llround(kBlockBytes * 1000.0 / peakGBps_));
    if (transferTicks_ == 0)
        transferTicks_ = 1;
    latencyTicks_ = static_cast<Tick>(std::llround(cfg.addLatencyNs * 1000.0));
    // The credit window bounds inFlight_, so transfers never grow it
    // after this; the cap keeps an outsized window from reserving
    // memory up front (the ring still grows past it on demand).
    inFlight_.reserve(std::min<std::size_t>(cfg.maxOutstanding, 4096));
}

double
RemoteMemory::peakAccessesPerCpuCycle() const
{
    return peakGBps_ * 1e9 / kBlockBytes * kCpuPeriodPs / kPsPerSecond;
}

void
RemoteMemory::notePeak()
{
    const std::uint64_t depth = inFlight_.size() + pending_.size();
    if (depth > queuePeak_)
        queuePeak_ = depth;
}

void
RemoteMemory::access(Addr addr, bool is_write, Done done)
{
    Transfer t;
    t.addr = addr;
    t.isWrite = is_write;
    t.issuedAt = eq_.now();
    t.done = std::move(done);
    if (inFlight_.size() >= cfg_.maxOutstanding) {
        pending_.push_back(std::move(t));
        notePeak();
        return;
    }
    issue(std::move(t));
}

void
RemoteMemory::issue(Transfer t)
{
    const Tick start = std::max(eq_.now(), busyUntil_);
    const Tick end = start + transferTicks_;
    busyUntil_ = end;
    busyTicks_ += transferTicks_;
    t.completeAt = end + latencyTicks_;
    if (trace_)
        trace_->onBusSpan(traceName_, 0, start, end, t.isWrite,
                          /*rowHit=*/false);
    eq_.schedule(t.completeAt,
                 EventQueue::Callback::of<&RemoteMemory::onComplete>(this));
    inFlight_.push_back(std::move(t));
    notePeak();
}

void
RemoteMemory::onComplete()
{
    Transfer t = std::move(inFlight_.front());
    inFlight_.pop_front();
    if (t.isWrite) {
        writes.inc();
    } else {
        reads.inc();
        readLatencySum_ += eq_.now() - t.issuedAt;
    }
    if (t.done)
        t.done();
    while (!pending_.empty() && inFlight_.size() < cfg_.maxOutstanding) {
        Transfer next = std::move(pending_.front());
        pending_.pop_front();
        issue(std::move(next));
    }
}

void
RemoteMemory::save(ckpt::Serializer &s) const
{
    const Tick now = eq_.now();
    auto putQueue = [&](const RingDeque<Transfer> &q, bool in_flight) {
        s.u64(q.size());
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Transfer &t = q[i];
            if (!t.isWrite || t.done)
                throw ckpt::CkptError(
                    "ckpt: remote tier has outstanding reads; quiesce "
                    "demand traffic before checkpointing");
            s.u64(t.addr);
            if (in_flight)
                s.u64(t.completeAt - now);
        }
    };
    s.u64(busyUntil_ > now ? busyUntil_ - now : 0);
    putQueue(inFlight_, true);
    putQueue(pending_, false);
    s.u64(reads.value());
    s.u64(writes.value());
    s.u64(busyTicks_);
    s.u64(readLatencySum_);
    s.u64(queuePeak_);
}

void
RemoteMemory::restore(ckpt::Deserializer &d)
{
    if (!inFlight_.empty() || !pending_.empty())
        throw ckpt::CkptError("ckpt: cannot restore into a busy remote tier");
    const Tick now = eq_.now();
    busyUntil_ = now + d.u64();
    const std::uint64_t n_in_flight = d.u64();
    for (std::uint64_t i = 0; i < n_in_flight; ++i) {
        Transfer t;
        t.addr = d.u64();
        t.isWrite = true;
        t.issuedAt = now;
        t.completeAt = now + d.u64();
        eq_.schedule(t.completeAt,
                     EventQueue::Callback::of<&RemoteMemory::onComplete>(this));
        inFlight_.push_back(std::move(t));
    }
    const std::uint64_t n_pending = d.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
        Transfer t;
        t.addr = d.u64();
        t.isWrite = true;
        t.issuedAt = now;
        pending_.push_back(std::move(t));
    }
    reads.set(d.u64());
    writes.set(d.u64());
    busyTicks_ = d.u64();
    readLatencySum_ = d.u64();
    queuePeak_ = d.u64();
}

} // namespace dapsim
