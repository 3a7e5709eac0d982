#include "cpu/rob_core.hh"

#include <algorithm>

#include "common/log.hh"

namespace dapsim
{

RobCore::RobCore(EventQueue &eq, const CoreConfig &cfg,
                 std::uint32_t core_id, Fetcher fetch, Issue issue)
    : eq_(eq), cfg_(cfg), coreId_(core_id), fetch_(std::move(fetch)),
      issue_(std::move(issue))
{
    if (cfg_.retireWidth == 0 || cfg_.robEntries == 0 ||
        cfg_.maxOutstanding == 0)
        fatal("RobCore: zero-sized resources");
    inflight_.reserve(cfg_.maxOutstanding);
}

void
RobCore::start()
{
    lastRetireTick_ = eq_.now();
    pump();
}

double
RobCore::ipcAt(Tick t) const
{
    if (t == 0)
        return 0.0;
    const double cycles = static_cast<double>(t) / kCpuPeriodPs;
    const double instr = finished() && t >= finishedAt_
                             ? static_cast<double>(cfg_.instructions)
                             : retired_;
    return instr / cycles;
}

void
RobCore::advanceRetirement()
{
    const Tick now = eq_.now();
    if (now <= lastRetireTick_)
        return;

    // Retirement ceiling: the oldest incomplete read blocks everything
    // younger; otherwise the stream position bounds what exists.
    const double limit =
        !inflight_.empty()
            ? static_cast<double>(inflight_.front().instrIndex)
            : static_cast<double>(pendingValid_
                                      ? fetchInstr_ + pending_.instrGap
                                      : fetchInstr_);

    const double budget = static_cast<double>(now - lastRetireTick_) *
                          cfg_.retireWidth / kCpuPeriodPs;
    const double target = retired_ + budget;
    const double new_retired = target < limit ? target : limit;
    lastRetireTick_ = now;

    if (finishedAt_ == 0 &&
        new_retired >= static_cast<double>(cfg_.instructions)) {
        // Interpolate the exact finish tick within this advance.
        const double excess =
            new_retired - static_cast<double>(cfg_.instructions);
        const auto back = static_cast<Tick>(
            excess * kCpuPeriodPs / cfg_.retireWidth);
        finishedAt_ = now > back ? now - back : now;
    }
    retired_ = new_retired;
}

void
RobCore::readDone(std::uint64_t token)
{
    if (token < tokenBase_)
        panic("RobCore: stale read token");
    Inflight &f = inflight_[token - tokenBase_];
    f.completed = true;
    readLatency.sample(static_cast<double>(eq_.now() - f.issuedAt));
    // Pop completed entries from the front so the oldest incomplete
    // read is always discoverable.
    while (!inflight_.empty() && inflight_.front().completed) {
        inflight_.pop_front();
        ++tokenBase_;
    }
    advanceRetirement();
    pump();
}

void
RobCore::scheduleFinishWakeup()
{
    // A finite stream (tests) can leave retirement with no event to
    // materialize it: wake up when the target would be reached.
    if (finishedAt_ != 0 || wakeupPending_ || !inflight_.empty())
        return; // done, already armed, or a read completion re-pumps
    // Retirement can only reach what the stream produced; a stream
    // that ended short of the target must not spin wakeups forever.
    const double reachable = std::min(
        static_cast<double>(cfg_.instructions),
        static_cast<double>(fetchInstr_));
    const double needed = reachable - retired_;
    if (needed <= 0)
        return;
    wakeupPending_ = true;
    const auto dt = static_cast<Tick>(
        needed * kCpuPeriodPs / cfg_.retireWidth) + 1;
    eq_.scheduleAfter(dt, [this] {
        wakeupPending_ = false;
        pump();
    });
}

void
RobCore::pump()
{
    advanceRetirement();

    while (true) {
        if (!pendingValid_) {
            if (streamEnded_ || !fetch_(pending_)) {
                streamEnded_ = true;
                scheduleFinishWakeup();
                return;
            }
            pendingValid_ = true;
        }

        const std::uint64_t instr_index =
            fetchInstr_ + pending_.instrGap;

        // ROB window: the request must be within robEntries of the
        // oldest unretired instruction.
        if (static_cast<double>(instr_index) >=
            retired_ + cfg_.robEntries) {
            // Blocked on ROB space. If a read is outstanding, its
            // completion re-pumps; otherwise retirement is advancing
            // freely and we can compute the unblock time.
            if (inflight_.empty() && !wakeupPending_) {
                const double needed =
                    static_cast<double>(instr_index) -
                    cfg_.robEntries + 1 - retired_;
                const auto dt = static_cast<Tick>(
                    needed * kCpuPeriodPs / cfg_.retireWidth) + 1;
                wakeupPending_ = true;
                wakeups.inc();
                eq_.scheduleAfter(dt, [this] {
                    wakeupPending_ = false;
                    pump();
                });
            }
            return;
        }

        if (!pending_.isWrite &&
            inflight_.size() >= cfg_.maxOutstanding) {
            return; // MSHR-bound; a completion will re-pump
        }

        // Issue.
        fetchInstr_ = instr_index + 1; // the memory op itself
        const TraceRequest req = pending_;
        pendingValid_ = false;

        if (req.isWrite) {
            writesIssued.inc();
            issue_(req.addr, true, nullptr);
            continue;
        }

        readsIssued.inc();
        inflight_.push_back(
            Inflight{instr_index, false, eq_.now()});
        const std::uint64_t token =
            tokenBase_ + inflight_.size() - 1;
        issue_(req.addr, false, [this, token] { readDone(token); });
    }
}

void
RobCore::save(ckpt::Serializer &s) const
{
    if (!inflight_.empty() || wakeupPending_)
        throw ckpt::CkptError(
            "ckpt: core not quiescent (reads in flight); checkpoints "
            "must be taken before the timed run");
    s.u64(pending_.addr);
    s.boolean(pending_.isWrite);
    s.u64(pending_.instrGap);
    s.boolean(pendingValid_);
    s.boolean(streamEnded_);
    s.u64(fetchInstr_);
    s.f64(retired_);
    s.u64(lastRetireTick_);
    s.u64(tokenBase_);
    s.u64(finishedAt_);
    s.u64(wakeups.value());
    s.u64(readsIssued.value());
    s.u64(writesIssued.value());
    s.f64(readLatency.sum());
    s.u64(readLatency.count());
}

void
RobCore::restore(ckpt::Deserializer &d)
{
    if (!inflight_.empty() || wakeupPending_)
        throw ckpt::CkptError(
            "ckpt: cannot restore into a core with reads in flight");
    pending_.addr = d.u64();
    pending_.isWrite = d.boolean();
    pending_.instrGap = d.u64();
    pendingValid_ = d.boolean();
    streamEnded_ = d.boolean();
    fetchInstr_ = d.u64();
    retired_ = d.f64();
    lastRetireTick_ = d.u64();
    tokenBase_ = d.u64();
    finishedAt_ = d.u64();
    wakeups.set(d.u64());
    readsIssued.set(d.u64());
    writesIssued.set(d.u64());
    const double rl_sum = d.f64();
    readLatency.restoreState(rl_sum, d.u64());
}

} // namespace dapsim
