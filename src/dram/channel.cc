#include "dram/channel.hh"

#include <algorithm>

namespace dapsim
{

ChannelTiming
ChannelTiming::from(const DramConfig &cfg)
{
    ChannelTiming t;
    t.period = cfg.periodPs();
    t.turnaround = cfg.turnaroundCycles * t.period;
    t.ioDelay = cfg.ioDelayCycles * t.period;
    t.maxAhead = (cfg.tRP + cfg.tRCD + cfg.tCAS) * t.period +
                 4 * cfg.burstTicks();
    t.refi = cfg.tREFI * t.period;
    return t;
}

Channel::Channel(EventQueue &eq, const DramConfig &cfg, std::uint32_t index)
    : eq_(eq), cfg_(cfg), bankTiming_(BankTiming::from(cfg)),
      timing_(ChannelTiming::from(cfg)), index_(index),
      banks_(cfg.ranksPerChannel * cfg.banksPerRank)
{
    readDemandQ_.reserve(cfg_.requestQueueReserve);
    // Footprint fetches arrive a sector's worth at a time.
    readLowQ_.reserve(4 * cfg_.requestQueueReserve);
    writeQ_.reserve(std::max<std::uint32_t>(cfg_.requestQueueReserve,
                                            cfg_.writeQueueHigh + 8));
    cbSlots_.reserve(3 * cfg_.requestQueueReserve);
    busResv_.reserve(kBusCompactAt + cfg_.requestQueueReserve);
    cbFree_.reserve(3 * cfg_.requestQueueReserve);
    if (cfg_.tREFI > 0) {
        // Stagger channels so refreshes don't align system-wide.
        const Tick first =
            (index + 1) * timing_.refi / (cfg_.channels + 1);
        eq_.schedule(first, EventQueue::Callback::of<&Channel::refreshTick>(this));
    }
}

void
Channel::refreshTick()
{
    refreshes.inc();
    for (Bank &b : banks_)
        b.refresh(bankTiming_, eq_.now());
    eq_.scheduleAfter(timing_.refi,
                      EventQueue::Callback::of<&Channel::refreshTick>(this));
}

std::uint32_t
Channel::putCb(EventQueue::Callback &&cb)
{
    if (!cbFree_.empty()) {
        const std::uint32_t idx = cbFree_.back();
        cbFree_.pop_back();
        cbSlots_[idx] = std::move(cb);
        return idx;
    }
    cbSlots_.push_back(std::move(cb));
    return static_cast<std::uint32_t>(cbSlots_.size() - 1);
}

EventQueue::Callback
Channel::takeCb(std::uint32_t idx)
{
    EventQueue::Callback cb = std::move(cbSlots_[idx]);
    cbFree_.push_back(idx);
    return cb;
}

void
Channel::enqueue(ChannelRequest req)
{
    HotReq hot;
    hot.row = req.row;
    hot.enqueuedAt = eq_.now();
    hot.bank = req.bank;
    hot.extraDataClocks = req.extraDataClocks;
    hot.cb = putCb(std::move(req.onComplete));
    if (req.isWrite)
        writeQ_.push_back(hot);
    else if (req.lowPriority)
        readLowQ_.push_back(hot);
    else
        readDemandQ_.push_back(hot);
    scheduleKick(eq_.now());
}

void
Channel::scheduleKick(Tick when)
{
    if (when < eq_.now())
        when = eq_.now();
    // Collapse redundant wakeups: only one live kick is kept pending.
    if (kickPending_ && when >= nextKickAt_)
        return;
    kickPending_ = true;
    nextKickAt_ = when;
    eq_.schedule(when, EventQueue::Callback::of<&Channel::kickTick>(this));
}

void
Channel::kickTick()
{
    // A kick superseded by an earlier one (or already consumed) is
    // stale and must die here, or the event population grows without
    // bound while a queue is backlogged. The event fires exactly at
    // its scheduled tick, so now() != nextKickAt_ identifies it.
    if (!kickPending_ || eq_.now() != nextKickAt_)
        return;
    kickPending_ = false;
    kick();
}

Channel::Pick
Channel::pickSpans(const std::pair<const HotReq *, std::size_t> *spans,
                   std::size_t nspans, std::size_t depth) const
{
    // FR-FCFS flavour: within the scan window, choose the request
    // whose data could start earliest (row hits on ready banks win;
    // requests to backed-up banks lose). Ties resolve to the oldest,
    // which bounds starvation together with the scan depth.
    const Tick now = eq_.now();
    // No candidate can beat now + tCAS (start = max(now, readyAt) and
    // the cheapest arm is a row hit), and ties already go to the
    // earliest-scanned entry — so a candidate at the floor ends the
    // scan exactly.
    const Tick floor = now + bankTiming_.tCas;
    Pick best{0, ~Tick(0)};
    // One Bank::probe per distinct bank answers every candidate row
    // (hit vs other), so interleaved-bank queues cost one state read
    // per bank instead of one peek per entry.
    constexpr std::size_t kMaxCachedBanks = 64;
    Bank::Probe probes[kMaxCachedBanks];
    std::uint64_t have = 0; // bitmask of banks already probed
    const bool cacheable = banks_.size() <= kMaxCachedBanks;
    std::size_t base = 0; // global index of the current span's start
    for (std::size_t s = 0; s < nspans && depth != 0; ++s) {
        const HotReq *p = spans[s].first;
        const std::size_t n = std::min(spans[s].second, depth);
        depth -= n;
        for (std::size_t i = 0; i < n; ++i) {
            const HotReq &r = p[i];
            Tick ready;
            if (cacheable) {
                const std::uint64_t bit = std::uint64_t(1) << r.bank;
                if ((have & bit) == 0) {
                    probes[r.bank] =
                        banks_[r.bank].probe(bankTiming_, now);
                    have |= bit;
                }
                const Bank::Probe &pr = probes[r.bank];
                ready = r.row == pr.openRow ? pr.hitAt : pr.otherAt;
            } else {
                ready = banks_[r.bank]
                            .peek(bankTiming_, now, r.row)
                            .dataReadyAt;
            }
            if (ready < best.dataReadyAt) {
                best.dataReadyAt = ready;
                best.idx = base + i;
                if (ready <= floor)
                    return best;
            }
        }
        base += n;
    }
    return best;
}

Tick
Channel::placeBus(Tick ready, Tick occ, bool reserve)
{
    // Reservations are disjoint and sorted by start, hence by end too:
    // the expired ones form a prefix, dropped by advancing the head.
    const Tick now = eq_.now();
    while (busHead_ < busResv_.size() && busResv_[busHead_].second <= now)
        ++busHead_;
    if (busHead_ == busResv_.size()) {
        busResv_.clear();
        busHead_ = 0;
    } else if (busHead_ >= kBusCompactAt) {
        busResv_.erase(busResv_.begin(),
                       busResv_.begin() +
                           static_cast<std::ptrdiff_t>(busHead_));
        busHead_ = 0;
    }

    // Common case: the slot starts after every reservation ends.
    if (busResv_.empty() || ready >= busResv_.back().second) {
        if (reserve)
            busResv_.emplace_back(ready, ready + occ);
        return ready;
    }

    Tick start = ready;
    std::size_t pos = busHead_;
    for (; pos < busResv_.size(); ++pos) {
        const auto &[s, e] = busResv_[pos];
        if (start + occ <= s)
            break; // fits in the gap before this reservation
        if (start < e)
            start = e; // overlap: push past it
    }
    if (reserve) {
        busResv_.insert(busResv_.begin() +
                            static_cast<std::ptrdiff_t>(pos),
                        {start, start + occ});
    }
    return start;
}

void
Channel::issue(RingDeque<HotReq> &q, std::size_t idx, bool isWrite)
{
    const HotReq req = q[idx];
    q.erase(idx);

    Bank &bank = banks_[req.bank];
    const Bank::Access acc = bank.reserve(bankTiming_, eq_.now(), req.row);

    Tick occupancy = bankTiming_.burst +
                     req.extraDataClocks * timing_.period;
    if (isWrite != lastWasWrite_) {
        // Direction flip: charge the turnaround as bus occupancy.
        occupancy += timing_.turnaround;
        turnarounds.inc();
    }
    lastWasWrite_ = isWrite;

    const Tick dataStart = placeBus(acc.dataReadyAt, occupancy, true);
    const Tick dataEnd = dataStart + occupancy;
    busBusy_ += occupancy;

    if (acc.rowHit)
        rowHits.inc();
    else
        rowMisses.inc();

    if (busTrace_)
        busTrace_->onBusSpan(traceSource_, index_, dataStart, dataEnd,
                             isWrite, acc.rowHit);

    const Tick ioDelay = timing_.ioDelay;
    if (isWrite) {
        casWrites.inc();
    } else {
        casReads.inc();
        readQueueDelay.sample(static_cast<double>(dataStart -
                                                  req.enqueuedAt));
        readLatency.sample(static_cast<double>(dataEnd + ioDelay -
                                               req.enqueuedAt));
    }

    EventQueue::Callback cb = takeCb(req.cb);
    if (cb) {
        const Tick doneAt = isWrite ? dataEnd : dataEnd + ioDelay;
        eq_.schedule(doneAt, std::move(cb));
    }
}

void
Channel::kick()
{
    kicks.inc();

    // Issue eagerly while the best candidate's data transfer could
    // begin within maxAhead(); beyond that, sleep until the candidate
    // becomes imminent so newly arriving requests can still reorder.
    while (true) {
        const std::size_t readLen = readQueueLen();
        if (readLen == 0 && writeQ_.empty()) {
            kicksEmpty.inc();
            return;
        }

        // Write batching: start draining above the high watermark or
        // when reads are idle; stop at the low watermark.
        if (draining_) {
            if (writeQ_.size() <= cfg_.writeQueueLow)
                draining_ = false;
        } else if (writeQ_.size() >= cfg_.writeQueueHigh) {
            draining_ = true;
        }

        const bool fromWrites =
            (draining_ && !writeQ_.empty()) || readLen == 0;

        // The scan already probed the winner's bank, so its data-ready
        // tick rides along in the Pick — no second peek here. Reads
        // scan as one sequence — demands, then lows — which is the
        // FR-FCFS scan (and tie-break) order of a combined
        // priority-sorted queue.
        std::pair<const HotReq *, std::size_t> spans[4];
        std::size_t nspans;
        if (fromWrites) {
            spans[0] = writeQ_.seg0();
            spans[1] = writeQ_.seg1();
            nspans = 2;
        } else {
            spans[0] = readDemandQ_.seg0();
            spans[1] = readDemandQ_.seg1();
            spans[2] = readLowQ_.seg0();
            spans[3] = readLowQ_.seg1();
            nspans = 4;
        }
        const Pick p = pickSpans(
            spans, nspans,
            std::min<std::size_t>(fromWrites ? writeQ_.size() : readLen,
                                  cfg_.schedulerScanDepth));

        const Tick start =
            placeBus(p.dataReadyAt, bankTiming_.burst, false);
        if (start > eq_.now() + maxAhead()) {
            kicksWait.inc();
            scheduleKick(start - maxAhead());
            return;
        }

        kicksIssue.inc();
        if (fromWrites)
            issue(writeQ_, p.idx, true);
        else if (p.idx < readDemandQ_.size())
            issue(readDemandQ_, p.idx, false);
        else
            issue(readLowQ_, p.idx - readDemandQ_.size(), false);
    }
}

void
Channel::save(ckpt::Serializer &s) const
{
    if (readQueueLen() != 0 || !writeQ_.empty() || kickPending_)
        throw ckpt::CkptError(
            "ckpt: DRAM channel not quiescent (requests in flight); "
            "checkpoints must be taken before the timed run");
    s.u64(banks_.size());
    for (const Bank &b : banks_)
        b.save(s);
    s.u64(busResv_.size() - busHead_);
    for (std::size_t i = busHead_; i < busResv_.size(); ++i) {
        s.u64(busResv_[i].first);
        s.u64(busResv_[i].second);
    }
    s.boolean(lastWasWrite_);
    s.boolean(draining_);
    s.u64(nextKickAt_);
    s.u64(busBusy_);
    s.u64(kicks.value());
    s.u64(kicksEmpty.value());
    s.u64(kicksWait.value());
    s.u64(kicksIssue.value());
    s.u64(casReads.value());
    s.u64(casWrites.value());
    s.u64(rowHits.value());
    s.u64(rowMisses.value());
    s.u64(turnarounds.value());
    s.u64(refreshes.value());
    s.f64(readQueueDelay.sum());
    s.u64(readQueueDelay.count());
    s.f64(readLatency.sum());
    s.u64(readLatency.count());
}

void
Channel::restore(ckpt::Deserializer &d)
{
    if (readQueueLen() != 0 || !writeQ_.empty() || kickPending_)
        throw ckpt::CkptError(
            "ckpt: cannot restore into a DRAM channel with requests "
            "in flight");
    if (d.u64() != banks_.size())
        throw ckpt::CkptError("ckpt: DRAM bank count mismatch");
    for (Bank &b : banks_)
        b.restore(d);
    busResv_.resize(d.u64());
    busHead_ = 0;
    for (auto &[start, end] : busResv_) {
        start = d.u64();
        end = d.u64();
    }
    lastWasWrite_ = d.boolean();
    draining_ = d.boolean();
    nextKickAt_ = d.u64();
    busBusy_ = d.u64();
    kicks.set(d.u64());
    kicksEmpty.set(d.u64());
    kicksWait.set(d.u64());
    kicksIssue.set(d.u64());
    casReads.set(d.u64());
    casWrites.set(d.u64());
    rowHits.set(d.u64());
    rowMisses.set(d.u64());
    turnarounds.set(d.u64());
    refreshes.set(d.u64());
    const double rqd_sum = d.f64();
    readQueueDelay.restoreState(rqd_sum, d.u64());
    const double rl_sum = d.f64();
    readLatency.restoreState(rl_sum, d.u64());
}

} // namespace dapsim
