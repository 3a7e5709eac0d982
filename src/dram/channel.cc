#include "dram/channel.hh"

#include <algorithm>
#include <bit>

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
      depth_(cfg.schedulerScanDepth),
      depthMask_(cfg.schedulerScanDepth >= 64
                     ? ~std::uint64_t(0)
                     : (std::uint64_t(1) << cfg.schedulerScanDepth) - 1),
      banks_(cfg.ranksPerChannel * cfg.banksPerRank)
{
    for (Window &w : windows_)
        w.banks.resize(banks_.size());
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
    // Every row closed: no windowed request hits any more.
    for (Window &w : windows_)
        for (BankWindow &b : w.banks)
            b.hit = 0;
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
    if (req.isWrite) {
        if (writeQ_.size() < depth_)
            admit(windows_[kWrites], writeQ_.size(), hot);
        writeQ_.push_back(hot);
    } else if (req.lowPriority) {
        if (readQueueLen() < depth_)
            admit(windows_[kReads], readQueueLen(), hot);
        readLowQ_.push_back(hot);
    } else {
        // Demands scan ahead of lows: the new read takes the window
        // position after the last demand and pushes the windowed lows
        // (and with them the window's last entry) back by one.
        const std::size_t at = readDemandQ_.size();
        if (at < depth_) {
            if (at < readQueueLen())
                openSlot(windows_[kReads], at);
            admit(windows_[kReads], at, hot);
        }
        readDemandQ_.push_back(hot);
    }
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

const Channel::HotReq &
Channel::windowEntry(std::size_t cls, std::size_t i) const
{
    if (cls == kWrites)
        return writeQ_[i];
    return i < readDemandQ_.size() ? readDemandQ_[i]
                                   : readLowQ_[i - readDemandQ_.size()];
}

void
Channel::admit(Window &w, std::size_t i, const HotReq &r)
{
    const std::uint64_t bit = std::uint64_t(1) << i;
    BankWindow &b = w.banks[r.bank];
    b.pos |= bit;
    if (r.row == banks_[r.bank].openRow())
        b.hit |= bit;
    w.active |= std::uint64_t(1) << r.bank;
}

void
Channel::openSlot(Window &w, std::size_t i)
{
    const std::uint64_t keep = (std::uint64_t(1) << i) - 1;
    for (std::uint64_t act = w.active; act != 0; act &= act - 1) {
        const unsigned bank = static_cast<unsigned>(std::countr_zero(act));
        BankWindow &b = w.banks[bank];
        b.pos = ((b.pos & ~keep) << 1 | (b.pos & keep)) & depthMask_;
        b.hit = ((b.hit & ~keep) << 1 | (b.hit & keep)) & depthMask_;
        if (b.pos == 0)
            w.active &= ~(std::uint64_t(1) << bank);
    }
}

void
Channel::closeSlot(Window &w, std::size_t i, std::uint32_t bank)
{
    const std::uint64_t bit = std::uint64_t(1) << i;
    BankWindow &own = w.banks[bank];
    own.pos &= ~bit;
    own.hit &= ~bit;
    if (own.pos == 0)
        w.active &= ~(std::uint64_t(1) << bank);
    const std::uint64_t keep = bit - 1;
    for (std::uint64_t act = w.active; act != 0; act &= act - 1) {
        BankWindow &b = w.banks[std::countr_zero(act)];
        b.pos = (b.pos & keep) | ((b.pos >> 1) & ~keep);
        b.hit = (b.hit & keep) | ((b.hit >> 1) & ~keep);
    }
}

void
Channel::refreshHits(std::uint32_t bank)
{
    const std::uint64_t row = banks_[bank].openRow();
    for (std::size_t cls : {kReads, kWrites}) {
        BankWindow &b = windows_[cls].banks[bank];
        std::uint64_t hit = 0;
        for (std::uint64_t m = b.pos; m != 0; m &= m - 1) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(m));
            if (windowEntry(cls, i).row == row)
                hit |= std::uint64_t(1) << i;
        }
        b.hit = hit;
    }
}

Channel::Pick
Channel::pick(const Window &w) const
{
    // FR-FCFS flavour: within the scan window, choose the request
    // whose data could start earliest (row hits on ready banks win;
    // requests to backed-up banks lose). Ties resolve to the oldest,
    // which bounds starvation together with the scan depth. A bank's
    // windowed requests share one of two data-ready ticks (its open
    // row's, or any other row's), so only the earliest position of
    // each kind per bank can win: the lexicographic min of
    // (ready, position) over those candidates is the scan's answer.
    const Tick now = eq_.now();
    Pick best{0, ~Tick(0)};
    const auto consider = [&best](Tick ready, std::uint64_t mask) {
        const auto idx = static_cast<std::size_t>(std::countr_zero(mask));
        if (ready < best.dataReadyAt ||
            (ready == best.dataReadyAt && idx < best.idx))
            best = Pick{idx, ready};
    };
    for (std::uint64_t act = w.active; act != 0; act &= act - 1) {
        const unsigned bank = static_cast<unsigned>(std::countr_zero(act));
        const BankWindow &b = w.banks[bank];
        const Bank::Probe pr = banks_[bank].probe(bankTiming_, now);
        if (b.hit != 0)
            consider(pr.hitAt, b.hit);
        if (const std::uint64_t other = b.pos & ~b.hit; other != 0)
            consider(pr.otherAt, other);
    }
    return best;
}

Channel::BusSlot
Channel::placeBus(Tick ready, Tick occ)
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
    if (busResv_.empty() || ready >= busResv_.back().second)
        return BusSlot{ready, busResv_.size()};

    // Reservations that end at or before @p ready can neither hold
    // the slot back nor follow it: start the gap walk past them.
    const auto first = std::partition_point(
        busResv_.begin() + static_cast<std::ptrdiff_t>(busHead_),
        busResv_.end(),
        [ready](const std::pair<Tick, Tick> &r) { return r.second <= ready; });
    Tick start = ready;
    auto pos = static_cast<std::size_t>(first - busResv_.begin());
    for (; pos < busResv_.size(); ++pos) {
        const auto &[s, e] = busResv_[pos];
        if (start + occ <= s)
            break; // fits in the gap before this reservation
        if (start < e)
            start = e; // overlap: push past it
    }
    return BusSlot{start, pos};
}

void
Channel::issue(std::size_t cls, const Pick &p, const BusSlot &probed)
{
    const bool isWrite = cls == kWrites;
    const std::size_t idx = p.idx;
    const HotReq req = windowEntry(cls, idx);
    if (isWrite)
        writeQ_.erase(idx);
    else if (idx < readDemandQ_.size())
        readDemandQ_.erase(idx);
    else
        readLowQ_.erase(idx - readDemandQ_.size());
    // The request leaves the window; the first one behind the window
    // (if any) moves into its last position.
    Window &w = windows_[cls];
    closeSlot(w, idx, req.bank);
    if ((isWrite ? writeQ_.size() : readQueueLen()) >= depth_)
        admit(w, depth_ - 1, windowEntry(cls, depth_ - 1));

    Bank &bank = banks_[req.bank];
    const Bank::Access acc = bank.reserve(bankTiming_, eq_.now(), req.row);
    if (!acc.rowHit)
        refreshHits(req.bank); // the bank opened another row

    Tick occupancy = bankTiming_.burst +
                     req.extraDataClocks * timing_.period;
    if (isWrite != lastWasWrite_) {
        // Direction flip: charge the turnaround as bus occupancy.
        occupancy += timing_.turnaround;
        turnarounds.inc();
    }
    lastWasWrite_ = isWrite;

    // kick() placed a plain burst at the same ready tick a moment ago
    // (same tick, same reservations): reuse that placement.
    const BusSlot slot =
        occupancy == bankTiming_.burst && acc.dataReadyAt == p.dataReadyAt
            ? probed
            : placeBus(acc.dataReadyAt, occupancy);
    const Tick dataStart = slot.start;
    const Tick dataEnd = dataStart + occupancy;
    busResv_.insert(busResv_.begin() + static_cast<std::ptrdiff_t>(slot.pos),
                    {dataStart, dataEnd});
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
        const std::size_t cls = fromWrites ? kWrites : kReads;
        const Pick p = pick(windows_[cls]);

        const BusSlot slot = placeBus(p.dataReadyAt, bankTiming_.burst);
        if (slot.start > eq_.now() + maxAhead()) {
            kicksWait.inc();
            scheduleKick(slot.start - maxAhead());
            return;
        }

        kicksIssue.inc();
        issue(cls, p, slot);
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
