/**
 * @file
 * Reference DRAM channel: the original per-entry FR-FCFS scan.
 *
 * This is the pre-window-summary `Channel` scheduler, frozen as the
 * behavioural oracle for the per-bank pick. Every kick walks up to
 * schedulerScanDepth queued requests in scan order (writes; or demand
 * reads, then low-priority reads), probes each request's bank and
 * keeps the earliest data-ready tick, ties to the earliest position;
 * the bus placement walks every live reservation. The differential
 * fuzz test (test_channel_sched_diff.cc) drives this channel and the
 * production one with identical enqueue streams and asserts the same
 * issue order, completion ticks and counters; bench/kernel_events.cpp
 * uses RefDramSystem as the "before" side of the channel row.
 *
 * Do not optimise or otherwise modify its scan or placement: its
 * value is that it implements the FR-FCFS contract (earliest data,
 * oldest on ties, bounded window, writes batched between watermarks)
 * in the most obviously correct way. Bank timing, request and timing
 * types are the production ones; only the scheduler is frozen. (The
 * scan's per-entry `Bank::peek` fallback for channels of more than 64
 * banks is left out: DramConfig::validate now refuses them.)
 */

#ifndef DAPSIM_TESTS_REFERENCE_CHANNEL_HH
#define DAPSIM_TESTS_REFERENCE_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/channel.hh"
#include "dram/dram_config.hh"

namespace dapsim
{

/** One channel with its banks, queues and the scanning scheduler. */
class RefChannel
{
  public:
    RefChannel(EventQueue &eq, const DramConfig &cfg, std::uint32_t index)
        : eq_(eq), cfg_(cfg), bankTiming_(BankTiming::from(cfg)),
          timing_(ChannelTiming::from(cfg)), index_(index),
          banks_(cfg.ranksPerChannel * cfg.banksPerRank)
    {
        if (cfg_.tREFI > 0) {
            const Tick first =
                (index + 1) * timing_.refi / (cfg_.channels + 1);
            eq_.schedule(first, EventQueue::Callback::of<
                                    &RefChannel::refreshTick>(this));
        }
    }

    void
    enqueue(ChannelRequest req)
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
    setBusTrace(BusTraceHook *hook, std::string source)
    {
        busTrace_ = hook;
        traceSource_ = std::move(source);
    }

    std::size_t
    readQueueLen() const
    {
        return readDemandQ_.size() + readLowQ_.size();
    }
    std::size_t writeQueueLen() const { return writeQ_.size(); }
    Tick busBusyTicks() const { return busBusy_; }

    Counter kicks;
    Counter kicksEmpty;
    Counter kicksWait;
    Counter kicksIssue;
    Counter casReads;
    Counter casWrites;
    Counter rowHits;
    Counter rowMisses;
    Counter turnarounds;
    Counter refreshes;
    Average readQueueDelay;
    Average readLatency;

  private:
    struct HotReq
    {
        std::uint64_t row;
        Tick enqueuedAt;
        std::uint32_t bank;
        std::uint32_t extraDataClocks;
        std::uint32_t cb;
    };

    struct Pick
    {
        std::size_t idx = 0;
        Tick dataReadyAt = 0;
    };

    void
    refreshTick()
    {
        refreshes.inc();
        for (Bank &b : banks_)
            b.refresh(bankTiming_, eq_.now());
        eq_.scheduleAfter(timing_.refi, EventQueue::Callback::of<
                                            &RefChannel::refreshTick>(this));
    }

    std::uint32_t
    putCb(EventQueue::Callback &&cb)
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
    takeCb(std::uint32_t idx)
    {
        EventQueue::Callback cb = std::move(cbSlots_[idx]);
        cbFree_.push_back(idx);
        return cb;
    }

    void
    scheduleKick(Tick when)
    {
        if (when < eq_.now())
            when = eq_.now();
        if (kickPending_ && when >= nextKickAt_)
            return;
        kickPending_ = true;
        nextKickAt_ = when;
        eq_.schedule(when,
                     EventQueue::Callback::of<&RefChannel::kickTick>(this));
    }

    void
    kickTick()
    {
        if (!kickPending_ || eq_.now() != nextKickAt_)
            return;
        kickPending_ = false;
        kick();
    }

    /** The scan: earliest data-ready tick among the first @p depth
     *  entries of the concatenated @p spans, ties to the earliest. */
    Pick
    pickSpans(const std::pair<const HotReq *, std::size_t> *spans,
              std::size_t nspans, std::size_t depth) const
    {
        const Tick now = eq_.now();
        const Tick floor = now + bankTiming_.tCas;
        Pick best{0, ~Tick(0)};
        // One probe per distinct bank (at most 64, DramConfig::validate).
        Bank::Probe probes[64];
        std::uint64_t have = 0;
        std::size_t base = 0;
        for (std::size_t s = 0; s < nspans && depth != 0; ++s) {
            const HotReq *p = spans[s].first;
            const std::size_t n = std::min(spans[s].second, depth);
            depth -= n;
            for (std::size_t i = 0; i < n; ++i) {
                const HotReq &r = p[i];
                const std::uint64_t bit = std::uint64_t(1) << r.bank;
                if ((have & bit) == 0) {
                    probes[r.bank] = banks_[r.bank].probe(bankTiming_, now);
                    have |= bit;
                }
                const Bank::Probe &pr = probes[r.bank];
                const Tick ready =
                    r.row == pr.openRow ? pr.hitAt : pr.otherAt;
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

    /** Earliest bus slot of length @p occ at or after @p ready,
     *  walking every live reservation; @p reserve claims it. */
    Tick
    placeBus(Tick ready, Tick occ, bool reserve)
    {
        const Tick now = eq_.now();
        while (busHead_ < busResv_.size() &&
               busResv_[busHead_].second <= now)
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
                break;
            if (start < e)
                start = e;
        }
        if (reserve) {
            busResv_.insert(busResv_.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            {start, start + occ});
        }
        return start;
    }

    void
    issue(RingDeque<HotReq> &q, std::size_t idx, bool isWrite)
    {
        const HotReq req = q[idx];
        q.erase(idx);

        Bank &bank = banks_[req.bank];
        const Bank::Access acc =
            bank.reserve(bankTiming_, eq_.now(), req.row);

        Tick occupancy = bankTiming_.burst +
                         req.extraDataClocks * timing_.period;
        if (isWrite != lastWasWrite_) {
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
            readQueueDelay.sample(
                static_cast<double>(dataStart - req.enqueuedAt));
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
    kick()
    {
        kicks.inc();
        while (true) {
            const std::size_t readLen = readQueueLen();
            if (readLen == 0 && writeQ_.empty()) {
                kicksEmpty.inc();
                return;
            }

            if (draining_) {
                if (writeQ_.size() <= cfg_.writeQueueLow)
                    draining_ = false;
            } else if (writeQ_.size() >= cfg_.writeQueueHigh) {
                draining_ = true;
            }

            const bool fromWrites =
                (draining_ && !writeQ_.empty()) || readLen == 0;

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
                std::min<std::size_t>(
                    fromWrites ? writeQ_.size() : readLen,
                    cfg_.schedulerScanDepth));

            const Tick start =
                placeBus(p.dataReadyAt, bankTiming_.burst, false);
            if (start > eq_.now() + timing_.maxAhead) {
                kicksWait.inc();
                scheduleKick(start - timing_.maxAhead);
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

    EventQueue &eq_;
    const DramConfig &cfg_;
    BankTiming bankTiming_;
    ChannelTiming timing_;
    std::uint32_t index_;

    RingDeque<HotReq> readDemandQ_;
    RingDeque<HotReq> readLowQ_;
    RingDeque<HotReq> writeQ_;
    std::vector<EventQueue::Callback> cbSlots_;
    std::vector<std::uint32_t> cbFree_;
    std::vector<Bank> banks_;

    std::vector<std::pair<Tick, Tick>> busResv_;
    std::size_t busHead_ = 0;
    static constexpr std::size_t kBusCompactAt = 64;

    bool lastWasWrite_ = false;
    bool draining_ = false;
    bool kickPending_ = false;
    Tick nextKickAt_ = 0;
    Tick busBusy_ = 0;

    BusTraceHook *busTrace_ = nullptr;
    std::string traceSource_;
};

/** DramSystem's address decode in front of RefChannels: the "before"
 *  side of the channel benchmark row. */
class RefDramSystem
{
  public:
    RefDramSystem(EventQueue &eq, DramConfig cfg)
        : eq_(eq), cfg_(std::move(cfg))
    {
        cfg_.validate();
        chDiv_ = FastDiv::of(cfg_.channels);
        rowBlkDiv_ = FastDiv::of(
            static_cast<std::uint64_t>(cfg_.channels) *
            cfg_.blocksPerRow());
        colDiv_ = FastDiv::of(cfg_.blocksPerRow());
        bankDiv_ = FastDiv::of(static_cast<std::uint64_t>(
                                   cfg_.ranksPerChannel) *
                               cfg_.banksPerRank);
        for (std::uint32_t i = 0; i < cfg_.channels; ++i)
            channels_.push_back(
                std::make_unique<RefChannel>(eq_, cfg_, i));
    }

    void
    access(Addr addr, bool is_write,
           EventQueue::Callback on_complete = nullptr,
           std::uint32_t extra_clocks = 0, bool low_priority = false)
    {
        std::uint64_t b = blockNumber(addr);
        const std::uint64_t global_row = rowBlkDiv_.div(b);
        const auto channel = static_cast<std::uint32_t>(
            chDiv_.mod(b + indexHash(global_row)));
        b = colDiv_.div(chDiv_.div(b));
        ChannelRequest req;
        req.bank = static_cast<std::uint32_t>(bankDiv_.mod(b));
        req.row = bankDiv_.div(b);
        req.isWrite = is_write;
        req.extraDataClocks = extra_clocks;
        req.lowPriority = low_priority;
        req.onComplete = std::move(on_complete);
        channels_[channel]->enqueue(std::move(req));
    }

    std::uint64_t
    casOps() const
    {
        std::uint64_t n = 0;
        for (const auto &c : channels_)
            n += c->casReads.value() + c->casWrites.value();
        return n;
    }

    RefChannel &channel(std::uint32_t i) { return *channels_[i]; }

  private:
    EventQueue &eq_;
    DramConfig cfg_;
    FastDiv chDiv_;
    FastDiv rowBlkDiv_;
    FastDiv colDiv_;
    FastDiv bankDiv_;
    std::vector<std::unique_ptr<RefChannel>> channels_;
};

} // namespace dapsim

#endif // DAPSIM_TESTS_REFERENCE_CHANNEL_HH
