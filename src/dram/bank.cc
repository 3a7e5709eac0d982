#include "dram/bank.hh"

#include <algorithm>
#include <type_traits>

#include "dram/dram_config.hh"

namespace dapsim
{

// Three u64 state words: ~2.6 banks per cache line in a channel's
// bank array, and memcpy-safe for checkpoints.
static_assert(std::is_trivially_copyable_v<Bank>);
static_assert(sizeof(Bank) == 3 * sizeof(std::uint64_t));

BankTiming
BankTiming::from(const DramConfig &cfg)
{
    const Tick period = cfg.periodPs();
    BankTiming t;
    t.tCas = cfg.tCAS * period;
    t.tRcd = cfg.tRCD * period;
    t.tRp = cfg.tRP * period;
    t.tRas = cfg.tRAS * period;
    t.tRfc = cfg.tRFC * period;
    t.burst = cfg.burstTicks();
    return t;
}

Bank::Probe
Bank::probe(const BankTiming &t, Tick at) const
{
    const Tick start = std::max(at, readyAt_);
    Probe p;
    p.openRow = openRow_;
    if (openRow_ == kNoRow) {
        // Page-empty: every row pays activate + column access.
        p.hitAt = p.otherAt = start + t.tRcd + t.tCas;
    } else {
        p.hitAt = start + t.tCas;
        const Tick preAt = std::max(start, activatedAt_ + t.tRas);
        p.otherAt = preAt + t.tRp + t.tRcd + t.tCas;
    }
    return p;
}

Bank::Access
Bank::reserve(const BankTiming &t, Tick at, std::uint64_t row)
{
    Tick start = std::max(at, readyAt_);
    Access acc{};
    acc.rowHit = (openRow_ == row);
    acc.rowEmpty = (openRow_ == kNoRow);

    if (acc.rowHit) {
        acc.dataReadyAt = start + t.tCas;
    } else if (acc.rowEmpty) {
        activatedAt_ = start;
        acc.dataReadyAt = start + t.tRcd + t.tCas;
    } else {
        // Row conflict: precharge (respecting tRAS), activate, read.
        const Tick preAt = std::max(start, activatedAt_ + t.tRas);
        activatedAt_ = preAt + t.tRp;
        acc.dataReadyAt = activatedAt_ + t.tRcd + t.tCas;
    }

    openRow_ = row;
    // Column commands pipeline at tCCD (one burst) on an open row: the
    // bank accepts the next CAS one burst after this one's command
    // slot, while this access's data arrives tCAS later.
    const Tick cmd_at = acc.dataReadyAt - t.tCas;
    readyAt_ = cmd_at + t.burst;
    return acc;
}

void
Bank::refresh(const BankTiming &t, Tick now)
{
    openRow_ = kNoRow;
    const Tick start = std::max(now, readyAt_);
    readyAt_ = start + t.tRfc;
}

Bank::Access
Bank::reserve(const DramConfig &cfg, Tick at, std::uint64_t row)
{
    return reserve(BankTiming::from(cfg), at, row);
}

void
Bank::refresh(const DramConfig &cfg, Tick now)
{
    refresh(BankTiming::from(cfg), now);
}

} // namespace dapsim
