#include "memside/footprint_prefetcher.hh"

#include <type_traits>

#include "common/log.hh"

namespace dapsim
{

FootprintPrefetcher::FootprintPrefetcher(const FootprintConfig &cfg,
                                         std::uint32_t blocks_per_sector)
    : cfg_(cfg), blocksPerSector_(blocks_per_sector),
      idxDiv_(FastDiv::of(cfg.tableEntries)),
      table_(cfg.tableEntries)
{
    if (blocks_per_sector == 0 || blocks_per_sector > 64)
        fatal("FootprintPrefetcher: sector must hold 1..64 blocks");
}

std::size_t
FootprintPrefetcher::indexOf(std::uint64_t sector_number) const
{
    return static_cast<std::size_t>(idxDiv_.mod(
        (sector_number * 0x9e3779b97f4a7c15ULL) >> 32));
}

std::uint64_t
FootprintPrefetcher::predict(std::uint64_t sector_number,
                             std::uint32_t demand_blk)
{
    const std::uint64_t demand_bit = 1ULL << demand_blk;
    if (!cfg_.enabled)
        return demand_bit;
    predictions.inc();

    const Entry &e = table_[indexOf(sector_number)];
    if (e.tag == sector_number && e.mask != 0) {
        historyHits.inc();
        return e.mask | demand_bit;
    }

    // Cold prediction: a short sequential run from the demand block.
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < cfg_.coldRunLength; ++i) {
        const std::uint32_t blk = demand_blk + i;
        if (blk >= blocksPerSector_)
            break;
        mask |= 1ULL << blk;
    }
    return mask | demand_bit;
}

void
FootprintPrefetcher::recordEviction(std::uint64_t sector_number,
                                    std::uint64_t used_mask)
{
    if (!cfg_.enabled)
        return;
    Entry &e = table_[indexOf(sector_number)];
    e.tag = sector_number;
    e.mask = used_mask;
}

void
FootprintPrefetcher::save(ckpt::Serializer &s) const
{
    s.u64(table_.size());
    s.u32(blocksPerSector_);
    // Entry is two packed u64s; the whole table goes out as one
    // little-endian span (and restores with a single memcpy).
    static_assert(sizeof(Entry) == 2 * sizeof(std::uint64_t));
    static_assert(std::has_unique_object_representations_v<Entry>);
    s.u64Span(reinterpret_cast<const std::uint64_t *>(table_.data()),
              table_.size() * 2);
    s.u64(predictions.value());
    s.u64(historyHits.value());
}

void
FootprintPrefetcher::restore(ckpt::Deserializer &d)
{
    if (d.u64() != table_.size() || d.u32() != blocksPerSector_)
        throw ckpt::CkptError("ckpt: footprint table shape mismatch");
    d.u64Span(reinterpret_cast<std::uint64_t *>(table_.data()),
              table_.size() * 2);
    predictions.set(d.u64());
    historyHits.set(d.u64());
}

} // namespace dapsim
