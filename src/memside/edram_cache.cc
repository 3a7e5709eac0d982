#include "memside/edram_cache.hh"

namespace dapsim
{

EdramCache::EdramCache(EventQueue &eq, DramSystem &main_memory,
                       PartitionPolicy &policy,
                       const EdramCacheConfig &cfg)
    : MemSideCache(eq, main_memory, policy), cfg_(cfg),
      secDiv_(FastDiv::of(cfg.sectorBytes)),
      wayDiv_(FastDiv::of(cfg.ways)),
      readArray_(eq, cfg.readChannels), writeArray_(eq, cfg.writeChannels),
      dir_(cfg.numSets(), cfg.ways, ReplPolicy::NRU),
      footprint_(cfg.footprint, cfg.blocksPerSector())
{
}

Addr
EdramCache::dataAddr(std::uint64_t sec, std::uint32_t blk) const
{
    const std::uint64_t frame =
        setOf(sec) * cfg_.ways + wayDiv_.mod(sec);
    return frame * cfg_.sectorBytes +
           static_cast<Addr>(blk) * kBlockBytes;
}

void
EdramCache::handleRead(Addr addr, Done done)
{
    window_.lookups++;
    const std::uint64_t set = setOf(sectorNumber(addr));

    if (policy_.isSetDisabled(set)) {
        readMisses.inc();
        window_.aMm++;
        memAccess(addr, false, done);
        return;
    }

    // On-die SRAM tag lookup: pure latency, no array bandwidth.
    eq_.scheduleAfter(
        cpuCyclesToTicks(cfg_.tagLookupCycles),
        readEvent<&EdramCache::resolveRead>(this, openRead(addr, done)));
}

void
EdramCache::resolveRead(std::uint32_t id)
{
    const Addr addr = readRec(id).addr;
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    SectorMeta *m = dir_.find(set, tag);
    policy_.noteReadOutcome(addr, m != nullptr && m->isValid(blk));
    if (m != nullptr && m->isValid(blk)) {
        readHits.inc();
        window_.hits++;
        window_.aMs++;
        window_.aMsRead++;
        dir_.touch(set, tag);
        m->touch(blk);
        const bool clean = !m->isDirty(blk);
        if (clean) {
            cleanReadHits.inc();
            window_.cleanHits++;
            if (policy_.shouldForceReadMiss(addr)) {
                forcedReadMisses.inc();
                memAccess(addr, false, takeDone(id));
                return;
            }
        }
        readArray_.access(dataAddr(sec, blk), false, takeDone(id));
        return;
    }

    readMisses.inc();
    window_.aMm++;

    bool fill;
    if (m != nullptr) {
        dir_.touch(set, tag);
        m->touch(blk);
        fill = launchFill(sec, blk);
    } else {
        fill = allocateSector(sec, blk);
    }
    ReadRec &r = readRec(id);
    r.sec = sec;
    r.blk = blk;
    r.fill = fill;
    memAccess(addr, false, readEvent<&EdramCache::missDone>(this, id));
}

void
EdramCache::missDone(std::uint32_t id)
{
    const ReadRec &r = readRec(id);
    if (r.fill)
        writeArray_.access(dataAddr(r.sec, r.blk), true);
    completeRead(id);
}

bool
EdramCache::launchFill(std::uint64_t sec, std::uint32_t blk)
{
    window_.readMisses++;
    window_.aMs++;
    window_.aMsWrite++;
    const std::uint64_t set = setOf(sec);
    SectorMeta *m = dir_.find(set, tagOf(sec));
    if (m == nullptr)
        return false;
    const Addr addr = sec * cfg_.sectorBytes +
                      static_cast<Addr>(blk) * kBlockBytes;
    if (policy_.shouldBypassFill(addr)) {
        fillsBypassed.inc();
        return false;
    }
    fills.inc();
    m->setValid(blk);
    return true;
}

void
EdramCache::writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                            const SectorMeta &meta)
{
    sectorEvictions.inc();
    const std::uint64_t vsec = sectorNumberFrom(set, victim_tag);
    footprint_.recordEviction(vsec, meta.touchedMask);
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if (!meta.isDirty(b))
            continue;
        window_.aMs++;
        window_.aMsRead++; // eviction read-out uses the read channels
        window_.aMm++;
        const Addr waddr = vsec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        readArray_.access(dataAddr(vsec, b), false, [this, waddr] {
            dirtyWritebacks.inc();
            memAccess(waddr, true);
        });
    }
}

bool
EdramCache::allocateSector(std::uint64_t sec, std::uint32_t blk)
{
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);

    const std::uint64_t mask = footprint_.predict(sec, blk);

    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    dir_.find(set, tag)->touch(blk);

    bool demand_fill = false;
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if ((mask & (1ULL << b)) == 0)
            continue;
        const bool fill = launchFill(sec, b);
        if (b == blk) {
            demand_fill = fill;
            continue;
        }
        if (!fill)
            continue;
        window_.aMm++;
        const Addr baddr = sec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        memAccess(baddr, false, [this, daddr = dataAddr(sec, b)] {
            writeArray_.access(daddr, true);
        }, /*low_priority=*/true);
    }
    return demand_fill;
}

bool
EdramCache::warmTouch(Addr addr, bool is_write)
{
    const std::uint64_t sec = sectorNumber(addr);
    return warmTouchSector(dir_, footprint_, setOf(sec), sec, blkOf(addr),
                           is_write);
}

void
EdramCache::handleWrite(Addr addr)
{
    window_.lookups++;
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    if (policy_.isSetDisabled(set)) {
        writeMisses.inc();
        memAccess(addr, true);
        return;
    }

    policy_.noteWrite(addr);
    window_.aMs++;
    window_.aMsWrite++;
    window_.writes++;

    SectorMeta *m = dir_.find(set, tag);
    if (m != nullptr) {
        writeHits.inc();
        window_.hits++;
        dir_.touch(set, tag);
        m->touch(blk);
        if (policy_.shouldBypassWrite(addr)) {
            writesBypassed.inc();
            memAccess(addr, true);
            if (m->isValid(blk))
                m->clearBlock(blk);
            return;
        }
        m->setDirty(blk);
        writeArray_.access(dataAddr(sec, blk), true);
        return;
    }

    writeMisses.inc();
    if (policy_.shouldBypassWrite(addr)) {
        writesBypassed.inc();
        memAccess(addr, true);
        return;
    }
    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    SectorMeta *nm = dir_.find(set, tag);
    nm->touch(blk);
    nm->setDirty(blk);
    writeArray_.access(dataAddr(sec, blk), true);
}

void
EdramCache::save(ckpt::Serializer &s) const
{
    saveBase(s);
    readArray_.save(s);
    writeArray_.save(s);
    dir_.save(s, [](ckpt::Serializer &sr, const SectorMeta &m) {
        sr.u64(m.validMask);
        sr.u64(m.dirtyMask);
        sr.u64(m.touchedMask);
    });
    footprint_.save(s);
}

void
EdramCache::restore(ckpt::Deserializer &d)
{
    restoreBase(d);
    readArray_.restore(d);
    writeArray_.restore(d);
    dir_.restore(d, [](ckpt::Deserializer &dr, SectorMeta &m) {
        m.validMask = dr.u64();
        m.dirtyMask = dr.u64();
        m.touchedMask = dr.u64();
    });
    footprint_.restore(d);
}

} // namespace dapsim
