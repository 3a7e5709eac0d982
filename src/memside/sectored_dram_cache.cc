#include "memside/sectored_dram_cache.hh"

namespace dapsim
{

SectoredDramCacheConfig
edramCacheConfig()
{
    SectoredDramCacheConfig cfg;
    cfg.capacityBytes = 4 * kMiB;
    cfg.ways = 16;
    cfg.sectorBytes = 1 * kKiB;
    cfg.array = presets::edram_dir_51();
    cfg.writeChannels = presets::edram_dir_51();
    cfg.onDieTagCycles = 8;
    return cfg;
}

SectoredDramCache::SectoredDramCache(EventQueue &eq,
                                     DramSystem &main_memory,
                                     PartitionPolicy &policy,
                                     const SectoredDramCacheConfig &cfg)
    : MemSideCache(eq, main_memory, policy), cfg_(cfg),
      secDiv_(FastDiv::of(cfg.sectorBytes)),
      wayDiv_(FastDiv::of(cfg.ways)),
      array_(eq, cfg.array),
      writeChannels_(cfg.writeChannels ? std::make_unique<DramSystem>(
                                             eq, *cfg.writeChannels)
                                       : nullptr),
      writeArray_(writeChannels_ ? writeChannels_.get() : &array_),
      dir_(cfg.numSets(), cfg.ways, ReplPolicy::NRU),
      tagCache_(cfg.tagCache),
      footprint_(cfg.footprint, cfg.blocksPerSector())
{
    if (writeChannels_) {
        addArray("msReadArray", array_);
        addArray("msWriteArray", *writeChannels_);
    } else {
        addArray("msArray", array_);
    }
}

Addr
SectoredDramCache::dataAddr(std::uint64_t sec, std::uint32_t blk) const
{
    // A sector occupies the frame (set, sec mod ways): blocks of a
    // sector share a DRAM row neighbourhood and the set's metadata is
    // co-located with its frames (as real sectored DRAM caches do).
    const std::uint64_t frame =
        setOf(sec) * cfg_.ways + wayDiv_.mod(sec);
    return frame * cfg_.sectorBytes +
           static_cast<Addr>(blk) * kBlockBytes;
}

Addr
SectoredDramCache::metaAddr(std::uint64_t set) const
{
    // Metadata lives alongside the set's first frame, sharing its row.
    return set * cfg_.ways * cfg_.sectorBytes;
}

void
SectoredDramCache::markMetaDirty(std::uint64_t set)
{
    if (cfg_.onDieTagCycles)
        return; // on-die tags are updated in place
    if (cfg_.tagCache.enabled) {
        tagCache_.markDirty(set);
    } else {
        issueMetaWrite(set);
    }
}

void
SectoredDramCache::issueMetaWrite(std::uint64_t set)
{
    window_.aMs++;
    array_.access(metaAddr(set), true);
}

void
SectoredDramCache::lookupTags(Addr addr, std::uint32_t id)
{
    if (cfg_.onDieTagCycles) {
        // On-die SRAM tags: pure latency, no array bandwidth.
        if (id != kNoRead)
            eq_.scheduleAfter(
                cpuCyclesToTicks(*cfg_.onDieTagCycles),
                readEvent<&SectoredDramCache::resolveRead>(this, id));
        return;
    }
    const std::uint64_t set = setOf(sectorNumber(addr));
    const TagCache::LookupResult tc = tagCache_.access(set);
    if (tc.writebackNeeded)
        issueMetaWrite(set);
    const auto next = [&]() -> Done {
        if (id == kNoRead)
            return [] {};
        return readEvent<&SectoredDramCache::resolveRead>(this, id);
    };

    if (tc.hit) {
        eq_.scheduleAfter(cpuCyclesToTicks(cfg_.tagCache.lookupCycles),
                          next());
        return;
    }

    // Metadata must be fetched from the DRAM array.
    window_.aMs++;
    if (id != kNoRead && policy_.shouldSpeculateToMemory(addr)) {
        // SFRM: launch the memory read in parallel with the tag fetch.
        readRec(id).spec = true;
        speculativeReads.inc();
        memAccess(addr, false,
                  readEvent<&SectoredDramCache::sfrmDone>(this, id));
    }
    array_.access(metaAddr(set), false, next());
}

void
SectoredDramCache::sfrmDone(std::uint32_t id)
{
    ReadRec &r = readRec(id);
    r.memDone = true;
    if (r.needMem)
        completeRead(id);
    // A dirty hit drops this response (bandwidth wasted).
}

void
SectoredDramCache::handleRead(Addr addr, Done done)
{
    window_.lookups++;
    const std::uint64_t set = setOf(sectorNumber(addr));

    if (policy_.isSetDisabled(set)) {
        // BATMAN: disabled sets are served straight from memory.
        readMisses.inc();
        window_.aMm++;
        memAccess(addr, false, done);
        return;
    }

    SteerInfo steer;
    steer.expectedCacheLatency = static_cast<double>(
        array_.totalReadQueue() + 1) * static_cast<double>(
        cfg_.array.burstTicks()) + array_.meanReadLatency();
    steer.expectedMemLatency = static_cast<double>(
        mm_.totalReadQueue() + 1) * static_cast<double>(
        mm_.config().burstTicks()) + mm_.meanReadLatency();
    if (policy_.steerToMemory(addr, steer)) {
        // SBD: serve from memory unless the block is dirty here.
        const std::uint64_t sec = sectorNumber(addr);
        const SectorMeta *m = dir_.find(set, tagOf(sec));
        if (m == nullptr || !m->isDirty(blkOf(addr))) {
            steeredToMemory.inc();
            memAccess(addr, false, done);
            return;
        }
        steerOverridden.inc();
    }

    lookupTags(addr, openRead(addr, done));
}

void
SectoredDramCache::resolveRead(std::uint32_t id)
{
    const Addr addr = readRec(id).addr;
    const bool spec = readRec(id).spec;
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    SectorMeta *m = dir_.find(set, tag);
    policy_.noteReadOutcome(addr, m != nullptr && m->isValid(blk));
    if (m != nullptr && m->isValid(blk)) {
        // Read hit.
        readHits.inc();
        window_.hits++;
        demandRead();
        dir_.touch(set, tag);
        m->touch(blk);
        const bool clean = !m->isDirty(blk);
        if (clean) {
            cleanReadHits.inc();
            window_.cleanHits++;
        }

        if (spec) {
            if (clean) {
                // SFRM already fetched the data from memory; use it.
                readRec(id).needMem = true;
                if (readRec(id).memDone)
                    completeRead(id);
                return;
            }
            // Dirty hit: the memory response must be dropped and the
            // data read from the cache (wasted memory bandwidth).
            speculativeWasted.inc();
            array_.access(dataAddr(sec, blk), false, takeDone(id));
            return;
        }

        if (clean && policy_.shouldForceReadMiss(addr)) {
            // IFRM: serve the clean hit from main memory.
            forcedReadMisses.inc();
            memAccess(addr, false, takeDone(id));
            return;
        }
        array_.access(dataAddr(sec, blk), false, takeDone(id));
        return;
    }

    // Read miss (sector absent, or block invalid within the sector).
    readMisses.inc();
    window_.aMm++;

    bool fill;
    if (m != nullptr) {
        // Block miss within a resident sector.
        dir_.touch(set, tag);
        m->touch(blk);
        fill = launchFill(sec, blk);
    } else {
        fill = allocateSector(sec, blk);
    }

    ReadRec &r = readRec(id);
    if (spec) {
        // The SFRM read doubles as the demand fetch.
        if (fill)
            writeArray_->access(dataAddr(sec, blk), true);
        r.needMem = true;
        if (r.memDone)
            completeRead(id);
    } else {
        r.sec = sec;
        r.blk = blk;
        r.fill = fill;
        memAccess(addr, false,
                  readEvent<&SectoredDramCache::missDone>(this, id));
    }
}

void
SectoredDramCache::missDone(std::uint32_t id)
{
    const ReadRec &r = readRec(id);
    if (r.fill)
        writeArray_->access(dataAddr(r.sec, r.blk), true);
    completeRead(id);
}

bool
SectoredDramCache::launchFill(std::uint64_t sec, std::uint32_t blk)
{
    // One prospective fill: the FWB decision is made at launch so the
    // directory is updated immediately (no duplicate in-flight misses);
    // the array write bandwidth is charged when the data arrives.
    window_.readMisses++; // fill candidate (R_m)
    demandWrite();        // prospective fill-write demand
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
    markMetaDirty(set);
    return true;
}

void
SectoredDramCache::writebackVictim(std::uint64_t set,
                                   std::uint64_t victim_tag,
                                   const SectorMeta &meta)
{
    sectorEvictions.inc();
    const std::uint64_t vsec = sectorNumberFrom(set, victim_tag);
    footprint_.recordEviction(vsec, meta.touchedMask);
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if (!meta.isDirty(b))
            continue;
        // Dirty block: read it out of the array, then write to memory.
        demandRead();  // eviction read demand
        window_.aMm++; // write-back demand
        const Addr waddr = vsec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        array_.access(dataAddr(vsec, b), false, [this, waddr] {
            dirtyWritebacks.inc();
            memAccess(waddr, true);
        });
    }
}

bool
SectoredDramCache::allocateSector(std::uint64_t sec, std::uint32_t blk)
{
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);

    const std::uint64_t mask = footprint_.predict(sec, blk);

    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    markMetaDirty(set);
    dir_.find(set, tag)->touch(blk);

    // Fetch the predicted footprint; the demand block's memory read is
    // issued by the caller (which also charges its fill write).
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
            continue; // bypassed prefetch: skip the memory fetch too
        window_.aMm++;
        const Addr baddr = sec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        memAccess(baddr, false, [this, daddr = dataAddr(sec, b)] {
            writeArray_->access(daddr, true);
        }, /*low_priority=*/true);
    }
    return demand_fill;
}

void
SectoredDramCache::handleWrite(Addr addr)
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
    demandWrite();
    window_.writes++;

    // Writes are posted: tag lookup bandwidth is charged, but the
    // directory is updated immediately (metadata pipelining).
    lookupTags(addr, kNoRead);

    SectorMeta *m = dir_.find(set, tag);
    if (m != nullptr) {
        writeHits.inc();
        window_.hits++;
        dir_.touch(set, tag);
        m->touch(blk);
        if (policy_.shouldBypassWrite(addr)) {
            writesBypassed.inc();
            memAccess(addr, true);
            // The stale cached copy must be invalidated.
            if (m->isValid(blk)) {
                m->clearBlock(blk);
                markMetaDirty(set);
            }
            return;
        }
        m->setDirty(blk);
        markMetaDirty(set);
        writeArray_->access(dataAddr(sec, blk), true);
        if (policy_.shouldWriteThrough(addr)) {
            // SBD write-through mode: memory stays current, line clean.
            memAccess(addr, true);
            m->clearBlock(blk);
            m->setValid(blk);
            markMetaDirty(set);
        }
        return;
    }

    // Sector miss: write-allocate (no data fetch; full-block writes).
    writeMisses.inc();
    if (policy_.shouldBypassWrite(addr)) {
        writesBypassed.inc();
        memAccess(addr, true);
        return;
    }
    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    markMetaDirty(set);
    SectorMeta *nm = dir_.find(set, tag);
    nm->touch(blk);
    if (policy_.shouldWriteThrough(addr)) {
        memAccess(addr, true);
        nm->setValid(blk);
    } else {
        nm->setDirty(blk);
    }
    writeArray_->access(dataAddr(sec, blk), true);
}

bool
SectoredDramCache::warmTouch(Addr addr, bool is_write)
{
    // Allocate on a sector miss with the footprint prediction (teaching
    // the predictor the victim's used blocks), then mark the block
    // touched and valid or dirty. No timing, no statistics.
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint32_t blk = blkOf(addr);
    if (!cfg_.onDieTagCycles)
        tagCache_.access(set); // warm the tag cache (stats reset later)
    SectorMeta *m = dir_.find(set, tagOf(sec));
    const bool hit = m != nullptr && (is_write || m->isValid(blk));
    if (m == nullptr) {
        const std::uint64_t mask = footprint_.predict(sec, blk);
        auto victim = dir_.insert(set, tagOf(sec), SectorMeta{});
        if (victim.valid)
            footprint_.recordEviction(sectorNumberFrom(set, victim.tag),
                                      victim.value.touchedMask);
        m = dir_.find(set, tagOf(sec));
        m->validMask = mask;
    }
    dir_.touch(set, tagOf(sec));
    m->touch(blk);
    if (is_write)
        m->setDirty(blk);
    else
        m->setValid(blk);
    return hit;
}

bool
SectoredDramCache::isBlockResident(Addr addr) const
{
    const std::uint64_t sec = sectorNumber(addr);
    const SectorMeta *m = dir_.find(setOf(sec), tagOf(sec));
    return m != nullptr && m->isValid(blkOf(addr));
}

void
SectoredDramCache::cleanSector(Addr addr_in_sector)
{
    const std::uint64_t sec = sectorNumber(addr_in_sector);
    const std::uint64_t set = setOf(sec);
    SectorMeta *m = dir_.find(set, tagOf(sec));
    if (m == nullptr || !m->anyDirty())
        return;
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if (!m->isDirty(b))
            continue;
        demandRead();
        window_.aMm++;
        const Addr waddr = sec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        array_.access(dataAddr(sec, b), false, [this, waddr] {
            dirtyWritebacks.inc();
            memAccess(waddr, true);
        });
    }
    m->dirtyMask = 0;
    markMetaDirty(set);
}

void
SectoredDramCache::flushSet(std::uint64_t set)
{
    dir_.flushSet(set, [this, set](std::uint64_t tag, SectorMeta &meta) {
        writebackVictim(set, tag, meta);
    });
    markMetaDirty(set);
}

void
SectoredDramCache::resetWarmupStats()
{
    tagCache_.hits.reset();
    tagCache_.misses.reset();
    tagCache_.writebacks.reset();
}

// On-die-tag checkpoints keep the layout they have always had: no tag
// cache and no steer counters (which are zero at the tick-0 point
// every checkpoint is taken at).

void
SectoredDramCache::save(ckpt::Serializer &s) const
{
    saveBase(s);
    array_.save(s);
    if (writeChannels_)
        writeChannels_->save(s);
    dir_.save(s, [](ckpt::Serializer &sr, const SectorMeta &m) {
        sr.u64(m.validMask);
        sr.u64(m.dirtyMask);
        sr.u64(m.touchedMask);
    });
    if (!cfg_.onDieTagCycles)
        tagCache_.save(s);
    footprint_.save(s);
    if (!cfg_.onDieTagCycles) {
        s.u64(steeredToMemory.value());
        s.u64(steerOverridden.value());
    }
}

void
SectoredDramCache::restore(ckpt::Deserializer &d)
{
    restoreBase(d);
    array_.restore(d);
    if (writeChannels_)
        writeChannels_->restore(d);
    dir_.restore(d, [](ckpt::Deserializer &dr, SectorMeta &m) {
        m.validMask = dr.u64();
        m.dirtyMask = dr.u64();
        m.touchedMask = dr.u64();
    });
    if (!cfg_.onDieTagCycles)
        tagCache_.restore(d);
    footprint_.restore(d);
    if (!cfg_.onDieTagCycles) {
        steeredToMemory.set(d.u64());
        steerOverridden.set(d.u64());
    }
}

} // namespace dapsim
