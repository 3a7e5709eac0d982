#include "memside/alloy_cache.hh"

#include "common/log.hh"

namespace dapsim
{

AlloyFrames::AlloyFrames(std::uint64_t sets)
    : frames_(sets, 0), setDiv_(FastDiv::of(sets))
{
    if (sets == 0)
        fatal("AlloyFrames: zero sets");
}

void
AlloyFrames::save(ckpt::Serializer &s) const
{
    s.u64(frames_.size());
    s.u64Span(frames_.data(), frames_.size());
}

void
AlloyFrames::restore(ckpt::Deserializer &d)
{
    if (d.u64() != frames_.size())
        throw ckpt::CkptError("ckpt: Alloy frame count mismatch");
    d.u64Span(frames_.data(), frames_.size());
    // The lookup compare relies on reserved bits being zero, and an
    // empty frame is the zero word: refuse anything else rather than
    // restore a store whose hits are undefined.
    for (const std::uint64_t w : frames_) {
        if (w & kReserved)
            throw ckpt::CkptError(
                "ckpt: Alloy frame word has reserved bits set");
        if (!valid(w) && w != 0)
            throw ckpt::CkptError(
                "ckpt: invalid Alloy frame carries a tag or dirty bit");
    }
}

AlloyCache::AlloyCache(EventQueue &eq, DramSystem &main_memory,
                       PartitionPolicy &policy,
                       const AlloyCacheConfig &cfg)
    : MemSideCache(eq, main_memory, policy), cfg_(cfg),
      array_(eq, cfg.array), frames_(cfg.numSets()),
      dbc_(cfg.dbc), predictor_(cfg.predictorEntries, 3),
      predDiv_(FastDiv::of(cfg.predictorEntries))
{
    addArray("msArray", array_);
}

double
AlloyCache::effectivePeakAccPerCycle() const
{
    const double data_clocks =
        cfg_.array.ddr ? (cfg_.array.burstLength + 1) / 2
                       : cfg_.array.burstLength;
    const double tad_clocks = data_clocks + cfg_.tadExtraClocks;
    return cfg_.array.peakAccessesPerCpuCycle() * data_clocks /
           tad_clocks;
}

std::size_t
AlloyCache::predictorIndex(Addr a) const
{
    const std::uint64_t region = a >> 12;
    return static_cast<std::size_t>(
        predDiv_.mod((region * 0x9e3779b97f4a7c15ULL) >> 32));
}

bool
AlloyCache::predictHit(Addr a) const
{
    // Region-hash (4 KB) indexed 2-bit counters; >= 2 predicts hit.
    return predictor_[predictorIndex(a)] >= 2;
}

void
AlloyCache::trainPredictor(Addr a, bool hit)
{
    const std::size_t i = predictorIndex(a);
    if (hit) {
        if (predictor_[i] < 3)
            ++predictor_[i];
    } else if (predictor_[i] > 0) {
        --predictor_[i];
    }
}

void
AlloyCache::handleRead(Addr addr, Done done)
{
    window_.lookups++;
    const std::uint64_t set = setOf(addr);

    if (policy_.isSetDisabled(set)) {
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
    steer.predictedHit = predictHit(addr);
    if (policy_.steerToMemory(addr, steer)) {
        const std::uint64_t f = frames_[set];
        if (!AlloyFrames::holds(f, blockNumber(addr)) ||
            !AlloyFrames::dirty(f)) {
            memAccess(addr, false, done);
            return;
        }
    }

    // IFRM: the DBC tells us (after a 5-cycle SRAM probe, charged as
    // pure latency) whether the addressed line is known clean. The DBC
    // is keyed by block address so that spatially adjacent lines share
    // entries (hashed set indices would scatter the paper's
    // 64-consecutive-sets grouping).
    const DirtyBitCache::Probe probe = dbc_.probe(blockNumber(addr));
    if (probe.hit && !probe.dirty && policy_.shouldForceReadMiss(addr)) {
        forcedReadMisses.inc();
        window_.aMs++; // the TAD read this access would have demanded
        const bool present =
            AlloyFrames::holds(frames_[set], blockNumber(addr));
        if (present) {
            readHits.inc();
            window_.hits++;
            cleanReadHits.inc();
            window_.cleanHits++;
        } else {
            // The line was absent: the fill is bypassed implicitly.
            readMisses.inc();
            window_.aMm++;
            fillsBypassed.inc();
        }
        trainPredictor(addr, present);
        memAccess(addr, false, done);
        return;
    }

    const std::uint32_t id = openRead(addr, done);

    // Predicted miss: start miss handling early.
    if (!predictHit(addr)) {
        readRec(id).spec = true;
        earlyMissReads.inc();
        memAccess(addr, false,
                  readEvent<&AlloyCache::earlyReadDone>(this, id));
    }

    window_.aMs++; // TAD read
    array_.access(tadAddr(set), false,
                  readEvent<&AlloyCache::resolveRead>(this, id),
                  cfg_.tadExtraClocks);
}

void
AlloyCache::earlyReadDone(std::uint32_t id)
{
    ReadRec &r = readRec(id);
    r.memDone = true;
    if (r.needMem)
        completeRead(id);
}

void
AlloyCache::resolveRead(std::uint32_t id)
{
    const Addr addr = readRec(id).addr;
    const bool early = readRec(id).spec;
    const std::uint64_t f = frames_[setOf(addr)];
    const bool hit = AlloyFrames::holds(f, blockNumber(addr));
    policy_.noteReadOutcome(addr, hit);
    trainPredictor(addr, hit);
    if (hit == !early)
        predictorHits.inc();
    else
        predictorMisses.inc();

    if (hit) {
        readHits.inc();
        window_.hits++;
        const bool dirty = AlloyFrames::dirty(f);
        if (!dirty) {
            cleanReadHits.inc();
            window_.cleanHits++;
        }
        dbc_.update(blockNumber(addr), dirty);
        if (early)
            wastedEarlyReads.inc(); // speculative memory read dropped
        completeRead(id); // data arrived with the TAD
        return;
    }

    // Miss.
    readMisses.inc();
    window_.aMm++;
    if (early) {
        readRec(id).needMem = true;
        if (readRec(id).memDone)
            completeRead(id);
    } else {
        memAccess(addr, false, takeDone(id));
    }
    fill(addr);
}

void
AlloyCache::writeBackVictim(std::uint64_t victim)
{
    if (!AlloyFrames::dirty(victim))
        return;
    window_.aMm++;
    dirtyWritebacks.inc();
    memAccess(AlloyFrames::tagOf(victim) << kBlockShift, true);
}

void
AlloyCache::fill(Addr addr)
{
    const std::uint64_t set = setOf(addr);

    if (policy_.shouldBypassFillForReuse(addr)) {
        fillsBypassed.inc();
        return;
    }

    // The victim's data came back with the lookup TAD, so a dirty
    // victim needs only the memory write.
    writeBackVictim(frames_.install(set, blockNumber(addr)));

    fills.inc();
    window_.aMs++; // fill TAD write
    dbc_.update(blockNumber(addr), false);
    array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
}

bool
AlloyCache::warmTouch(Addr addr, bool is_write)
{
    const std::uint64_t block = blockNumber(addr);
    std::uint64_t &f = frames_[frames_.setOf(block)];
    const bool hit = AlloyFrames::holds(f, block);
    if (!hit)
        f = AlloyFrames::word(block, false); // replaces the victim
    if (is_write)
        f |= AlloyFrames::kDirty;
    dbc_.update(block, AlloyFrames::dirty(f));
    trainPredictor(addr, true);
    return hit;
}

void
AlloyCache::handleWrite(Addr addr)
{
    window_.lookups++;
    const std::uint64_t block = blockNumber(addr);
    const std::uint64_t set = frames_.setOf(block);

    if (policy_.isSetDisabled(set)) {
        writeMisses.inc();
        memAccess(addr, true);
        return;
    }

    policy_.noteWrite(addr);
    window_.writes++;

    std::uint64_t &f = frames_[set];
    const bool present = AlloyFrames::holds(f, block);

    if (!present && !cfg_.presenceBit) {
        // Without the BEAR presence bit the TAD must be fetched to
        // discover the absence.
        window_.aMs++;
        array_.access(tadAddr(set), false, nullptr, cfg_.tadExtraClocks);
    }

    if (present) {
        writeHits.inc();
        window_.hits++;
        window_.aMs++;
        const bool write_through = policy_.shouldWriteThrough(addr);
        f = AlloyFrames::word(block, !write_through);
        dbc_.update(block, !write_through);
        array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
        if (write_through)
            memAccess(addr, true);
        return;
    }

    // Write miss: allocate over the victim. The victim's dirty state
    // must be discovered via a TAD fetch before it can be replaced.
    writeMisses.inc();
    window_.aMs++;
    array_.access(tadAddr(set), false, nullptr, cfg_.tadExtraClocks);
    writeBackVictim(frames_.install(set, block));
    const bool write_through = policy_.shouldWriteThrough(addr);
    f = AlloyFrames::word(block, !write_through);
    dbc_.update(block, !write_through);
    window_.aMs++;
    array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
    if (write_through)
        memAccess(addr, true);
}

void
AlloyCache::save(ckpt::Serializer &s) const
{
    saveBase(s);
    array_.save(s);
    frames_.save(s);
    dbc_.save(s);
    s.bytes(predictor_.data(), predictor_.size());
    s.u64(predictorHits.value());
    s.u64(predictorMisses.value());
    s.u64(earlyMissReads.value());
    s.u64(wastedEarlyReads.value());
}

void
AlloyCache::restore(ckpt::Deserializer &d)
{
    restoreBase(d);
    array_.restore(d);
    frames_.restore(d);
    dbc_.restore(d);
    const std::vector<std::uint8_t> pred = d.bytes();
    if (pred.size() != predictor_.size())
        throw ckpt::CkptError("ckpt: Alloy predictor size mismatch");
    predictor_ = pred;
    predictorHits.set(d.u64());
    predictorMisses.set(d.u64());
    earlyMissReads.set(d.u64());
    wastedEarlyReads.set(d.u64());
}

} // namespace dapsim
