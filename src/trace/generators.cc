#include "trace/generators.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/validate.hh"

namespace dapsim
{

void
SyntheticParams::validate() const
{
    if (footprintBytes < kBlockBytes)
        fatal("SyntheticParams: footprintBytes must be at least " +
              std::to_string(kBlockBytes) + ", got " +
              std::to_string(footprintBytes));
    checkUnitInterval("SyntheticParams: hotFraction", hotFraction);
    checkUnitInterval("SyntheticParams: hotProbability", hotProbability);
    checkUnitInterval("SyntheticParams: streamFraction", streamFraction);
    checkUnitInterval("SyntheticParams: writeFraction", writeFraction);
    checkAtLeast("SyntheticParams: runLength", runLength, 1.0);
    checkMpki("SyntheticParams: mpki", mpki);
}

SyntheticGenerator::SyntheticGenerator(const SyntheticParams &p)
    : p_(p), rng_(p.seed), streamPtr_(0)
{
    p_.validate();
    blocks_ = p_.footprintBytes / kBlockBytes;
    hotBlocks_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(blocks_) * p_.hotFraction));
    meanGap_ = std::max(1.0, 1000.0 / p_.mpki);
    meanRun_ = std::max(1.0, p_.runLength);
}

Addr
SyntheticGenerator::pickRandomBlock()
{
    if (rng_.chance(p_.hotProbability))
        return rng_.below(hotBlocks_);
    return rng_.below(blocks_);
}

bool
SyntheticGenerator::next(TraceRequest &out)
{
    Addr block;
    if (rng_.chance(p_.streamFraction)) {
        // Sequential streaming pointer, wrapping over the footprint.
        // Both pointers stay < blocks_, so the wrap is a compare
        // instead of a divide.
        block = streamPtr_;
        streamPtr_ = streamPtr_ + 1 == blocks_ ? 0 : streamPtr_ + 1;
    } else {
        // Random run: continue the current spatial run or start a new
        // one at a random (hot-biased) location.
        if (runLeft_ == 0) {
            runPtr_ = pickRandomBlock();
            runLeft_ =
                static_cast<std::uint32_t>(rng_.gap(meanRun_, 64));
        }
        block = runPtr_;
        runPtr_ = runPtr_ + 1 == blocks_ ? 0 : runPtr_ + 1;
        --runLeft_;
    }

    out.addr = p_.base + block * kBlockBytes;
    out.isWrite = rng_.chance(p_.writeFraction);
    out.instrGap = rng_.gap(meanGap_, 1'000'000);
    return true;
}

void
SyntheticGenerator::save(ckpt::Serializer &s) const
{
    const Rng::State st = rng_.state();
    s.u64(st.s0);
    s.u64(st.s1);
    s.u64(streamPtr_);
    s.u64(runPtr_);
    s.u32(runLeft_);
}

void
SyntheticGenerator::restore(ckpt::Deserializer &d)
{
    Rng::State st;
    st.s0 = d.u64();
    st.s1 = d.u64();
    rng_.setState(st);
    streamPtr_ = d.u64();
    runPtr_ = d.u64();
    runLeft_ = d.u32();
}

} // namespace dapsim
