/**
 * @file
 * Generic set-associative cache directory with LRU or NRU replacement.
 *
 * This is the structural substrate shared by the shared L3, the MS$
 * sector directories, the SRAM tag cache, the dirty-bit cache and the
 * predictor tables. It tracks tags and a caller-supplied metadata value
 * per line; data contents are never simulated (timing-only simulator).
 *
 * Data layout (structure-of-arrays, see DESIGN.md §14): the per-way
 * tags of a set are packed contiguously and scanned linearly, so a
 * lookup touches one cache line of tags instead of striding through
 * array-of-structures Line records. Valid and NRU-reference state live
 * in one 64-bit mask per set (hence the <= 64 ways limit), which turns
 * victim selection into bit-scan/popcount operations; the LRU
 * `lastUse` clocks and the Value payload are cold side-arrays touched
 * only on the paths that need them.
 *
 * Replacement contract (pinned; the differential fuzz suite in
 * tests/test_assoc_cache_diff.cc enforces it against the frozen AoS
 * reference in tests/reference_assoc_cache.hh):
 *  - insert() fills the lowest-numbered invalid way first;
 *  - NRU: the victim is the lowest-numbered way with a clear reference
 *    bit; when every way is referenced, all reference bits are cleared
 *    and way 0 is taken;
 *  - LRU: the victim is the way with the smallest lastUse, and ties
 *    are broken lowest-way-wins (explicitly: the scan keeps the first
 *    minimum it sees in ascending way order).
 *
 * Invalidated ways keep their stale tag, lastUse and value bytes until
 * overwritten; checkpoints serialize them, so the SoA directory and
 * the reference produce byte-identical snapshots.
 */

#ifndef DAPSIM_CACHE_ASSOC_CACHE_HH
#define DAPSIM_CACHE_ASSOC_CACHE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace dapsim
{

/** Replacement policy selector. */
enum class ReplPolicy
{
    LRU,
    NRU, ///< single not-recently-used bit, as in the paper's DRAM cache
};

/**
 * Set-associative tag directory.
 *
 * @tparam Value per-line metadata (dirty bits, sector bitmaps, ...).
 */
template <typename Value>
class AssocCache
{
  public:
    AssocCache(std::uint64_t sets, std::uint32_t ways,
               ReplPolicy policy = ReplPolicy::LRU)
        : sets_(sets), ways_(ways), policy_(policy)
    {
        if (sets == 0 || ways == 0)
            fatal("AssocCache: zero geometry");
        if (ways > 64)
            fatal("AssocCache: more than 64 ways unsupported");
        wayMask_ = ways == 64 ? ~std::uint64_t(0)
                              : (std::uint64_t(1) << ways) - 1;
        setMask_ = (sets & (sets - 1)) == 0 ? sets - 1 : 0;
        tags_.assign(sets * ways, 0);
        lastUse_.assign(sets * ways, 0);
        values_.resize(sets * ways);
        valid_.assign(sets, 0);
        nru_.assign(sets, 0);
    }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** @p x reduced modulo the set count — a mask for the (universal
     *  in practice) power-of-two geometries, a divide otherwise. */
    std::uint64_t
    mapSet(std::uint64_t x) const
    {
        return setMask_ != 0 ? (x & setMask_) : (x % sets_);
    }

    /** Find a line; returns nullptr on miss. Does not update recency. */
    Value *
    find(std::uint64_t set, std::uint64_t tag)
    {
        const std::uint32_t w = findWay(set, tag);
        return w == kNoWay ? nullptr : &values_[set * ways_ + w];
    }

    const Value *
    find(std::uint64_t set, std::uint64_t tag) const
    {
        auto *self = const_cast<AssocCache *>(this);
        return self->find(set, tag);
    }

    /** Mark a resident line as recently used. */
    void
    touch(std::uint64_t set, std::uint64_t tag)
    {
        const std::uint32_t w = findWay(set, tag);
        if (w == kNoWay)
            return;
        const std::uint64_t bit = std::uint64_t(1) << w;
        nru_[set] |= bit;
        lastUse_[set * ways_ + w] = ++useClock_;
        // NRU: when every valid line in the set is referenced, clear
        // the others so a victim always exists.
        if (policy_ == ReplPolicy::NRU &&
            (valid_[set] & ~nru_[set]) == 0)
            nru_[set] = bit;
    }

    /** Evicted-line report from insert(). */
    struct Victim
    {
        bool valid = false;
        std::uint64_t tag = 0;
        Value value{};
    };

    /**
     * Insert a line (must not already be resident); returns the victim.
     * The new line is marked most-recently-used.
     */
    Victim
    insert(std::uint64_t set, std::uint64_t tag, Value v)
    {
        if (findWay(set, tag) != kNoWay)
            panic("AssocCache: duplicate insert");
        const std::uint32_t w = victimWay(set);
        const std::size_t idx = set * ways_ + w;
        const std::uint64_t bit = std::uint64_t(1) << w;
        Victim out;
        if (valid_[set] & bit) {
            out.valid = true;
            out.tag = tags_[idx];
            out.value = std::move(values_[idx]);
        }
        tags_[idx] = tag;
        valid_[set] |= bit;
        values_[idx] = std::move(v);
        // Inserted lines start not-recently-used under NRU; LRU keeps
        // the reference bit set (it only matters for serialized state).
        if (policy_ == ReplPolicy::LRU)
            nru_[set] |= bit;
        else
            nru_[set] &= ~bit;
        lastUse_[idx] = ++useClock_;
        return out;
    }

    /** Remove a line if present. @return true if it was resident. */
    bool
    erase(std::uint64_t set, std::uint64_t tag)
    {
        const std::uint32_t w = findWay(set, tag);
        if (w == kNoWay)
            return false;
        const std::uint64_t bit = std::uint64_t(1) << w;
        valid_[set] &= ~bit;
        nru_[set] &= ~bit;
        // The dead way's tag/lastUse/value persist until overwritten.
        return true;
    }

    /** Invalidate an entire set, invoking @p fn on each valid line. */
    void
    flushSet(std::uint64_t set,
             const std::function<void(std::uint64_t, Value &)> &fn)
    {
        const std::size_t base = set * ways_;
        for (std::uint64_t m = valid_[set]; m != 0; m &= m - 1) {
            const std::uint32_t w =
                static_cast<std::uint32_t>(std::countr_zero(m));
            fn(tags_[base + w], values_[base + w]);
            const std::uint64_t bit = std::uint64_t(1) << w;
            valid_[set] &= ~bit;
            nru_[set] &= ~bit;
        }
    }

    /** Number of valid lines in a set. */
    std::uint32_t
    occupancy(std::uint64_t set) const
    {
        return static_cast<std::uint32_t>(std::popcount(valid_[set]));
    }

    /**
     * Checkpoint the directory. @p save_value serializes one Value
     * (`void(ckpt::Serializer&, const Value&)`); restore() reads the
     * state back into an identically shaped cache via @p restore_value
     * (`void(ckpt::Deserializer&, Value&)`) and throws CkptError on a
     * geometry mismatch.
     *
     * The SoA arrays are written whole (stale bytes of invalid ways
     * included), then a one-byte value encoding tag: 1 = the value
     * array as raw bytes (Value has unique object representations on
     * a little-endian host), 0 = one save_value() per line. Restore is
     * a handful of memcpys.
     */
    template <typename SaveValue>
    void
    save(ckpt::Serializer &s, SaveValue &&save_value) const
    {
        s.u64(sets_);
        s.u32(ways_);
        s.u32(static_cast<std::uint32_t>(policy_));
        s.u64(useClock_);
        s.u64Span(tags_.data(), tags_.size());
        s.u64Span(valid_.data(), valid_.size());
        s.u64Span(nru_.data(), nru_.size());
        s.u64Span(lastUse_.data(), lastUse_.size());
        s.u8(kRawValues ? 1 : 0);
        if constexpr (kRawValues) {
            s.raw(values_.data(), values_.size() * sizeof(Value));
        } else {
            for (const Value &v : values_)
                save_value(s, v);
        }
    }

    template <typename RestoreValue>
    void
    restore(ckpt::Deserializer &d, RestoreValue &&restore_value)
    {
        if (d.u64() != sets_ || d.u32() != ways_ ||
            d.u32() != static_cast<std::uint32_t>(policy_))
            throw ckpt::CkptError(
                "ckpt: cache directory geometry mismatch");
        useClock_ = d.u64();
        d.u64Span(tags_.data(), tags_.size());
        d.u64Span(valid_.data(), valid_.size());
        d.u64Span(nru_.data(), nru_.size());
        d.u64Span(lastUse_.data(), lastUse_.size());
        // A mask bit past the last way would index the next set's tags
        // (or past the array on the last set).
        for (std::uint64_t set = 0; set < sets_; ++set)
            if ((valid_[set] | nru_[set]) & ~wayMask_)
                throw ckpt::CkptError(
                    "ckpt: cache directory mask names a way past its "
                    "geometry");
        if (d.u8() != 0) {
            if constexpr (kRawValues)
                d.raw(values_.data(), values_.size() * sizeof(Value));
            else
                throw ckpt::CkptError(
                    "ckpt: raw value encoding not restorable on this "
                    "host/value type");
        } else {
            for (Value &v : values_)
                restore_value(d, v);
        }
    }

  private:
    static constexpr std::uint32_t kNoWay = ~std::uint32_t(0);

    /** Whole-array raw value copies are legal only when every byte of
     *  Value is deterministic (no padding) and the host already uses
     *  the on-disk little-endian layout. */
    static constexpr bool kRawValues =
        std::has_unique_object_representations_v<Value> &&
        std::is_trivially_copyable_v<Value> &&
        ckpt::kHostIsLittleEndian;

    /** Way of the resident line with @p tag, or kNoWay. Scans only the
     *  valid ways, lowest way first (matches the AoS scan order). */
    std::uint32_t
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        if (set >= sets_)
            panic("AssocCache: set out of range");
        const std::uint64_t *tags = tags_.data() + set * ways_;
        for (std::uint64_t m = valid_[set]; m != 0; m &= m - 1) {
            const std::uint32_t w =
                static_cast<std::uint32_t>(std::countr_zero(m));
            if (tags[w] == tag)
                return w;
        }
        return kNoWay;
    }

    std::uint32_t
    victimWay(std::uint64_t set)
    {
        // Lowest-numbered invalid way first.
        const std::uint64_t invalid = ~valid_[set] & wayMask_;
        if (invalid != 0)
            return static_cast<std::uint32_t>(
                std::countr_zero(invalid));
        if (policy_ == ReplPolicy::NRU) {
            const std::uint64_t unref = ~nru_[set] & wayMask_;
            if (unref != 0)
                return static_cast<std::uint32_t>(
                    std::countr_zero(unref));
            // All referenced: clear and take way 0.
            nru_[set] = 0;
            return 0;
        }
        // LRU: strict < keeps the first minimum in ascending way
        // order, i.e. lowest-way-wins on lastUse ties (pinned
        // contract, see the class comment).
        const std::uint64_t *lu = lastUse_.data() + set * ways_;
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (lu[w] < oldest) {
                oldest = lu[w];
                victim = w;
            }
        }
        return victim;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    ReplPolicy policy_;
    std::uint64_t wayMask_;
    /** sets_ - 1 when sets_ is a power of two, else 0 (see mapSet). */
    std::uint64_t setMask_;
    /** Hot: packed per-set tags, one contiguous run per set. */
    std::vector<std::uint64_t> tags_;
    /** Hot: one valid/NRU-reference bit per way, one word per set. */
    std::vector<std::uint64_t> valid_;
    std::vector<std::uint64_t> nru_;
    /** Cold: LRU clocks and payload, touched off the lookup path. */
    std::vector<std::uint64_t> lastUse_;
    std::vector<Value> values_;
    std::uint64_t useClock_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_CACHE_ASSOC_CACHE_HH
