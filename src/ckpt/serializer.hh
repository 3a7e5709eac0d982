/**
 * @file
 * Binary serialization primitives for the `dapsim.ckpt.v2` checkpoint
 * format (see DESIGN.md §7, §14).
 *
 * A Serializer appends fixed-width little-endian primitives into a
 * byte buffer; a Deserializer reads them back with bounds checking.
 * Component state is framed in named, length-prefixed sections so a
 * reader can verify it consumed exactly what the writer produced, and
 * so mismatched component ordering fails loudly instead of smearing
 * one component's bytes into the next.
 *
 * Error handling: everything throws CkptError (never fatal()), so a
 * failed restore inside a sweep surfaces as one failed JobResult
 * instead of killing the whole process.
 *
 * This header is deliberately self-contained (standard library only)
 * so that low-layer component headers can include it without dragging
 * in higher layers.
 */

#ifndef DAPSIM_CKPT_SERIALIZER_HH
#define DAPSIM_CKPT_SERIALIZER_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dapsim::ckpt
{

/** True when raw in-memory words already match the little-endian
 *  on-disk encoding, enabling the bulk span fast paths. */
inline constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

/** Any checkpoint save/restore failure (format, CRC, config mismatch,
 *  non-quiescent component). */
class CkptError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The one payload encoding (the "v2" in dapsim.ckpt.v2). */
inline constexpr std::uint32_t kVersion = 2;

/** Version arguments are checks, not a mode: anything but kVersion
 *  throws CkptError. */
inline void
requireVersion(std::uint32_t version)
{
    if (version != kVersion)
        throw CkptError("ckpt: unsupported checkpoint version " +
                        std::to_string(version) +
                        " (only version " + std::to_string(kVersion) +
                        " is readable; re-create the file)");
}

/**
 * Appends primitives to a growable byte buffer. Besides the
 * fixed-width primitives it offers bulk span forms (u64Span, raw)
 * that copy whole arrays, so a restore can memcpy them back without a
 * per-element decode loop.
 */
class Serializer
{
  public:
    explicit Serializer(std::uint32_t version = kVersion)
    {
        requireVersion(version);
    }

    /** Size hint: pre-grow the buffer to kill realloc churn on large
     *  snapshots (MS$ sector directories are tens of MBs). */
    void
    reserve(std::size_t bytes)
    {
        buf_.reserve(buf_.size() + bytes);
    }

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        appendLe(v);
    }

    void
    u64(std::uint64_t v)
    {
        appendLe(v);
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const std::uint8_t *data, std::size_t n)
    {
        u64(n);
        buf_.insert(buf_.end(), data, data + n);
    }

    /**
     * Bulk little-endian u64 array (no length prefix; the reader knows
     * the count from its own geometry). On little-endian hosts this is
     * one memcpy of the whole array.
     */
    void
    u64Span(const std::uint64_t *p, std::size_t n)
    {
        if constexpr (kHostIsLittleEndian) {
            raw(p, n * sizeof(std::uint64_t));
        } else {
            for (std::size_t i = 0; i < n; ++i)
                u64(p[i]);
        }
    }

    /** Raw object bytes, no length prefix. The writer and reader must
     *  agree on the exact size. */
    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /**
     * Open a named section. The name and a length placeholder are
     * written immediately; endSection() patches the length once the
     * section's content size is known. Sections nest.
     */
    void
    beginSection(const std::string &name)
    {
        str(name);
        lengthAt_.push_back(buf_.size());
        u64(0); // placeholder
    }

    void
    endSection()
    {
        if (lengthAt_.empty())
            throw CkptError("ckpt: endSection without beginSection");
        const std::size_t at = lengthAt_.back();
        lengthAt_.pop_back();
        const std::uint64_t len = buf_.size() - (at + 8);
        for (int i = 0; i < 8; ++i)
            buf_[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }

    const std::vector<std::uint8_t> &
    buffer() const
    {
        if (!lengthAt_.empty())
            throw CkptError("ckpt: unterminated section");
        return buf_;
    }

    std::size_t size() const { return buf_.size(); }

  private:
    /** Append one fixed-width little-endian primitive. Byte-identical
     *  to the per-byte shift loop, but a single memcpy on LE hosts. */
    template <typename T>
    void
    appendLe(T v)
    {
        const std::size_t at = buf_.size();
        buf_.resize(at + sizeof(T));
        if constexpr (kHostIsLittleEndian) {
            std::memcpy(buf_.data() + at, &v, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> lengthAt_;
};

/** Bounds-checked reader over a byte span. */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size,
                 std::uint32_t version = kVersion)
        : data_(data), size_(size)
    {
        requireVersion(version);
    }

    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool
    boolean()
    {
        return u8() != 0;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::vector<std::uint8_t>
    bytes()
    {
        const std::uint64_t n = u64();
        need(n);
        std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
        pos_ += static_cast<std::size_t>(n);
        return out;
    }

    /** Bulk little-endian u64 array written by Serializer::u64Span.
     *  One memcpy of the whole array on little-endian hosts. */
    void
    u64Span(std::uint64_t *p, std::size_t n)
    {
        if constexpr (kHostIsLittleEndian) {
            raw(p, n * sizeof(std::uint64_t));
        } else {
            for (std::size_t i = 0; i < n; ++i)
                p[i] = u64();
        }
    }

    /** Raw object bytes written by Serializer::raw — a single bounds-
     *  checked memcpy out of the (possibly mmap'd) payload. */
    void
    raw(void *p, std::size_t n)
    {
        need(n);
        std::memcpy(p, data_ + pos_, n);
        pos_ += n;
    }

    /**
     * Enter a section, verifying its name. The name comparison happens
     * in place against the underlying bytes — no per-section string
     * allocation on the restore hot path.
     */
    void
    enterSection(const std::string &expect)
    {
        const std::uint64_t n = u64();
        need(n);
        const bool match =
            n == expect.size() &&
            std::memcmp(data_ + pos_, expect.data(), expect.size()) == 0;
        if (!match) {
            const std::string name(
                reinterpret_cast<const char *>(data_ + pos_),
                static_cast<std::size_t>(n));
            throw CkptError("ckpt: expected section '" + expect +
                            "', found '" + name + "'");
        }
        pos_ += static_cast<std::size_t>(n);
        const std::uint64_t len = u64();
        need(len);
        sectionEnd_.push_back(pos_ + static_cast<std::size_t>(len));
    }

    /** Leave a section, verifying the content was fully consumed. */
    void
    leaveSection()
    {
        if (sectionEnd_.empty())
            throw CkptError("ckpt: leaveSection without enterSection");
        const std::size_t end = sectionEnd_.back();
        sectionEnd_.pop_back();
        if (pos_ != end)
            throw CkptError(
                "ckpt: section size mismatch (component state layout "
                "differs from the checkpoint)");
    }

    /** Skip over the next section regardless of its name. */
    std::string
    skipSection()
    {
        const std::string name = str();
        const std::uint64_t len = u64();
        need(len);
        pos_ += static_cast<std::size_t>(len);
        return name;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Unconsumed bytes of the innermost open section — lets a reader
     *  probe for optional trailing fields a newer writer appends. */
    std::size_t
    sectionRemaining() const
    {
        if (sectionEnd_.empty())
            throw CkptError(
                "ckpt: sectionRemaining outside any section");
        return sectionEnd_.back() - pos_;
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > size_ - pos_)
            throw CkptError("ckpt: truncated input");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> sectionEnd_;
};

/**
 * Interface for components whose state participates in checkpoints.
 *
 * Polymorphic simulator components (access generators, partitioning
 * policies, memory-side caches) implement this interface virtually;
 * concrete leaf components (caches, prefetchers, DRAM channels, the
 * ROB core) provide the same-signature member functions without the
 * vtable. The contract is identical for both: save() serializes all
 * mutable state, restore() overwrites the state of a freshly
 * constructed, identically configured instance, and restore(save())
 * is bit-identical state.
 */
class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;
    virtual void save(Serializer &s) const = 0;
    virtual void restore(Deserializer &d) = 0;
};

/** FNV-1a 64-bit hash over a byte span (config/identity hashing). */
inline std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n,
      std::uint64_t h = 1469598103934665603ULL)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a(const std::vector<std::uint8_t> &v,
      std::uint64_t h = 1469598103934665603ULL)
{
    return fnv1a(v.data(), v.size(), h);
}

/** CRC32 (IEEE 802.3 polynomial, reflected) over a byte span. */
inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace dapsim::ckpt

#endif // DAPSIM_CKPT_SERIALIZER_HH
