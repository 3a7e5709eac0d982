/**
 * @file
 * Power-of-two ring buffer with deque semantics for hot request queues.
 *
 * `std::deque` cannot reserve capacity and allocates its map/chunks on
 * first use; DRAM channel queues churn requests millions of times per
 * run, so they use this ring instead: contiguous storage, O(1)
 * push_back/pop_front, indexed access, and a positional erase that
 * shifts whichever side is shorter. Capacity grows by doubling and is
 * never returned until destruction, so a queue sized once (see
 * Channel's constructor) never allocates again.
 *
 * Supports move-only element types; the container itself is
 * move-only.
 */

#ifndef DAPSIM_COMMON_RING_DEQUE_HH
#define DAPSIM_COMMON_RING_DEQUE_HH

#include <cstddef>
#include <new>
#include <utility>

namespace dapsim
{

/** Reservable move-only ring buffer with deque-style access. */
template <class T>
class RingDeque
{
  public:
    RingDeque() = default;
    RingDeque(const RingDeque &) = delete;
    RingDeque &operator=(const RingDeque &) = delete;

    RingDeque(RingDeque &&other) noexcept
        : data_(other.data_), cap_(other.cap_), head_(other.head_),
          size_(other.size_)
    {
        other.data_ = nullptr;
        other.cap_ = other.head_ = other.size_ = 0;
    }

    ~RingDeque()
    {
        clear();
        ::operator delete(data_, std::align_val_t(alignof(T)));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    T &operator[](std::size_t i) { return *ptr(i); }
    const T &operator[](std::size_t i) const { return *ptr(i); }
    T &front() { return *ptr(0); }
    T &back() { return *ptr(size_ - 1); }

    /** The two contiguous element runs (second may be empty): scan
     *  loops walk raw pointers instead of masked indexed access. */
    std::pair<const T *, std::size_t>
    seg0() const
    {
        const std::size_t n = cap_ - head_;
        return {data_ + head_, size_ < n ? size_ : n};
    }

    std::pair<const T *, std::size_t>
    seg1() const
    {
        const std::size_t n = cap_ - head_;
        return {data_, size_ < n ? 0 : size_ - n};
    }

    /** Ensure capacity for at least @p n elements (rounded up to a
     *  power of two); never shrinks. */
    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow(cap_ ? cap_ * 2 : 8);
        ::new (static_cast<void *>(slot(size_))) T(std::move(v));
        ++size_;
    }

    void
    pop_front()
    {
        ptr(0)->~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Remove the element at @p i, shifting the shorter side. */
    void
    erase(std::size_t i)
    {
        if (i < size_ - i) {
            for (std::size_t j = i; j > 0; --j)
                *ptr(j) = std::move(*ptr(j - 1));
            pop_front();
        } else {
            for (std::size_t j = i; j + 1 < size_; ++j)
                *ptr(j) = std::move(*ptr(j + 1));
            ptr(size_ - 1)->~T();
            --size_;
        }
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            ptr(i)->~T();
        head_ = 0;
        size_ = 0;
    }

  private:
    T *
    ptr(std::size_t i) const
    {
        return slot(i);
    }

    T *
    slot(std::size_t i) const
    {
        return data_ + ((head_ + i) & (cap_ - 1));
    }

    void
    grow(std::size_t want)
    {
        std::size_t cap = 8;
        while (cap < want)
            cap *= 2;
        T *fresh = static_cast<T *>(::operator new(
            cap * sizeof(T), std::align_val_t(alignof(T))));
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(fresh + i)) T(std::move(*ptr(i)));
            ptr(i)->~T();
        }
        ::operator delete(data_, std::align_val_t(alignof(T)));
        data_ = fresh;
        cap_ = cap;
        head_ = 0;
    }

    T *data_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_RING_DEQUE_HH
