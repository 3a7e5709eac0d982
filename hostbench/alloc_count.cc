#include "alloc_count.hh"

#include <cstdlib>
#include <new>

namespace hostbench::allocs
{

namespace
{

Span g_span = kOther;
Tally g_tally[kNumSpans];

void *
counted(std::size_t n, std::size_t align = 0)
{
    Tally &t = g_tally[g_span];
    ++t.calls;
    t.bytes += n;
    if (n == 0)
        n = 1;
    if (align == 0)
        return std::malloc(n);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void *
countedOrThrow(std::size_t n, std::size_t align = 0)
{
    void *p = counted(n, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

Tally
tally(Span s)
{
    return g_tally[s];
}

Scope::Scope(Span s) : prev_(g_span) { g_span = s; }

Scope::~Scope() { g_span = prev_; }

} // namespace hostbench::allocs

using hostbench::allocs::counted;
using hostbench::allocs::countedOrThrow;

void *operator new(std::size_t n) { return countedOrThrow(n); }
void *operator new[](std::size_t n) { return countedOrThrow(n); }

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n);
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return counted(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return counted(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
