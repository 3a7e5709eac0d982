/**
 * @file
 * The simulator's event payload: a 24-byte, trivially copyable
 * `void()` callable.
 *
 * `InlineCallback` is a direct invoke pointer plus a 16-byte inline
 * capture — `{this}` or `{this, id}`, the shape of every hot-path
 * event. A capture must be trivially copyable, trivially destructible
 * and at most kInlineCallbackBytes; anything else is rejected at
 * compile time. State that does not fit lives in a record the event
 * names by index (MemSideCache's read records, L3Cache's MSHR
 * records; see DESIGN.md §9), so copying an event is a 24-byte copy
 * and dropping one costs nothing.
 */

#ifndef DAPSIM_COMMON_INLINE_CALLBACK_HH
#define DAPSIM_COMMON_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace dapsim
{

/** Inline capture size: two pointers, e.g. `{this, id}`. */
constexpr std::size_t kInlineCallbackBytes = 16;

/** Trivially copyable `void()` callable with a 16-byte capture. */
class InlineCallback
{
  public:
    InlineCallback() = default;
    InlineCallback(std::nullptr_t) {}

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<D, InlineCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineCallback(F &&f) : invoke_(&invokeAs<D>)
    {
        static_assert(sizeof(D) <= kInlineCallbackBytes,
                      "callback capture exceeds 16 bytes; park the state "
                      "in a record and capture its index");
        static_assert(alignof(D) <= alignof(std::uint64_t),
                      "over-aligned callback captures are unsupported");
        static_assert(std::is_trivially_copyable_v<D> &&
                          std::is_trivially_destructible_v<D>,
                      "callback captures must be trivially copyable and "
                      "trivially destructible");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
    }

    /** Invoke the stored callable (must be non-empty). Const-callable
     *  like std::function, so `mutable` lambdas work too. */
    void operator()() const { invoke_(buf_); }

    explicit operator bool() const { return invoke_ != nullptr; }

    void reset() { invoke_ = nullptr; }

    InlineCallback &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    /**
     * Pre-bound member-function callback: `Callback::of<&T::tick>(obj)`
     * stores only the object pointer — the recurring-event form.
     */
    template <auto Method, class T>
    static InlineCallback
    of(T *obj)
    {
        return InlineCallback([obj] { (obj->*Method)(); });
    }

  private:
    template <class D>
    static void
    invokeAs(const unsigned char *buf)
    {
        (*std::launder(
            reinterpret_cast<D *>(const_cast<unsigned char *>(buf))))();
    }

    void (*invoke_)(const unsigned char *) = nullptr;
    alignas(std::uint64_t) unsigned char buf_[kInlineCallbackBytes]{};
};

static_assert(sizeof(InlineCallback) <= 24);
static_assert(std::is_trivially_copyable_v<InlineCallback>);

} // namespace dapsim

#endif // DAPSIM_COMMON_INLINE_CALLBACK_HH
