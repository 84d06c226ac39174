/**
 * @file
 * Small-buffer-optimized, move-only callable wrapper.
 *
 * The simulation hot path schedules millions of short-lived
 * closures: issue delays, bus grants, module completions, spin
 * polls. `std::function` heap-allocates any capture larger than two
 * pointers, which makes allocation the dominant cost of the event
 * core. InlineFunction stores captures up to `Capacity` bytes
 * inline (no allocation, no indirection beyond one ops-table
 * pointer) and falls back to the heap only for oversized captures —
 * a fallback the event queue counts so tests can pin the steady
 * state at zero.
 *
 * Differences from std::function, all deliberate:
 *  - move-only (handlers are one-shot; copying them is a bug),
 *  - no target_type/target introspection,
 *  - invoking an empty InlineFunction is undefined (callers check
 *    with operator bool, as Bus does for optional grant hooks).
 */

#ifndef PSYNC_SIM_INLINE_FUNCTION_HH
#define PSYNC_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace psync {
namespace sim {

/** Capture bytes stored inline by the simulator handler aliases. */
constexpr std::size_t handlerInlineBytes = 104;

template <typename Signature, std::size_t Capacity = handlerInlineBytes>
class InlineFunction;

template <typename Ret, typename... Args, std::size_t Capacity>
class InlineFunction<Ret(Args...), Capacity>
{
  public:
    // User-provided so value-initialization (InlineFunction{}, or a
    // slab slot's T{}) leaves the capture buffer unzeroed.
    InlineFunction() noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<Ret, std::decay_t<F> &,
                                        Args...>>>
    InlineFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
        : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(storage_, other.storage_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Invoke the wrapped callable. @pre *this is non-empty. */
    Ret
    operator()(Args... args) const
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** True when the capture spilled to the heap (diagnostics). */
    bool
    onHeap() const
    {
        return ops_ != nullptr && ops_->heap;
    }

    /** Drop the wrapped callable, leaving *this empty. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    /** Inline capture capacity, for static_asserts at call sites. */
    static constexpr std::size_t capacity() { return Capacity; }

  private:
    struct Ops
    {
        Ret (*invoke)(unsigned char *, Args...);
        /** Move-construct from `src` into raw `dst`, destroy src. */
        void (*relocate)(unsigned char *dst, unsigned char *src);
        void (*destroy)(unsigned char *);
        bool heap;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static Fn &
    asInline(unsigned char *p)
    {
        return *std::launder(reinterpret_cast<Fn *>(p));
    }

    template <typename Fn>
    static Fn *&
    asHeap(unsigned char *p)
    {
        return *std::launder(reinterpret_cast<Fn **>(p));
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](unsigned char *p, Args... args) -> Ret {
            return asInline<Fn>(p)(std::forward<Args>(args)...);
        },
        [](unsigned char *dst, unsigned char *src) {
            ::new (static_cast<void *>(dst))
                Fn(std::move(asInline<Fn>(src)));
            asInline<Fn>(src).~Fn();
        },
        [](unsigned char *p) { asInline<Fn>(p).~Fn(); },
        /*heap=*/false,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](unsigned char *p, Args... args) -> Ret {
            return (*asHeap<Fn>(p))(std::forward<Args>(args)...);
        },
        [](unsigned char *dst, unsigned char *src) {
            ::new (static_cast<void *>(dst)) Fn *(asHeap<Fn>(src));
            asHeap<Fn>(src) = nullptr;
        },
        [](unsigned char *p) { delete asHeap<Fn>(p); },
        /*heap=*/true,
    };

    // Mutable so invocation is const, like std::function: handlers
    // captured by const lambdas stay callable.
    alignas(std::max_align_t) mutable unsigned char storage_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_INLINE_FUNCTION_HH
