// Small-buffer-optimized move-only callable, the event kernel's callback
// type.
//
// std::function heap-allocates any callable bigger than ~2 pointers and
// demands copyability; the event kernel schedules millions of lambdas that
// capture a handful of pointers and values, so both costs land on the
// hottest path in the whole codebase. BasicInlineFunction stores callables
// up to kInlineCapacity bytes directly inside its owner (the event slab
// node, a service request slot) — no allocation, no pointer chase on
// invoke — and falls back to the heap only for oversized captures.
// Move-only: the kernel never copies a callback — recurrences re-arm in
// place (DESIGN.md §10).
//
// InlineFunction is the kernel's void() form; other signatures (the fleet
// service's response callback) use BasicInlineFunction<R(Args...)>.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dynaplat::sim {

template <typename Signature>
class BasicInlineFunction;

template <typename R, typename... Args>
class BasicInlineFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes live inline. Sized so a typical kernel
  /// callback — a `this` pointer plus a few ids/values — never allocates.
  static constexpr std::size_t kInlineCapacity = 48;

  BasicInlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicInlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  BasicInlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* s, void* dst) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(s));
        if (op == Op::kMove) ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* s, Args... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* s, void* dst) {
        Fn** slot = std::launder(reinterpret_cast<Fn**>(s));
        if (op == Op::kMove) {
          ::new (dst) Fn*(*slot);  // steal the heap object
        } else {
          delete *slot;
        }
        // the pointer itself is trivially destructible
      };
    }
  }

  BasicInlineFunction(BasicInlineFunction&& other) noexcept {
    move_from(other);
  }

  BasicInlineFunction& operator=(BasicInlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  BasicInlineFunction(const BasicInlineFunction&) = delete;
  BasicInlineFunction& operator=(const BasicInlineFunction&) = delete;

  ~BasicInlineFunction() { reset(); }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  /// True when a callable of type F would be stored without allocating.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCapacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  enum class Op { kMove, kDestroy };

  void move_from(BasicInlineFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMove, other.storage_, storage_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(Op, void* src, void* move_dst) = nullptr;
};

/// The event kernel's callback type.
using InlineFunction = BasicInlineFunction<void()>;

}  // namespace dynaplat::sim
