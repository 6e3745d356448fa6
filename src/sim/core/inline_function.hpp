#pragma once

/// Small-buffer type-erased `void()` callable for the event scheduler.
///
/// `std::function` heap-allocates any callable whose captures exceed its
/// tiny SSO buffer (16 bytes in libstdc++), which put one malloc/free pair
/// on every scheduled simulation event.  `InlineFunction` stores the
/// callable in a fixed inline buffer instead: construction, move and
/// destruction never touch the heap.  Callables must be copyable, since
/// `clone` is how a scheduler snapshot keeps its pending events; a callable
/// that is too large or move-only is rejected at compile time
/// (`static_assert`) — check `fits_v<F>` to probe without an error.

#include <cstddef>
#include <type_traits>
#include <utility>

namespace aedbmls::sim {

class InlineFunction {
 public:
  /// Sized for the largest scheduler callback in the simulator, with
  /// headroom: the broadcast origination in `aedb::SimulationContext`
  /// (context + source index + message id + restore flag, 32 bytes).  The
  /// channel's fan-out events capture two pointers; the frame lives in the
  /// wave.
  static constexpr std::size_t kCapacity = 48;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  /// True when callable `F` can be stored inline (size, alignment and a
  /// noexcept move, which the arena relies on when recycling slots) and
  /// copied (`clone`).
  template <typename F>
  static constexpr bool fits_v = sizeof(std::decay_t<F>) <= kCapacity &&
                                 alignof(std::decay_t<F>) <= kAlignment &&
                                 std::is_nothrow_move_constructible_v<std::decay_t<F>> &&
                                 std::is_copy_constructible_v<std::decay_t<F>>;

  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    static_assert(fits_v<Fn>,
                  "callback is move-only or exceeds the InlineFunction "
                  "buffer: capture copyable values, shrink the captures or "
                  "raise InlineFunction::kCapacity");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// Destroys the stored callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// A copy of the stored callable (empty when empty).
  [[nodiscard]] InlineFunction clone() const {
    InlineFunction copy;
    if (ops_ != nullptr) {
      ops_->copy(copy.storage_, storage_);
      copy.ops_ = ops_;
    }
    return copy;
  }

  /// Invokes the stored callable.  Requires non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  ///< move-construct dst, destroy src
    void (*destroy)(void*);
    void (*copy)(void* dst, const void* src);
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      [](void* dst, const void* src) {
        ::new (dst) Fn(*static_cast<const Fn*>(src));
      },
  };

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kAlignment) std::byte storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace aedbmls::sim
