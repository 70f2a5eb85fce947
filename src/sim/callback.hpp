#pragma once
// Move-only one-shot callable for simulator events.
//
// std::function is the wrong tool for the event hot path: libstdc++'s
// small-object buffer is 16 bytes, and almost every closure in this
// codebase captures more than that (a link-delivery event owns the
// in-flight Packet, ~170 bytes), so the old event loop paid one heap
// allocation — and, via priority_queue::top()'s const ref, one heap
// *copy* — per event. Callback keeps a 240-byte inline buffer sized so
// that a {Simulator*, Packet} closure stays inline and an event-pool
// node is exactly 256 bytes (four cache lines). Callables that are larger
// than the buffer, over-aligned, or not nothrow-move-constructible fall
// back to a single heap allocation, preserving correctness for arbitrary
// captures.
//
// One-shot semantics on purpose: a simulator event fires exactly once,
// so operator() destroys the callable as it invokes it (one fused
// indirect call instead of separate invoke + destroy dispatches), and
// emplace() lets the scheduler construct the callable directly in a
// pool node with zero intermediate type-erased moves. Move-only because
// requiring copyability (as std::function does) would forbid closures
// that own move-only resources and silently double-buffer payloads.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace zhuge::sim {

/// Type-erased move-only `void()` callable with a large inline buffer.
/// Invocation consumes it: after operator() returns, the Callback is
/// empty. (If the callable throws, it is leaked, not double-destroyed —
/// simulator callbacks are noexcept in practice.)
class Callback {
 public:
  /// Inline capacity. Chosen so sizeof(Callback) == 256: a pool node is
  /// exactly four cache lines (its bookkeeping lives in a separate array;
  /// see simulator.hpp).
  static constexpr std::size_t kInlineSize = 240;

  Callback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    init(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { steal(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Destroy any held callable, then construct `f` in place — the
  /// zero-move path the scheduler uses to fill pool nodes.
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    reset();
    init(std::forward<F>(f));
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  /// Invoke and consume: the callable is destroyed (heap fallback:
  /// freed) as part of the same indirect call, leaving *this empty.
  void operator()() {
    const InvokeFn inv = invoke_;
    invoke_ = nullptr;
    manage_ = nullptr;
    inv(buf_);
  }

  /// Destroy the held callable without invoking it (no-op if empty).
  /// Used to drop a cancelled event's payload eagerly.
  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  /// True if callables of type Fn live in the inline buffer (exposed for
  /// the unit tests that pin the no-allocation property).
  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* src, void* dst);

  template <typename F>
  void init(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* buf) {
        Fn* self = std::launder(reinterpret_cast<Fn*>(buf));
        (*self)();
        self->~Fn();
      };
      manage_ = [](Op op, void* src, void* dst) {
        Fn* self = std::launder(reinterpret_cast<Fn*>(src));
        if (op == Op::kMoveTo) ::new (dst) Fn(std::move(*self));
        self->~Fn();
      };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* buf) {
        Fn* heap = *std::launder(reinterpret_cast<Fn**>(buf));
        (*heap)();
        delete heap;
      };
      manage_ = [](Op op, void* src, void* dst) {
        Fn** self = std::launder(reinterpret_cast<Fn**>(src));
        if (op == Op::kMoveTo) {
          ::new (dst) Fn*(*self);  // transfer ownership of the heap object
        } else {
          delete *self;
        }
      };
    }
  }

  void steal(Callback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, other.buf_, buf_);
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(Callback) == 256, "keep pool nodes at 256 bytes");

}  // namespace zhuge::sim
