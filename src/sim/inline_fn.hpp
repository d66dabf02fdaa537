// Small-buffer-optimized callable for the event-loop hot path.
//
// std::function heap-allocates once its (implementation-defined, ~16-32
// byte) inline buffer overflows, and libstdc++'s requires the target to
// be copyable. Event callbacks are scheduled and fired millions of times
// per trial, so we use a move-only wrapper with a guaranteed inline
// capacity instead: callables up to `InlineBytes` live inside the
// wrapper itself (no allocation); larger ones fall back to a single
// heap cell.
// Move-only also lets callbacks own shared_ptr / unique_ptr captures,
// which the packet-forwarding path relies on.
//
// The event loop builds each callback in place (assign) and runs and
// destroys it there (consume), so a scheduled callable is constructed
// once from the caller's argument and never relocated.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tmg::sim {

template <std::size_t InlineBytes>
class InlineFn {
 public:
  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace<D>(std::forward<F>(fn));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(&storage_); }

  /// Replace the target with `fn`, constructed straight from the
  /// argument in this object's storage: no temporary InlineFn and no
  /// relocation. Assigning an InlineFn moves its target in.
  template <typename F>
  void assign(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineFn>) {
      *this = std::forward<F>(fn);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      reset();
      emplace<D>(std::forward<F>(fn));
    }
  }

  /// Invoke the target, then destroy it: one indirect call. A target
  /// that throws is not destroyed and stays owned here, so reset() or
  /// the destructor destroys it exactly once.
  void consume() {
    ops_->consume(&storage_);
    ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  /// True when the current target lives in the inline buffer (test hook).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_stored;
  }

  /// True when a callable of type F would be stored in the inline buffer
  /// rather than a heap cell. Hot scheduling sites static_assert it, so
  /// a capture that outgrows the buffer fails the build instead of
  /// costing one allocation per event.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= InlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*consume)(void*);  // invoke, then destroy (skipped if it throws)
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void*);
    bool inline_stored;
  };

  template <typename D, typename F>
  void emplace(F&& fn) {
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(fn));
      static constexpr Ops ops{
          [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
          [](void* s) {
            D* target = std::launder(reinterpret_cast<D*>(s));
            (*target)();
            target->~D();
          },
          [](void* dst, void* src) {
            D* from = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
          },
          [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
          /*inline_stored=*/true,
      };
      ops_ = &ops;
    } else {
      ::new (static_cast<void*>(&storage_)) D*(new D(std::forward<F>(fn)));
      static constexpr Ops ops{
          [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
          [](void* s) {
            D* target = *std::launder(reinterpret_cast<D**>(s));
            (*target)();
            delete target;
          },
          [](void* dst, void* src) {
            ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
          },
          [](void* s) { delete *std::launder(reinterpret_cast<D**>(s)); },
          /*inline_stored=*/false,
      };
      ops_ = &ops;
    }
  }

  void move_from(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(&storage_, &other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace tmg::sim
