// Small-buffer-optimised move-only callable for scheduler event actions.
//
// Every simulated message, timer and tick is one scheduled closure, so the
// per-event cost of std::function (heap allocation for captures beyond the
// ~16-byte libstdc++ SSO, plus RTTI-driven dispatch) is pure hot-path
// overhead. InlineAction stores captures up to kInlineSize bytes directly in
// the event record — every closure the simulator creates fits — and falls
// back to the heap only for oversized or throwing-move callables.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace abe {

class InlineAction {
 public:
  // Sized for the largest hot-path closure: the processing-delay
  // continuation in net/network.cpp captures the owned payload plus five
  // 8-byte routing and timing fields (48 bytes). Network static_asserts
  // stores_inline<> on it and on the delivery event (40 bytes).
  static constexpr std::size_t kInlineSize = 48;

  // True when a callable of type F is stored in the inline buffer (no heap
  // allocation). Relocation must not throw because the scheduler's slab
  // moves records on growth.
  template <typename F>
  static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT: implicit like std::function
    using D = std::decay_t<F>;
    if constexpr (stores_inline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::kOps;
    } else {
      using P = D*;
      ::new (static_cast<void*>(buf_)) P(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  InlineAction(InlineAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Pre: *this holds a callable.
  void operator()() { ops_->invoke(buf_); }

  // Invokes the callable and destroys it in one dispatch (the scheduler's
  // fire path: one fewer indirect call than operator() + ~InlineAction).
  // Pre: *this holds a callable; leaves *this empty. ops_ stays set until
  // the call returns so a throwing callable is still destroyed (exactly
  // once) by ~InlineAction during unwind.
  void invoke_and_reset() {
    ops_->invoke_destroy(buf_);
    ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*invoke_destroy)(void* buf);
    // Move-constructs the payload at dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static D* get(void* buf) { return std::launder(reinterpret_cast<D*>(buf)); }
    static void invoke(void* buf) { (*get(buf))(); }
    static void invoke_destroy(void* buf) {
      D* p = get(buf);
      (*p)();
      p->~D();
    }
    static void relocate(void* dst, void* src) noexcept {
      D* s = get(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* buf) noexcept { get(buf)->~D(); }
    static constexpr Ops kOps{&invoke, &invoke_destroy, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    using P = D*;
    static P& get(void* buf) {
      return *std::launder(reinterpret_cast<P*>(buf));
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void invoke_destroy(void* buf) {
      P p = get(buf);
      (*p)();
      delete p;
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) P(get(src));
      get(src).~P();
    }
    static void destroy(void* buf) noexcept { delete get(buf); }
    static constexpr Ops kOps{&invoke, &invoke_destroy, &relocate, &destroy};
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace abe
