// Small-buffer move-only callable for simulator events.
//
// Nearly every event closure in the system captures a `this` pointer plus a
// handful of ids -- far below the inline capacity here -- yet std::function's
// tiny SBO (16 bytes on libstdc++) pushed almost all of them onto the heap,
// one malloc/free per scheduled event. EventFn keeps closures up to
// kInlineBytes in place and only falls back to the heap beyond that, which is
// what makes Simulator::schedule allocation-free on the hot path.
//
// Move-only by design: an event fires once, so there is never a reason to
// copy its closure (copying a std::function was a second hidden allocation).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace streamha {

class EventFn {
 public:
  /// Sized to hold the largest hot-path closure inline -- Network's loopback
  /// data message: a this-pointer, the destination id, the receiver and one
  /// Element, 64 bytes -- with headroom for coordinator callbacks capturing a
  /// few ids more.
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { moveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->call(buf_); }

  /// Destroy the held callable (if any) and return to the empty state.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* storage);
    void (*relocate)(void* from, void* to);  ///< Move-construct + destroy src.
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops inlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* from, void* to) {
        Fn* src = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* s) { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* from, void* to) {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  void moveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace streamha
