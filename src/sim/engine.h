// Discrete-event simulation engine.
//
// The engine owns a priority queue of event references backed by a slab
// pool of event slots. Events scheduled for the same timestamp fire in
// scheduling order (stable FIFO tie-break), which keeps simulations
// deterministic regardless of queue internals.
//
// Memory layout (the schedule/cancel/dispatch path is the hottest code in
// the repo — see bench/micro_benchmarks.cpp):
//   * callbacks live in a slab of reusable `Slot`s, each holding a
//     small-buffer-optimised `InlineFn` — no per-event heap allocation in
//     steady state;
//   * the queue stores 24-byte POD entries {when, seq, slot} behind the
//     sim::EventQueue interface (src/sim/event_queue.h). The default
//     backend is a fixed-geometry near-future timer wheel (131 µs buckets,
//     ~67 ms horizon) that absorbs the dense periodic tick/slice/softirq
//     traffic in O(1) and spills the rest to an indexed 4-ary heap; an
//     indexed binary heap remains available as the reference backend. All
//     backends dispatch in the identical {when, seq} order, so traces are
//     bit-identical across them;
//   * cancellation erases the event's queue entry in place and frees its
//     slot, bumping the slot's generation counter so every outstanding
//     handle reads spent. The queue holds exactly the pending events, so
//     dispatch never meets a stale entry;
//   * a `Timer` owns one slot and one callback for its whole life. Arming
//     it erases and re-pushes its single entry, and dispatch invokes the
//     callback in place — the shape of Xen's set_timer/stop_timer;
//   * run(), run_until() and run_until_stopped() share one single-pop
//     loop: pop the earliest due entry (one virtual call) and dispatch it.
//     Callbacks may schedule, cancel, arm timers, or start a nested run
//     freely. run_until_stopped() ends after the event whose callback
//     called request_stop(), so a caller waiting for a condition raises
//     the stop where the condition becomes true instead of polling it per
//     dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace irs::sim {

class Engine;
class Trace;
struct EngineTestAccess;

/// Handle to a scheduled event, a {slot, generation} reference into the
/// engine's event pool. Handles are value types: trivially copyable, two
/// words wide, never owning.
///
/// A handle is in exactly one of three states:
///   1. detached  — default-constructed, never bound to an engine:
///                  `!attached() && !pending()`;
///   2. pending   — the event is queued and will fire:
///                  `attached() && pending()`;
///   3. spent     — the event fired or was cancelled (the two are
///                  deliberately indistinguishable: either way it will
///                  never run): `attached() && !pending()`.
/// Cancelling an already-spent or detached handle is a no-op, so callers
/// can hold handles without tracking lifecycle precisely. A handle must not
/// outlive its engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still waiting to fire.
  [[nodiscard]] bool pending() const;

  /// True if this handle was ever returned by a schedule call (i.e. it is
  /// not default-constructed). Distinguishes state 1 from state 3 above.
  [[nodiscard]] bool attached() const { return eng_ != nullptr; }

  /// Prevent the event from firing. Safe to call repeatedly.
  void cancel();

 private:
  friend class Engine;
  EventHandle(Engine* eng, std::uint32_t slot, std::uint32_t gen)
      : eng_(eng), slot_(slot), gen_(gen) {}

  Engine* eng_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A re-armable one-shot timer with one fixed callback, for the timers a
/// model re-arms constantly (slice, tick, burst completion). It holds one
/// engine pool slot for its whole life, so arm()/disarm() only move its
/// single queue entry, and dispatch invokes the callback in place.
///
/// Ordering is exactly that of cancel-then-schedule: every arm draws the
/// next schedule sequence number, so a re-armed timer fires after events
/// already queued for the same instant. pending() reads false while the
/// callback runs, which may re-arm the timer. A default-constructed timer
/// is unbound and must be assigned a bound one before it is armed. A timer
/// must not outlive its engine and must not be destroyed by its own
/// callback; moving it (even from inside the callback) is fine.
class Timer {
 public:
  Timer() = default;
  Timer(Engine& eng, InlineFn fn, const char* label = "");
  Timer(Timer&& other) noexcept { take(other); }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { reset(); }

  /// True while the timer is armed and its callback has not started.
  [[nodiscard]] bool pending() const {
    return body_ != nullptr && body_->armed;
  }

  /// (Re-)arm to fire `delay` from now (negative delays clamp to now).
  void arm(Duration delay);
  /// (Re-)arm to fire at `when` (clamped to now()).
  void arm_at(Time when);
  /// Stop the timer if it is armed; a no-op otherwise.
  void disarm();

 private:
  friend class Engine;
  /// Heap-pinned so the callback never moves while it runs, even if the
  /// engine's slot pool grows or the Timer itself is moved meanwhile.
  struct Body {
    InlineFn fn;
    bool armed = false;
  };

  void take(Timer& other) {
    eng_ = other.eng_;
    slot_ = other.slot_;
    body_ = std::move(other.body_);
    other.eng_ = nullptr;
  }
  void reset();

  Engine* eng_ = nullptr;
  std::uint32_t slot_ = 0;
  std::unique_ptr<Body> body_;
};

/// The event-driven clock that everything in the simulation hangs off.
class Engine {
 public:
  using Callback = InlineFn;

  /// The queue backend defaults to the hybrid wheel; tests and benches
  /// that compare backends pass one explicitly.
  Engine() : Engine(QueueKind::kHybridWheel) {}
  explicit Engine(QueueKind queue_kind)
      : queue_(make_event_queue(queue_kind)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now. Negative delays are clamped
  /// to zero (fires this instant, after already-queued same-time events).
  EventHandle schedule(Duration delay, Callback fn, const char* label = "");

  /// Schedule `fn` at an absolute timestamp (clamped to now()).
  EventHandle schedule_at(Time when, Callback fn, const char* label = "");

  /// Run events until the queue drains or `deadline` passes.
  /// Returns the number of events dispatched.
  std::uint64_t run_until(Time deadline);

  /// Outcome of a bounded run() call.
  struct RunOutcome {
    std::uint64_t dispatched = 0;
    /// True when the run stopped because `max_events` was hit while live
    /// events remained queued — a runaway self-rescheduling loop. Also
    /// recorded on the trace ring (TraceKind::kEngineStop) when tracing is
    /// enabled.
    bool budget_exhausted = false;
  };

  /// Run until no events remain, or until `max_events` have been
  /// dispatched. Callers passing a budget must check
  /// `RunOutcome::budget_exhausted` — hitting the guard is a simulation
  /// bug (runaway loop), not a normal completion.
  RunOutcome run(std::uint64_t max_events = UINT64_MAX);

  /// Ask the running run_until_stopped() to return once the current event's
  /// callback finishes. A request made while no such run is active makes
  /// the next one return before dispatching anything.
  void request_stop() { stop_requested_ = true; }

  /// Dispatch events until a callback calls request_stop() (returns true),
  /// the queue drains, or the clock has reached `deadline` (both false).
  /// The deadline is checked before each dispatch and does not bound the
  /// pop, so the run ends after the first event at or past it; the clock is
  /// not advanced to the deadline. The stop request is consumed on return.
  bool run_until_stopped(Time deadline = kTimeMax);

  /// Number of events waiting to fire: pending scheduled events plus
  /// armed timers.
  [[nodiscard]] std::size_t queued() const { return queue_->size(); }

  /// Size of the slot pool: the high-water mark of pending scheduled events
  /// plus bound timers.
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

  /// Total events dispatched over the engine's lifetime.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// The queue backend this engine dispatches from.
  [[nodiscard]] QueueKind queue_kind() const { return queue_->kind(); }
  [[nodiscard]] const char* queue_name() const { return queue_->name(); }

  /// Attach a trace ring for engine-level diagnostics (budget exhaustion).
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Always 1 (single-pop dispatch); kept for perfbench's provenance.
  static constexpr std::size_t default_dispatch_batch() { return 1; }

 private:
  friend class EventHandle;
  friend class Timer;
  friend struct EngineTestAccess;

  static constexpr std::uint32_t kNpos = UINT32_MAX;

  /// Pooled event body. A scheduled event keeps its callback in `fn`; a
  /// slot bound to a Timer points at the timer's body instead. `gen`
  /// counts releases of the slot: an EventHandle is pending iff its
  /// generation matches. Generations are 32-bit: a stale handle could
  /// alias a future event only after 2^32 reuses of one slot while the
  /// handle is still held, which no simulation approaches (engines
  /// dispatch ~1e7 events total).
  struct Slot {
    Callback fn;
    Timer::Body* timer = nullptr;
    const char* label = "";
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNpos;
  };

  [[nodiscard]] bool event_pending(std::uint32_t slot,
                                   std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void cancel_event(std::uint32_t slot, std::uint32_t gen);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  std::uint32_t bind_timer(Timer::Body* body, const char* label);
  void unbind_timer(std::uint32_t slot, Timer::Body* body);
  void arm_timer(std::uint32_t slot, Timer::Body* body, Time when);
  void disarm_timer(std::uint32_t slot, Timer::Body* body);

  /// The one dispatch loop body: pop the earliest entry due by `deadline`
  /// and dispatch it — free a scheduled event's slot (or mark a timer
  /// unarmed), advance the clock, invoke. False when nothing is due.
  bool dispatch_next(Time deadline);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stop_requested_ = false;
  std::unique_ptr<EventQueue> queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNpos;
  Trace* trace_ = nullptr;
};

inline bool EventHandle::pending() const {
  return eng_ != nullptr && eng_->event_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (eng_ != nullptr) eng_->cancel_event(slot_, gen_);
}

inline Timer::Timer(Engine& eng, InlineFn fn, const char* label)
    : eng_(&eng), body_(std::make_unique<Body>()) {
  body_->fn = std::move(fn);
  slot_ = eng.bind_timer(body_.get(), label);
}

inline void Timer::arm(Duration delay) {
  arm_at(eng_->now() + (delay < 0 ? 0 : delay));
}

inline void Timer::arm_at(Time when) {
  eng_->arm_timer(slot_, body_.get(), when);
}

inline void Timer::disarm() {
  if (pending()) eng_->disarm_timer(slot_, body_.get());
}

inline void Timer::reset() {
  if (eng_ != nullptr) eng_->unbind_timer(slot_, body_.get());
  eng_ = nullptr;
  body_.reset();
}

}  // namespace irs::sim
