#include "src/sim/engine.h"

#include <utility>

#include "src/sim/trace.h"

namespace irs::sim {

EventHandle Engine::schedule(Duration delay, Callback fn, const char* label) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn), label);
}

EventHandle Engine::schedule_at(Time when, Callback fn, const char* label) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.label = label;
  queue_->push(QEntry{when, next_seq_++, slot});
  return EventHandle{this, slot, s.gen};
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.label = "";
  ++s.gen;  // every outstanding handle now reads spent (may wrap)
  s.next_free = free_head_;
  free_head_ = slot;
}

void Engine::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (!event_pending(slot, gen)) return;
  queue_->erase(slot);
  release_slot(slot);
}

std::uint32_t Engine::bind_timer(Timer::Body* body, const char* label) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].timer = body;
  slots_[slot].label = label;
  return slot;
}

void Engine::unbind_timer(std::uint32_t slot, Timer::Body* body) {
  if (body->armed) queue_->erase(slot);
  slots_[slot].timer = nullptr;
  release_slot(slot);
}

void Engine::arm_timer(std::uint32_t slot, Timer::Body* body, Time when) {
  if (when < now_) when = now_;
  if (body->armed) queue_->erase(slot);
  body->armed = true;
  queue_->push(QEntry{when, next_seq_++, slot});
}

void Engine::disarm_timer(std::uint32_t slot, Timer::Body* body) {
  queue_->erase(slot);
  body->armed = false;
}

bool Engine::dispatch_next(Time deadline) {
  QEntry e;
  if (!queue_->pop_until(deadline, &e)) return false;
  now_ = e.when;
  ++dispatched_;
  Slot& s = slots_[e.slot];
  if (Timer::Body* timer = s.timer) {
    // The callback stays where it is: the body is heap-pinned, so the
    // callback may re-arm the timer or grow the slot pool while it runs.
    timer->armed = false;
    timer->fn();
    return true;
  }
  // Move the callback out and free the slot *before* invoking: the
  // callback may itself schedule (reusing this slot) or cancel, and a
  // handle to this event must already read !pending() while it runs.
  Callback fn = std::move(s.fn);
  release_slot(e.slot);
  fn();
  return true;
}

// Counts are taken from dispatched_ so events fired by nested runs inside
// a callback count toward the outer call too.
std::uint64_t Engine::run_until(Time deadline) {
  const std::uint64_t start = dispatched_;
  while (dispatch_next(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
  return dispatched_ - start;
}

Engine::RunOutcome Engine::run(std::uint64_t max_events) {
  const std::uint64_t start = dispatched_;
  while (dispatched_ - start < max_events && dispatch_next(kTimeMax)) {
  }
  RunOutcome out;
  out.dispatched = dispatched_ - start;
  if (out.dispatched >= max_events && queue_->size() > 0) {
    out.budget_exhausted = true;
    if (trace_ != nullptr) {
      trace_->record(now_, TraceKind::kEngineStop, -1, -1,
                     "event budget exhausted: runaway simulation?");
    }
  }
  return out;
}

bool Engine::run_until_stopped(Time deadline) {
  while (!stop_requested_ && now_ < deadline && dispatch_next(kTimeMax)) {
  }
  const bool stopped = stop_requested_;
  stop_requested_ = false;
  return stopped;
}

}  // namespace irs::sim
