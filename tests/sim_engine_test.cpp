// Unit tests for the discrete-event engine.
#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/trace.h"

namespace irs::sim {

/// Test-only backdoor into the event pool, used to fast-forward a slot's
/// generation counter to the wraparound boundary (reaching it organically
/// would take 2^32 schedules).
struct EngineTestAccess {
  static void set_slot_generation(Engine& eng, std::uint32_t slot,
                                  std::uint32_t gen) {
    eng.slots_.at(slot).gen = gen;
  }
  static std::uint32_t slot_generation(const Engine& eng,
                                       std::uint32_t slot) {
    return eng.slots_.at(slot).gen;
  }
};

namespace {

TEST(Engine, DefaultsToWheelBackendAndSinglePopDispatch) {
  Engine eng;
  EXPECT_EQ(eng.queue_kind(), QueueKind::kHybridWheel);
  EXPECT_STREQ(eng.queue_name(), "wheel");
  static_assert(Engine::default_dispatch_batch() == 1);
}

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.dispatched(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(milliseconds(3), [&] { order.push_back(3); });
  eng.schedule(milliseconds(1), [&] { order.push_back(1); });
  eng.schedule(milliseconds(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), milliseconds(3));
}

TEST(Engine, SameTimestampIsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  eng.schedule(milliseconds(1), [] {});
  eng.run();
  bool fired = false;
  eng.schedule(-milliseconds(5), [&] { fired = true; });
  eng.run();
  fired = false;
  eng.schedule(-1, [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.now(), milliseconds(1));
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine eng;
  eng.schedule(milliseconds(10), [] {});
  eng.run();
  Time fired_at = -1;
  eng.schedule_at(milliseconds(2), [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, milliseconds(10));
}

TEST(Engine, CancelPreventsDispatch) {
  Engine eng;
  bool fired = false;
  EventHandle h = eng.schedule(milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine eng;
  int count = 0;
  EventHandle h = eng.schedule(milliseconds(1), [&] { ++count; });
  eng.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  eng.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule(milliseconds(i), [&] { ++fired; });
  }
  const auto n = eng.run_until(milliseconds(5));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(eng.now(), milliseconds(5));
  eng.run();
  EXPECT_EQ(fired, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine eng;
  eng.run_until(seconds(2));
  EXPECT_EQ(eng.now(), seconds(2));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  std::vector<Time> times;
  std::function<void()> chain = [&] {
    times.push_back(eng.now());
    if (times.size() < 5) eng.schedule(milliseconds(1), chain);
  };
  eng.schedule(0, chain);
  eng.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<Time>(i) * kMillisecond);
  }
}

TEST(Engine, RunUntilStoppedEndsAfterTheStoppingEvent) {
  Engine eng;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    eng.schedule(i, [&] {
      if (++count == 10) eng.request_stop();
    });
  }
  EXPECT_TRUE(eng.run_until_stopped());
  EXPECT_EQ(count, 10);
  EXPECT_EQ(eng.now(), 9);
  // The request was consumed: the next run goes on to the deadline, ends
  // after the first event at or past it, and leaves the clock there.
  EXPECT_FALSE(eng.run_until_stopped(/*deadline=*/20));
  EXPECT_EQ(count, 21);
  EXPECT_EQ(eng.now(), 20);
  // A stop requested outside a run ends the next one before any dispatch.
  eng.request_stop();
  EXPECT_TRUE(eng.run_until_stopped());
  EXPECT_EQ(count, 21);
}

TEST(Engine, RunUntilStoppedReturnsFalseWhenDrained) {
  Engine eng;
  eng.schedule(1, [] {});
  EXPECT_FALSE(eng.run_until_stopped());
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.now(), 1);
}

TEST(Engine, DispatchedCounterExcludesCancelled) {
  Engine eng;
  auto h1 = eng.schedule(1, [] {});
  eng.schedule(2, [] {});
  h1.cancel();
  eng.run();
  EXPECT_EQ(eng.dispatched(), 1u);
}

// --- Event pool / generation-handle behaviour ---

TEST(EnginePool, HandleHasThreeStates) {
  Engine eng;
  // State 1: detached (default-constructed).
  EventHandle detached;
  EXPECT_FALSE(detached.attached());
  EXPECT_FALSE(detached.pending());

  // State 2: pending.
  EventHandle h = eng.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(h.attached());
  EXPECT_TRUE(h.pending());

  // State 3: spent via firing. Still attached, no longer pending.
  eng.run();
  EXPECT_TRUE(h.attached());
  EXPECT_FALSE(h.pending());

  // State 3 via cancellation is indistinguishable from firing.
  EventHandle c = eng.schedule(milliseconds(1), [] {});
  c.cancel();
  EXPECT_TRUE(c.attached());
  EXPECT_FALSE(c.pending());
}

TEST(EnginePool, SlotReusedAfterFire) {
  Engine eng;
  eng.schedule(1, [] {});
  eng.run();
  ASSERT_EQ(eng.pool_slots(), 1u);
  // The freed slot is recycled instead of growing the pool.
  eng.schedule(1, [] {});
  EXPECT_EQ(eng.pool_slots(), 1u);
  eng.run();
  EXPECT_EQ(eng.pool_slots(), 1u);
}

TEST(EnginePool, SlotReusedAfterCancel) {
  Engine eng;
  EventHandle h = eng.schedule(1000, [] {});
  ASSERT_EQ(eng.pool_slots(), 1u);
  h.cancel();
  EXPECT_EQ(eng.queued(), 0u);
  // New event reuses the cancelled slot; the old handle must not alias it.
  EventHandle h2 = eng.schedule(2000, [] {});
  EXPECT_EQ(eng.pool_slots(), 1u);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(h2.pending());
  h.cancel();  // stale handle: must not cancel the new event
  EXPECT_TRUE(h2.pending());
  int fired = 0;
  eng.schedule(3000, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EnginePool, SteadyStateKeepsPoolFlat) {
  Engine eng;
  // A self-rescheduling ticker plus a cancel-heavy side channel: the pool
  // must stay at its high-water mark, not grow with event count.
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 1000) eng.schedule(10, tick);
  };
  eng.schedule(0, tick);
  eng.run();
  EXPECT_EQ(ticks, 1000);
  EXPECT_LE(eng.pool_slots(), 2u);
}

TEST(EnginePool, GenerationWraparoundIsSafe) {
  Engine eng;
  // Create slot 0 and free it, then fast-forward its generation counter to
  // the wrap boundary.
  eng.schedule(1, [] {});
  eng.run();
  EngineTestAccess::set_slot_generation(eng, 0, UINT32_MAX);

  int fired = 0;
  EventHandle old = eng.schedule(1, [&] { ++fired; });
  EXPECT_TRUE(old.pending());
  eng.run();  // firing bumps the generation: UINT32_MAX wraps to 0
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(EngineTestAccess::slot_generation(eng, 0), 0u);

  // The slot is reused at generation 0; the spent handle (gen UINT32_MAX)
  // must neither read as pending nor cancel the new occupant.
  EventHandle fresh = eng.schedule(1, [&] { ++fired; });
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  old.cancel();
  EXPECT_TRUE(fresh.pending());
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(EnginePool, FifoTieBreakSurvivesCancelAndReuse) {
  Engine eng;
  std::vector<int> order;
  auto push = [&](int v) { return [&order, v] { order.push_back(v); }; };
  eng.schedule(milliseconds(1), push(0));
  EventHandle b = eng.schedule(milliseconds(1), push(1));
  eng.schedule(milliseconds(1), push(2));
  b.cancel();
  // Reuses b's slot but must still fire last (scheduling order, not slot
  // order, breaks timestamp ties).
  eng.schedule(milliseconds(1), push(3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(EnginePool, CancelErasesTheEntryLeavingLiveEventsQueued) {
  Engine eng;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(eng.schedule(milliseconds(i + 1), [&] { ++fired; }));
  }
  ASSERT_EQ(eng.queued(), 100u);
  // Every cancel removes its own entry at once: the queue holds exactly
  // the pending events, with no stale entry left for dispatch to skip.
  for (int i = 0; i < 60; ++i) {
    handles[static_cast<std::size_t>(i)].cancel();
    EXPECT_EQ(eng.queued(), static_cast<std::size_t>(99 - i));
  }
  // Cancelling a spent handle again changes nothing.
  handles[0].cancel();
  EXPECT_EQ(eng.queued(), 40u);
  eng.run();
  EXPECT_EQ(fired, 40);
  for (int i = 60; i < 100; ++i) {
    EXPECT_FALSE(handles[static_cast<std::size_t>(i)].pending());
  }
}

TEST(EnginePool, CancelledFrontEventDoesNotCarryRunUntilPastDeadline) {
  Engine eng;
  // Cancelling the only event before the deadline must not let dispatch
  // run past the deadline to the next live event.
  EventHandle early = eng.schedule(milliseconds(1), [] {});
  int fired = 0;
  eng.schedule(milliseconds(10), [&] { ++fired; });
  early.cancel();
  eng.run_until(milliseconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), milliseconds(5));
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EnginePool, RunReportsBudgetExhaustion) {
  Engine eng;
  Trace trace(16);
  eng.set_trace(&trace);
  // Runaway self-rescheduling loop.
  std::function<void()> forever = [&] { eng.schedule(1, forever); };
  eng.schedule(0, forever);
  const Engine::RunOutcome out = eng.run(/*max_events=*/10);
  EXPECT_EQ(out.dispatched, 10u);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(trace.count(TraceKind::kEngineStop), 1u);

  // A drained queue is a normal completion, not exhaustion — even when the
  // count lands exactly on the budget.
  Engine eng2;
  eng2.schedule(1, [] {});
  eng2.schedule(2, [] {});
  const Engine::RunOutcome done = eng2.run(/*max_events=*/2);
  EXPECT_EQ(done.dispatched, 2u);
  EXPECT_FALSE(done.budget_exhausted);
}

// --- sim::Timer ---

TEST(Timer, RearmFromInsideOwnCallbackKeepsOneSlot) {
  Engine eng;
  std::vector<Time> fired;
  Timer t;
  t = Timer(eng, [&] {
    fired.push_back(eng.now());
    if (fired.size() < 5) t.arm(milliseconds(2));
  });
  const std::size_t slots = eng.pool_slots();
  t.arm(milliseconds(1));
  EXPECT_EQ(eng.queued(), 1u);
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(1), milliseconds(3),
                                      milliseconds(5), milliseconds(7),
                                      milliseconds(9)}));
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.pool_slots(), slots);  // no slot churn across re-arms
  EXPECT_EQ(eng.dispatched(), 5u);
}

/// Dispatch log of a same-instant mix where one timer is re-armed while
/// pending, either through sim::Timer or as cancel + schedule.
std::vector<int> rearm_order(bool use_timer) {
  Engine eng;
  std::vector<int> order;
  auto note = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  Timer timer(eng, note(0));
  EventHandle handle;
  auto arm = [&](Duration d) {
    if (use_timer) {
      timer.arm(d);
    } else {
      handle.cancel();
      handle = eng.schedule(d, note(0));
    }
  };
  arm(milliseconds(1));             // first at t=1, ahead of event 1
  eng.schedule(milliseconds(1), note(1));
  arm(milliseconds(1));             // re-armed: now behind event 1
  eng.schedule(milliseconds(1), note(2));
  eng.schedule(milliseconds(2), [&] {
    order.push_back(3);
    arm(0);                         // this instant, after queued event 4
  });
  eng.schedule(milliseconds(2), note(4));
  eng.run();
  return order;
}

TEST(Timer, ArmingAPendingTimerKeepsCancelThenScheduleFifo) {
  const std::vector<int> expected{1, 0, 2, 3, 4, 0};
  EXPECT_EQ(rearm_order(/*use_timer=*/false), expected);
  EXPECT_EQ(rearm_order(/*use_timer=*/true), expected);
}

TEST(Timer, DestroyingAPendingTimerRemovesItsEvent) {
  Engine eng;
  int fired = 0;
  {
    Timer t(eng, [&] { ++fired; });
    t.arm(milliseconds(1));
    EXPECT_EQ(eng.queued(), 1u);
  }
  EXPECT_EQ(eng.queued(), 0u);
  // The freed slot is reused by the next event, and nothing stale fires.
  const std::size_t slots = eng.pool_slots();
  eng.schedule(milliseconds(2), [&] { fired += 10; });
  EXPECT_EQ(eng.pool_slots(), slots);
  eng.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(eng.dispatched(), 1u);
}

TEST(Timer, PendingReadsFalseWhileItsCallbackRuns) {
  Engine eng;
  std::vector<bool> seen;
  Timer t;
  t = Timer(eng, [&] {
    seen.push_back(t.pending());
    t.disarm();  // a no-op on an unarmed timer
  });
  EXPECT_FALSE(t.pending());
  t.arm(milliseconds(1));
  EXPECT_TRUE(t.pending());
  eng.run();
  EXPECT_EQ(seen, (std::vector<bool>{false}));
  EXPECT_FALSE(t.pending());
}

TEST(Timer, DisarmMoveAndArmAtClampToNow) {
  Engine eng;
  std::vector<Time> fired;
  Timer a(eng, [&] { fired.push_back(eng.now()); });
  a.arm(milliseconds(5));
  a.disarm();
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(eng.queued(), 0u);
  a.arm(milliseconds(3));
  // Moving a pending timer moves its queued entry with it.
  Timer b(std::move(a));
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.pending());
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(3)}));
  b.arm_at(milliseconds(1));  // in the past: fires now, like schedule_at
  b.arm(-5);                  // negative delay: fires now, re-armed
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(3), milliseconds(3)}));
}

// --- Dispatch edge cases, on every queue backend ---

class EngineDispatch : public ::testing::TestWithParam<QueueKind> {};

TEST_P(EngineDispatch, InCallbackSchedulesFireInGlobalOrder) {
  // A callback schedules ahead of already-queued events (t=1500, between
  // queued 1000 and 2000) and at an already-passed time (clamped to now).
  // Both must interleave exactly where {when, seq} places them.
  Engine eng(GetParam());
  std::vector<std::pair<Time, int>> fired;
  auto note = [&](int id) { fired.push_back({eng.now(), id}); };
  for (int i = 0; i < 64; ++i) {
    eng.schedule((i + 1) * 1000, [&note, i] { note(i); });
  }
  eng.schedule(1000, [&] {
    note(100);
    eng.schedule(500, [&note] { note(101); });  // t=1500: between queued
    eng.schedule(-5, [&note] { note(102); });   // clamped to t=1000
    eng.schedule(0, [&note] { note(103); });    // t=1000, later seq
  });
  eng.run();
  ASSERT_EQ(fired.size(), 68u);
  // t=1000: event 0 (seq order), then the extra callback, then its two
  // same-timestamp children; t=1500 lands between events 0 and 1.
  EXPECT_EQ(fired[0], (std::pair<Time, int>{1000, 0}));
  EXPECT_EQ(fired[1], (std::pair<Time, int>{1000, 100}));
  EXPECT_EQ(fired[2], (std::pair<Time, int>{1000, 102}));
  EXPECT_EQ(fired[3], (std::pair<Time, int>{1000, 103}));
  EXPECT_EQ(fired[4], (std::pair<Time, int>{1500, 101}));
  EXPECT_EQ(fired[5], (std::pair<Time, int>{2000, 1}));
  for (int i = 2; i < 64; ++i) {
    EXPECT_EQ(fired[4 + i], (std::pair<Time, int>{(i + 1) * 1000, i}));
  }
}

TEST_P(EngineDispatch, NestedRunDispatchesQueuedEvents) {
  // An event's callback starts a nested run over a window that covers
  // events already queued: the nested run must dispatch them in order,
  // and the outer run must resume after them, never skip or repeat.
  Engine eng(GetParam());
  std::vector<int> fired;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule(i * 100, [&fired, i] { fired.push_back(i); });
  }
  eng.schedule(100, [&] {
    fired.push_back(-1);
    eng.run_until(450);  // covers events 2..4
    fired.push_back(-2);
  });
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{1, -1, 2, 3, 4, -2, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(eng.queued(), 0u);
}

TEST_P(EngineDispatch, BudgetStopThenResumeLosesNothing) {
  Engine eng(GetParam());
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    eng.schedule(i + 1, [&fired, i] { fired.push_back(i); });
  }
  const auto out = eng.run(30);
  EXPECT_EQ(out.dispatched, 30u);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(eng.queued(), 70u);
  const auto rest = eng.run();
  EXPECT_EQ(rest.dispatched, 70u);
  EXPECT_FALSE(rest.budget_exhausted);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[i], i);
}

TEST_P(EngineDispatch, CancelOfQueuedEntryFromCallbackIsHonoured) {
  // The first callback cancels events that are already queued: they must
  // not fire, and each cancel must take its entry out of the queue.
  Engine eng(GetParam());
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(
        eng.schedule(i + 1, [&fired, i] { fired.push_back(i); }));
  }
  eng.schedule(0, [&] {
    handles[5].cancel();
    handles[20].cancel();
    handles[39].cancel();
    EXPECT_EQ(eng.queued(), 37u);
  });
  eng.run();
  EXPECT_EQ(fired.size(), 37u);
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 5) == fired.end());
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 20) == fired.end());
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 39) == fired.end());
  EXPECT_EQ(eng.queued(), 0u);
}

/// Self-rescheduling workload with in-callback cancels, driven through one
/// of the three run entry points; returns the {when, id} dispatch log.
std::vector<std::pair<Time, int>> drive_workload(QueueKind kind, int mode) {
  Engine eng(kind);
  std::vector<std::pair<Time, int>> fired;
  std::vector<EventHandle> handles;
  std::function<void(int)> fire = [&](int id) {
    fired.push_back({eng.now(), id});
    if (id < 600) {
      const int child = id + 200;
      handles.push_back(eng.schedule((id * 13) % 500,
                                     [&fire, child] { fire(child); }));
    }
    if (id % 5 == 0) handles[(id * 7) % handles.size()].cancel();
  };
  for (int i = 0; i < 200; ++i) {
    handles.push_back(eng.schedule((i * 37) % 1000, [&fire, i] { fire(i); }));
  }
  switch (mode) {
    case 0:
      EXPECT_FALSE(eng.run().budget_exhausted);
      break;
    case 1:
      while (eng.queued() > 0) eng.run_until(eng.now() + 97);
      break;
    default:
      EXPECT_FALSE(eng.run_until_stopped());
      break;
  }
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.dispatched(), fired.size());
  return fired;
}

TEST_P(EngineDispatch, RunEntryPointsDispatchIdentically) {
  // run(), chunked run_until() and run_until_stopped() share one dispatch
  // loop, so the same workload must fire the same events at the same times
  // in the same order whichever entry point drives it.
  const auto via_run = drive_workload(GetParam(), 0);
  ASSERT_GT(via_run.size(), 200u);
  ASSERT_LT(via_run.size(), 800u);  // some cancels really landed
  EXPECT_TRUE(std::is_sorted(
      via_run.begin(), via_run.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_EQ(drive_workload(GetParam(), 1), via_run);
  EXPECT_EQ(drive_workload(GetParam(), 2), via_run);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EngineDispatch,
    ::testing::Values(QueueKind::kBinaryHeap, QueueKind::kQuadHeap,
                      QueueKind::kHybridWheel),
    [](const ::testing::TestParamInfo<QueueKind>& info) {
      return std::string(make_event_queue(info.param)->name());
    });

// --- InlineFn (small-buffer callback) ---

TEST(InlineFn, TypicalSimCallbacksFitInline) {
  // Engine callbacks capture a few pointers/ids/durations; all of those
  // shapes must stay in the inline buffer (zero heap in steady state).
  struct FourPtrs {
    void *a, *b, *c, *d;
    void operator()() const {}
  };
  struct PtrsAndScalars {
    void* self;
    std::uint64_t id;
    Time when;
    Duration dur;
    int cpu;
    void operator()() const {}
  };
  static_assert(InlineFn::stores_inline<FourPtrs>());
  static_assert(InlineFn::stores_inline<PtrsAndScalars>());
}

TEST(InlineFn, OversizedCallableFallsBackToHeapAndStillRuns) {
  std::array<std::uint64_t, 32> big{};  // 256 bytes > kInlineBytes
  big[0] = 7;
  big[31] = 9;
  std::uint64_t sum = 0;
  auto fn = [big, &sum] { sum = big[0] + big[31]; };
  static_assert(!InlineFn::stores_inline<decltype(fn)>());
  Engine eng;
  eng.schedule(1, fn);
  eng.run();
  EXPECT_EQ(sum, 16u);
}

TEST(InlineFn, MoveTransfersOwnership) {
  int calls = 0;
  InlineFn a([&] { ++calls; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(EngineTime, ConversionHelpers) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1000 * 1000);
  EXPECT_EQ(seconds(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(30)), 30.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(26)), 26.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
}

}  // namespace
}  // namespace irs::sim
