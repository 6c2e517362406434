// EventQueue backend tests: the queue-level contract every backend must
// honour (strict {when, seq} total order, deadline-bounded pops,
// order-preserving erase from every region, size() counting every queued
// entry), the hybrid wheel's boundary behaviour (horizon spill, cursor
// teleport, behind-cursor pushes), and two randomized engine-level checks:
// schedule/cancel/Timer churn on each backend against a brute-force
// sorted reference kept in this file, and the same churn driven through
// each backend dispatching in the identical order with byte-identical
// trace records.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace {

using namespace irs;

constexpr sim::QueueKind kAllKinds[] = {
    sim::QueueKind::kBinaryHeap,
    sim::QueueKind::kQuadHeap,
    sim::QueueKind::kHybridWheel,
};

std::string kind_label(const ::testing::TestParamInfo<sim::QueueKind>& info) {
  return sim::make_event_queue(info.param)->name();
}

// One wheel bucket spans 2^17 ns; the wheel covers 512 buckets (~67 ms).
// The tests below use these to aim entries at specific wheel regions
// without reaching into backend internals.
constexpr sim::Time kBucketNs = 1 << 17;
constexpr sim::Time kHorizonNs = 512 * kBucketNs;

class QueueBackend : public ::testing::TestWithParam<sim::QueueKind> {
 protected:
  std::unique_ptr<sim::EventQueue> q_ = sim::make_event_queue(GetParam());
};

TEST_P(QueueBackend, ReportsItsKind) {
  EXPECT_EQ(q_->kind(), GetParam());
  EXPECT_STRNE(q_->name(), "");
}

TEST_P(QueueBackend, PopsInTotalOrderAcrossAllRegions) {
  // Entries land in every structural region a backend can have: the open
  // bucket, mid-wheel, the last in-horizon bucket, beyond the horizon, and
  // duplicate timestamps that only `seq` disambiguates.
  std::vector<sim::QEntry> entries;
  std::uint64_t seq = 0;
  for (sim::Time when : {sim::Time{1}, kBucketNs / 2, 3 * kBucketNs,
                         kHorizonNs - 1, kHorizonNs + 5, 40 * kHorizonNs,
                         sim::Time{1}, 3 * kBucketNs, kHorizonNs + 5}) {
    entries.push_back({when, seq, static_cast<std::uint32_t>(seq)});
    ++seq;
  }
  // Push in a scrambled order; the queue must still pop sorted.
  std::vector<sim::QEntry> scrambled = entries;
  sim::Rng rng(7);
  for (std::size_t i = scrambled.size(); i > 1; --i) {
    std::swap(scrambled[i - 1], scrambled[rng.next_below(i)]);
  }
  // `seq` must stay push-monotone per the interface contract, so renumber
  // after the shuffle (the original seq rides along in `slot`).
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    scrambled[i].seq = i;
  }
  for (const auto& e : scrambled) q_->push(e);
  EXPECT_EQ(q_->size(), entries.size());

  std::vector<sim::QEntry> popped;
  sim::QEntry e;
  while (q_->pop(&e)) popped.push_back(e);
  ASSERT_EQ(popped.size(), entries.size());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end(),
                             [](const sim::QEntry& a, const sim::QEntry& b) {
                               return sim::entry_before(a, b);
                             }));
  EXPECT_EQ(q_->size(), 0u);
}

TEST_P(QueueBackend, PopUntilRespectsDeadline) {
  q_->push({10, 0, 0});
  q_->push({kHorizonNs + 10, 1, 1});
  sim::QEntry e;
  EXPECT_FALSE(q_->pop_until(9, &e));
  ASSERT_TRUE(q_->pop_until(10, &e));
  EXPECT_EQ(e.when, 10);
  EXPECT_FALSE(q_->pop_until(kHorizonNs + 9, &e));
  ASSERT_TRUE(q_->pop_until(kHorizonNs + 10, &e));
  EXPECT_EQ(e.when, kHorizonNs + 10);
  EXPECT_FALSE(q_->pop_until(sim::kTimeMax, &e));
}

TEST_P(QueueBackend, RefusedPopDoesNotConsumeOrReorder) {
  // A pop refused by its deadline may open the wheel's next bucket, but
  // must leave every entry queued in the same order.
  q_->push({5 * kBucketNs, 0, 0});
  q_->push({5 * kBucketNs, 1, 1});
  sim::QEntry e;
  EXPECT_FALSE(q_->pop_until(5 * kBucketNs - 1, &e));
  EXPECT_FALSE(q_->pop_until(5 * kBucketNs - 1, &e));
  EXPECT_EQ(q_->size(), 2u);
  ASSERT_TRUE(q_->pop(&e));
  EXPECT_EQ(e.seq, 0u);
  ASSERT_TRUE(q_->pop(&e));
  EXPECT_EQ(e.seq, 1u);
}

TEST_P(QueueBackend, EraseRemovesFromEveryRegionPreservingSurvivorOrder) {
  // Entries span the open bucket's due list (slots 1, 5), unopened buckets
  // (2, and 6-8 sharing bucket 9), and the far heap (3, 4). Erasing the odd
  // slots hits a due-list entry, a heap entry, and the middle of a bucket,
  // whose last entry (8) moves into the gap; erasing 8 afterwards proves
  // its recorded location followed it.
  std::uint64_t seq = 0;
  for (sim::Time when :
       {sim::Time{3}, kBucketNs + 1, 7 * kBucketNs, kHorizonNs + 99,
        2 * kHorizonNs, kBucketNs + 1, 9 * kBucketNs + 30,
        9 * kBucketNs + 10, 9 * kBucketNs + 20}) {
    q_->push({when, seq, static_cast<std::uint32_t>(seq)});
    ++seq;
  }
  // Drain the first entry so the wheel has opened a bucket: erase must
  // also work inside a partially consumed, sorted open bucket.
  sim::QEntry e;
  ASSERT_TRUE(q_->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  EXPECT_EQ(q_->size(), 8u);
  for (std::uint32_t slot : {1u, 3u, 5u, 7u, 8u}) {
    q_->erase(slot);
  }
  EXPECT_EQ(q_->size(), 3u);
  std::vector<std::uint32_t> slots;
  while (q_->pop(&e)) slots.push_back(e.slot);
  EXPECT_EQ(slots, (std::vector<std::uint32_t>{2, 6, 4}));
  EXPECT_EQ(q_->size(), 0u);
}

TEST_P(QueueBackend, SizeCountsEveryResidentEntry) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    // Alternate near-wheel and far-heap placements.
    const sim::Time when =
        (i % 2 == 0) ? static_cast<sim::Time>(i + 1) * kBucketNs / 4
                     : kHorizonNs + static_cast<sim::Time>(i) * kBucketNs;
    q_->push({when, i, static_cast<std::uint32_t>(i)});
    EXPECT_EQ(q_->size(), i + 1);
  }
  sim::QEntry e;
  for (std::size_t left = 100; left > 0; --left) {
    EXPECT_EQ(q_->size(), left);
    ASSERT_TRUE(q_->pop(&e));
  }
  EXPECT_EQ(q_->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, QueueBackend,
                         ::testing::ValuesIn(kAllKinds), kind_label);

// ---------------------------------------------------------------------------
// Hybrid-wheel boundary behaviour
// ---------------------------------------------------------------------------

TEST(WheelQueue, FarFutureEntriesSpillToHeapAndMergeBack) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Far first (heap), then near (wheel): pops must interleave correctly
  // as the cursor crosses from wheel territory into spilled territory.
  q->push({kHorizonNs + 2 * kBucketNs, 0, 0});
  q->push({2 * kBucketNs, 1, 1});
  q->push({kHorizonNs + kBucketNs, 2, 2});
  q->push({kBucketNs, 3, 3});
  sim::QEntry e;
  std::vector<std::uint32_t> order;
  while (q->pop(&e)) order.push_back(e.slot);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{3, 1, 2, 0}));
}

TEST(WheelQueue, CursorTeleportsAcrossIdleGaps) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  sim::QEntry e;
  // Consume one near event, then push far beyond the horizon while the
  // wheel is empty: the cursor teleports instead of sweeping thousands of
  // empty buckets, and the event is wheel-resident (popped, not spilled).
  q->push({kBucketNs, 0, 0});
  ASSERT_TRUE(q->pop(&e));
  const sim::Time far = 1000 * kHorizonNs + 3 * kBucketNs;
  q->push({far, 1, 1});
  q->push({far + kBucketNs, 2, 2});
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 1u);
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);
  EXPECT_FALSE(q->pop(&e));
}

TEST(WheelQueue, PushBehindOpenBucketStillPopsInOrder) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Open a bucket mid-wheel, then push a same-bucket timestamp *behind*
  // the cursor (the engine clamps `when` to now(), so this models a
  // zero-delay event scheduled from inside a dispatch): it must not be
  // lost, and must pop after already-sorted due entries per seq order.
  q->push({5 * kBucketNs + 10, 0, 0});
  q->push({5 * kBucketNs + 20, 1, 1});
  sim::QEntry e;
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  q->push({5 * kBucketNs + 20, 2, 2});  // same when, later seq, open bucket
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 1u);
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);
}

TEST(WheelQueue, SameTimestampFifoAcrossWheelHeapBoundary) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Identical `when` just past the horizon: while near events keep the
  // wheel populated, the far push spills to the heap; once the cursor has
  // advanced enough, a second push of the very same `when` is
  // wheel-resident. The seq tie-break must hold across the two structures.
  const sim::Time when = kHorizonNs + kBucketNs + 7;
  q->push({kBucketNs, 0, 0});      // wheel-resident anchors
  q->push({2 * kBucketNs, 1, 1});
  q->push({when, 2, 2});           // beyond horizon -> heap spill
  sim::QEntry e;
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  ASSERT_TRUE(q->pop(&e));  // cursor now deep enough for `when` to fit
  EXPECT_EQ(e.slot, 1u);
  q->push({when, 3, 3});           // same when, now within horizon
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);  // heap entry first: same when, lower seq
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 3u);
  EXPECT_FALSE(q->pop(&e));
}

TEST(WheelQueue, PushBoundaryIsOneRotationPastOpenBucket) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // With the open bucket at index 0, the last wheel bucket is 511
  // (kHorizonNs - 1) and index 512 (kHorizonNs) would alias the open slot,
  // so it spills. Interleaved pushes on both sides of that line must pop
  // in {when, seq} order, and a deadline one tick short of the horizon
  // must stop exactly at the line.
  q->push({kBucketNs, 0, 0});        // wheel anchor
  q->push({kHorizonNs, 1, 1});       // first spilled index
  q->push({kHorizonNs - 1, 2, 2});   // last wheel bucket
  q->push({kHorizonNs, 3, 3});
  q->push({kHorizonNs - 1, 4, 4});
  EXPECT_EQ(q->size(), 5u);
  sim::QEntry e;
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  // The cursor has moved one bucket on: the same `when` now fits in the
  // wheel and must still order after the spilled entries by seq.
  q->push({kHorizonNs, 5, 5});
  std::vector<std::uint32_t> order;
  while (q->pop_until(kHorizonNs - 1, &e)) order.push_back(e.slot);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(q->size(), 3u);
  while (q->pop(&e)) order.push_back(e.slot);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 4, 1, 3, 5}));
  EXPECT_EQ(q->size(), 0u);
}

TEST(WheelQueue, SpillHeapDrainsAloneAndTakesPushesBehindTeleportedCursor) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  sim::QEntry e;
  // Far entries spill while a near anchor keeps the wheel populated.
  const sim::Time far = 10 * kHorizonNs;
  q->push({kBucketNs, 0, 0});
  q->push({far, 1, 1});
  q->push({far + 5 * kBucketNs, 2, 2});
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  // The wheel is empty now: pops are served by the heap alone,
  // and the deadline still bounds them.
  EXPECT_FALSE(q->pop_until(far - 1, &e));
  EXPECT_EQ(q->size(), 2u);
  // A push far past the heap entries teleports the cursor over them; a
  // later push between the heap top and the new cursor lands behind it.
  q->push({20 * kHorizonNs, 3, 3});
  q->push({far + kBucketNs, 4, 4});
  EXPECT_EQ(q->size(), 4u);
  std::vector<std::uint32_t> order;
  while (q->pop(&e)) order.push_back(e.slot);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 4, 2, 3}));
  EXPECT_EQ(q->size(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: cancels erase in place, wherever the entry sits
// ---------------------------------------------------------------------------

class EngineBackend : public ::testing::TestWithParam<sim::QueueKind> {};

/// Schedule 128 events `spacing` apart starting at `first`, cancel 70 of
/// them in a scrambled order, and check each cancel drops exactly one
/// queued entry and that exactly the survivors fire, in order.
void cancel_scrambled(sim::QueueKind kind, sim::Time first,
                      sim::Duration spacing) {
  sim::Engine eng(kind);
  std::vector<sim::EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 128; ++i) {
    handles.push_back(eng.schedule(first + i * spacing,
                                   [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(eng.queued(), 128u);
  std::vector<bool> cancelled(128, false);
  for (int k = 0; k < 70; ++k) {
    const int i = (k * 37) % 128;  // 37 is coprime to 128: 70 distinct
    handles[static_cast<std::size_t>(i)].cancel();
    cancelled[static_cast<std::size_t>(i)] = true;
    EXPECT_EQ(eng.queued(), static_cast<std::size_t>(127 - k));
  }
  eng.run();
  std::vector<int> expected;
  for (int i = 0; i < 128; ++i) {
    if (!cancelled[static_cast<std::size_t>(i)]) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(eng.queued(), 0u);
}

TEST_P(EngineBackend, WheelResidentCancelsEraseInPlace) {
  // 100 µs apart: inside the wheel horizon, so on the hybrid backend every
  // event is bucket-resident and each cancel is a bucket swap-remove.
  cancel_scrambled(GetParam(), sim::microseconds(100), sim::microseconds(100));
}

TEST_P(EngineBackend, SpillHeapCancelsEraseInPlace) {
  // The far-future mirror: every event sits past the wheel horizon, so on
  // the hybrid backend each cancel is an indexed spill-heap removal.
  cancel_scrambled(GetParam(), 2 * kHorizonNs + sim::milliseconds(1),
                   sim::milliseconds(1));
}

// ---------------------------------------------------------------------------
// Randomized schedule/cancel/Timer churn vs a brute-force sorted reference
// ---------------------------------------------------------------------------

/// The pending set as a plain list, popped by linear min-scan: an order
/// oracle that shares no code with the indexed heaps or the wheel.
class ReferenceQueue {
 public:
  void push(sim::Time when, int id) { q_.push_back({when, seq_++, id}); }
  void remove(int id) {
    for (std::size_t i = 0; i < q_.size(); ++i) {
      if (q_[i].id == id) {
        q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }
  [[nodiscard]] bool contains(int id) const {
    for (const Item& it : q_) {
      if (it.id == id) return true;
    }
    return false;
  }
  /// Remove and return the earliest {when, seq} entry as {when, id};
  /// {-1, -1} when empty.
  std::pair<sim::Time, int> pop() {
    if (q_.empty()) return {-1, -1};
    const std::size_t i = earliest();
    const Item it = q_[i];
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(i));
    return {it.when, it.id};
  }
  [[nodiscard]] sim::Time earliest_when() const {
    return q_.empty() ? sim::kTimeMax : q_[earliest()].when;
  }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

 private:
  struct Item {
    sim::Time when;
    std::uint64_t seq;
    int id;
  };
  [[nodiscard]] std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < q_.size(); ++i) {
      if (q_[i].when < q_[best].when ||
          (q_[i].when == q_[best].when && q_[i].seq < q_[best].seq)) {
        best = i;
      }
    }
    return best;
  }
  std::vector<Item> q_;
  std::uint64_t seq_ = 0;  // mirrors the engine's schedule counter
};

TEST_P(EngineBackend, RandomScheduleCancelTimerChurnMatchesSortedReference) {
  // Interleaves schedule, cancel (live and spent), Timer arm/re-arm/disarm,
  // single dispatches and deadline runs. Timer callbacks sometimes re-arm
  // themselves or another timer from inside dispatch. Every callback pops
  // the reference first and must be its earliest {when, id}; after every
  // operation queued() must equal the pending count and every pending()
  // must agree with the reference.
  for (std::uint64_t seed : {3ull, 11ull, 20261018ull}) {
    sim::Engine eng(GetParam());
    ReferenceQueue ref;
    sim::Rng rng(seed);
    std::uint64_t fired = 0;
    constexpr int kTimers = 6;
    std::vector<sim::Timer> timers;
    std::vector<sim::EventHandle> handles;  // handle i is event kTimers + i

    auto random_delay = [&]() -> sim::Duration {
      switch (rng.next_below(5)) {
        case 0:  // -1, 0 or 1: clamped and same-instant ties
          return static_cast<sim::Duration>(rng.next_below(3)) - 1;
        case 1:  return static_cast<sim::Duration>(rng.next_below(kBucketNs));
        case 2:  return static_cast<sim::Duration>(
            rng.next_below(8 * kBucketNs));
        case 3:  return static_cast<sim::Duration>(rng.next_below(kHorizonNs));
        default: return static_cast<sim::Duration>(
            kHorizonNs + rng.next_below(2 * kHorizonNs));
      }
    };
    auto on_fire = [&](int id) {
      EXPECT_EQ(ref.pop(), (std::pair<sim::Time, int>{eng.now(), id}))
          << "seed " << seed << " dispatch " << fired;
      ++fired;
    };
    auto arm = [&](int t) {
      const sim::Duration d = random_delay();
      ref.remove(t);
      ref.push(eng.now() + std::max<sim::Duration>(d, 0), t);
      timers[static_cast<std::size_t>(t)].arm(d);
    };
    timers.reserve(kTimers);
    for (int t = 0; t < kTimers; ++t) {
      timers.emplace_back(eng, [&, t] {
        on_fire(t);
        if (rng.next_below(3) == 0) arm(t);
        if (rng.next_below(4) == 0) {
          arm(static_cast<int>(rng.next_below(kTimers)));
        }
      });
    }

    for (int op = 0; op < 4000; ++op) {
      switch (rng.next_below(7)) {
        case 0:
        case 1: {
          const int id = kTimers + static_cast<int>(handles.size());
          const sim::Duration d = random_delay();
          ref.push(eng.now() + std::max<sim::Duration>(d, 0), id);
          handles.push_back(eng.schedule(d, [&on_fire, id] { on_fire(id); }));
          break;
        }
        case 2:
          if (!handles.empty()) {
            const std::size_t i = rng.next_below(handles.size());
            ref.remove(kTimers + static_cast<int>(i));
            handles[i].cancel();
          }
          break;
        case 3:
          arm(static_cast<int>(rng.next_below(kTimers)));
          break;
        case 4: {
          const int t = static_cast<int>(rng.next_below(kTimers));
          ref.remove(t);
          timers[static_cast<std::size_t>(t)].disarm();
          break;
        }
        case 5:
          EXPECT_EQ(eng.run(1).dispatched, ref.size() > 0 ? 1u : 0u);
          break;
        default: {
          const sim::Time deadline = eng.now() + random_delay() + 1;
          eng.run_until(deadline);
          EXPECT_GT(ref.earliest_when(), deadline);
          break;
        }
      }
      ASSERT_EQ(eng.queued(), ref.size()) << "seed " << seed << " op " << op;
      for (int t = 0; t < kTimers; ++t) {
        ASSERT_EQ(timers[static_cast<std::size_t>(t)].pending(),
                  ref.contains(t));
      }
      for (std::size_t i = 0; i < handles.size(); i += 5) {
        ASSERT_EQ(handles[i].pending(),
                  ref.contains(kTimers + static_cast<int>(i)));
      }
    }
    eng.run();
    EXPECT_EQ(ref.size(), 0u);
    EXPECT_EQ(eng.dispatched(), fired);
    EXPECT_GT(fired, 1000u);
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence vs the binary-heap oracle
// ---------------------------------------------------------------------------

/// One dispatch observed by the churn driver below.
struct Dispatch {
  sim::Time when;
  int id;
  bool operator==(const Dispatch& o) const {
    return when == o.when && id == o.id;
  }
};

/// Drive a deterministic random schedule/cancel/reschedule workload on an
/// engine with the given backend. Delays mix sub-bucket, cross-bucket, and
/// beyond-horizon magnitudes so entries keep crossing the wheel<->heap
/// boundary; callbacks re-schedule and cancel from inside dispatch. Every
/// dispatch appends to the returned log and records a kUser trace entry.
std::vector<Dispatch> run_churn(sim::QueueKind kind, std::uint64_t seed,
                                sim::Trace* trace) {
  sim::Engine eng(kind);
  eng.set_trace(trace);
  sim::Rng rng(seed);
  std::vector<Dispatch> log;
  std::vector<sim::EventHandle> handles;
  int next_id = 0;

  auto random_delay = [&]() -> sim::Duration {
    switch (rng.next_below(4)) {
      case 0:  return static_cast<sim::Duration>(rng.next_below(64));
      case 1:  return static_cast<sim::Duration>(rng.next_below(kBucketNs));
      case 2:  return static_cast<sim::Duration>(rng.next_below(kHorizonNs));
      default: return static_cast<sim::Duration>(
          kHorizonNs + rng.next_below(4 * kHorizonNs));
    }
  };

  std::function<void(int)> fire = [&](int id) {
    log.push_back({eng.now(), id});
    if (trace != nullptr) {
      trace->record(eng.now(), sim::TraceKind::kUser, id,
                    static_cast<std::int32_t>(log.size()));
    }
    // From inside dispatch: sometimes schedule a successor, sometimes
    // cancel a random outstanding handle.
    if (rng.next_below(3) == 0) {
      const int nid = next_id++;
      handles.push_back(eng.schedule(random_delay(), [&fire, nid] {
        fire(nid);
      }));
    }
    if (!handles.empty() && rng.next_below(4) == 0) {
      handles[rng.next_below(handles.size())].cancel();
    }
  };

  for (int round = 0; round < 40; ++round) {
    const int n = 5 + static_cast<int>(rng.next_below(25));
    for (int i = 0; i < n; ++i) {
      const int id = next_id++;
      handles.push_back(eng.schedule(random_delay(), [&fire, id] {
        fire(id);
      }));
    }
    // Cancel a random batch (some already-fired handles among them — both
    // no-op and live cancels are exercised).
    const int cancels = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      handles[rng.next_below(handles.size())].cancel();
    }
    // Advance by a random slice; occasionally drain completely.
    if (rng.next_below(10) == 0) {
      eng.run();
    } else {
      eng.run_until(eng.now() + random_delay() + 1);
    }
  }
  eng.run();
  EXPECT_EQ(eng.queued(), 0u);
  return log;
}

TEST(QueueOracle, RandomChurnMatchesBinaryHeapDispatchAndTraceBytes) {
  for (std::uint64_t seed : {1ull, 5ull, 20260805ull, 20260808ull,
                             0xabad1deaull, 0xdecafbadull}) {
    sim::Trace oracle_trace(1 << 12);
    const auto oracle =
        run_churn(sim::QueueKind::kBinaryHeap, seed, &oracle_trace);
    ASSERT_FALSE(oracle.empty());
    const auto oracle_snap = oracle_trace.snapshot();

    for (sim::QueueKind kind :
         {sim::QueueKind::kQuadHeap, sim::QueueKind::kHybridWheel}) {
      sim::Trace trace(1 << 12);
      const auto got = run_churn(kind, seed, &trace);
      EXPECT_EQ(got, oracle) << "dispatch order diverged, seed " << seed;
      const auto snap = trace.snapshot();
      ASSERT_EQ(snap.size(), oracle_snap.size());
      // Every trace record field-identical (memcmp would also compare
      // indeterminate padding bytes).
      for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].when, oracle_snap[i].when) << "record " << i;
        EXPECT_EQ(snap[i].seq, oracle_snap[i].seq) << "record " << i;
        EXPECT_EQ(snap[i].kind, oracle_snap[i].kind) << "record " << i;
        EXPECT_EQ(snap[i].a, oracle_snap[i].a) << "record " << i;
        EXPECT_EQ(snap[i].b, oracle_snap[i].b) << "record " << i;
        EXPECT_EQ(snap[i].c, oracle_snap[i].c) << "record " << i;
        EXPECT_TRUE(snap[i].note == oracle_snap[i].note.c_str())
            << "record " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineBackend,
                         ::testing::ValuesIn(kAllKinds), kind_label);

}  // namespace
