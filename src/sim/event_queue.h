// Priority-queue backends for the discrete-event engine.
//
// The engine's schedule/cancel/dispatch loop is the hottest code in the
// repo, and everything it needs from a queue is three operations over a
// 24-byte POD entry: push, deadline-bounded pop, and erase-by-slot.
// `EventQueue` pins that contract down as a small interface so backends
// can compete on cache behaviour while the engine's determinism story
// stays in one place:
//
//   * total order — entries are ordered by {when, seq}; `seq` is the
//     engine's monotone schedule counter, so same-timestamp events fire in
//     scheduling order (stable FIFO tie-break). Every backend must honour
//     the exact same total order: simulations are bit-identical across
//     backends, which the randomized oracle tests assert.
//   * erase in place — `slot` names the engine pool slot an entry belongs
//     to, and a slot has at most one entry queued at a time. Each backend
//     keeps a 4-byte location per slot, so cancelling an event or
//     re-arming a timer removes its entry where it sits: no stale entry is
//     ever left behind for dispatch to skip or a sweep to remove.
//
// Backends (make_event_queue):
//   * kBinaryHeap — indexed binary heap; kept as the reference backend and
//     the "before" of the deep-queue bench.
//   * kQuadHeap — indexed 4-ary heap. Half the tree depth of a binary
//     heap, and the four children of a node share at most two cache lines,
//     so deep-queue sifts touch fewer lines per level.
//   * kHybridWheel — the default: a two-tier queue. A near-future timer
//     wheel of kWheelBuckets fixed 131 µs buckets (~67 ms horizon) absorbs
//     the dense periodic tick/slice/softirq traffic in O(1) pushes and
//     O(1) swap-remove erases; an indexed 4-ary spill heap holds
//     everything beyond the horizon or behind the cursor. Buckets are
//     sorted lazily when the dispatch cursor reaches them, and pops
//     merge-compare the open bucket against the heap top, preserving the
//     {when, seq} order exactly. An erase inside the open bucket's sorted
//     due list leaves a tombstone there, consumed within that same bucket.
#pragma once

#include <cstdint>
#include <memory>

#include "src/sim/time.h"

namespace irs::sim {

// ---------------------------------------------------------------------------
// Tuning constants, each derived from the simulator's event cadence
// ---------------------------------------------------------------------------

/// Timer-wheel bucket width, as a log2 of nanoseconds: 2^17 ns =
/// 131.072 µs; fixed for the life of the queue. Derived from the scheduling cadence the simulations are
/// dominated by: the hypervisor accounting tick (10 ms) and scheduling
/// slice (30 ms) spawn sub-ms softirq/IPI/wake follow-ups, so adjacent
/// events are typically tens-to-hundreds of µs apart — a 131 µs bucket
/// holds ~1-2 of them, keeping the lazy per-bucket sort trivial.
inline constexpr int kDefaultWheelShift = 17;

/// Bucket count of the timer wheel (power of two for mask arithmetic).
/// At 131 µs per bucket this spans 512 × 131 µs ≈ 67 ms — longer than
/// two 30 ms slices plus margin, so every periodic rearm (tick, slice,
/// credit window) lands inside the wheel instead of spilling.
inline constexpr std::size_t kWheelBuckets = 512;

/// 24-byte POD queue entry; cheap to move during sift operations. `slot`
/// identifies the engine pool slot the callback lives in.
struct QEntry {
  Time when = 0;
  std::uint64_t seq = 0;  // FIFO tie-break for identical timestamps
  std::uint32_t slot = 0;
};

/// Strict total order of dispatch: earlier `when` first, then lower `seq`.
inline bool entry_before(const QEntry& a, const QEntry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// Deadline that never bounds a pop (every event `when` is below it).
inline constexpr Time kTimeMax = INT64_MAX;

/// Selects an EventQueue backend (see make_event_queue).
enum class QueueKind : std::uint8_t {
  kBinaryHeap,
  kQuadHeap,
  kHybridWheel,
};

/// Minimal priority-queue contract the engine dispatch loop needs.
/// Entries are opaque to the queue apart from the {when, seq} order and
/// the `slot` key that erase() looks them up by.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  [[nodiscard]] virtual QueueKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Insert an entry. `e.when` must be >= the `when` of every entry already
  /// popped, `e.seq` must never collide with a queued entry's seq (the
  /// engine clamps `when` to now() and draws seq from a counter), and no
  /// other entry with `e.slot` may be queued.
  virtual void push(const QEntry& e) = 0;

  /// Remove and return the earliest entry by {when, seq} iff its `when` is
  /// <= deadline; false when the queue is empty or the earliest entry is
  /// later. The single-event extraction primitive: deadline-bounded runs
  /// and unbounded runs (deadline = kTimeMax) share it, so extraction costs
  /// one virtual call per event. A refused pop may reorganise internal
  /// state (the wheel opens its next bucket) but never changes the pop
  /// sequence.
  virtual bool pop_until(Time deadline, QEntry* out) = 0;

  /// Remove and return the earliest entry; false when empty.
  bool pop(QEntry* out) { return pop_until(kTimeMax, out); }

  /// Remove the queued entry of `slot`, which must be queued. The
  /// {when, seq} order of every other entry is unchanged.
  virtual void erase(std::uint32_t slot) = 0;

  /// Entries currently queued, wherever they sit (heap, wheel bucket, or
  /// the open bucket's due list; due-list tombstones are not counted).
  [[nodiscard]] virtual std::size_t size() const = 0;
};

/// Parse a backend name ("binary", "quad", "wheel"). Returns false on
/// unknown names.
bool parse_queue_kind(const char* s, QueueKind* out);

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace irs::sim
