#include "src/sim/event_queue.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace irs::sim {

namespace {

/// Per-slot location word: the top two bits name the region an entry sits
/// in, the rest its position there. Heap positions use region 0, so the
/// heap stores raw indices.
constexpr int kRegionShift = 30;
constexpr std::uint32_t kHeapRegion = 0;
constexpr std::uint32_t kDueRegion = 1;     // index into the due list
constexpr std::uint32_t kBucketRegion = 2;  // bucket, then index in it
constexpr int kBucketIndexBits = kRegionShift - 9;  // 9 bits name a bucket
static_assert(kWheelBuckets <= (std::size_t{1} << 9));
constexpr std::uint32_t kPosMask = (std::uint32_t{1} << kRegionShift) - 1;
constexpr std::uint32_t kIndexMask = (std::uint32_t{1} << kBucketIndexBits) - 1;
/// A bucket holding this many entries spills further pushes to the heap,
/// so every bucket index fits its location field.
constexpr std::size_t kBucketCap = std::size_t{1} << kBucketIndexBits;
/// `slot` of an erased due-list entry (engine slots stay below UINT32_MAX,
/// the engine's free-list sentinel).
constexpr std::uint32_t kTombstone = UINT32_MAX;

void track_slot(std::vector<std::uint32_t>& loc, std::uint32_t slot) {
  if (slot >= loc.size()) loc.resize(std::size_t{slot} + 1);
}

// ---------------------------------------------------------------------------
// Indexed d-ary heap
// ---------------------------------------------------------------------------

/// Min-heap on {when, seq} with fan-out `Arity`: children of node i are
/// Arity*i+1 .. Arity*i+Arity. Every move writes the entry's index into the
/// owner's per-slot location array, so erase_at(loc[slot]) removes any
/// entry in O(log n). At Arity 4 the depth is half a binary heap's, and the
/// four children sit in 96 contiguous bytes (two cache lines at worst), so
/// a sift-down pays ~one line fetch per level instead of two scattered
/// ones. Non-virtual so the hybrid wheel can embed it as its spill
/// structure without paying a second dispatch.
template <std::size_t Arity>
class IndexedHeap {
 public:
  explicit IndexedHeap(std::vector<std::uint32_t>* loc) : loc_(loc) {}

  void push(const QEntry& e) {
    h_.emplace_back();
    sift_up(h_.size() - 1, e);
  }

  [[nodiscard]] bool empty() const { return h_.empty(); }
  [[nodiscard]] std::size_t size() const { return h_.size(); }
  [[nodiscard]] const QEntry& top() const { return h_.front(); }

  void pop() { erase_at(0); }

  /// Remove the entry at heap index `i`: the last entry takes its place and
  /// sifts whichever way restores the heap.
  void erase_at(std::size_t i) {
    const QEntry last = h_.back();
    h_.pop_back();
    if (i == h_.size()) return;
    if (i > 0 && entry_before(last, h_[(i - 1) / Arity])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

 private:
  void place(std::size_t i, const QEntry& e) {
    h_[i] = e;
    (*loc_)[e.slot] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, const QEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!entry_before(e, h_[parent])) break;
      place(i, h_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i, const QEntry& e) {
    const std::size_t n = h_.size();
    while (true) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t min_child = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (entry_before(h_[c], h_[min_child])) min_child = c;
      }
      if (!entry_before(h_[min_child], e)) break;
      place(i, h_[min_child]);
      i = min_child;
    }
    place(i, e);
  }

  std::vector<QEntry> h_;
  std::vector<std::uint32_t>* loc_;
};

// ---------------------------------------------------------------------------
// Heap backends: binary (reference) and 4-ary
// ---------------------------------------------------------------------------

template <std::size_t Arity>
class HeapQueue final : public EventQueue {
 public:
  [[nodiscard]] QueueKind kind() const override {
    return Arity == 2 ? QueueKind::kBinaryHeap : QueueKind::kQuadHeap;
  }
  [[nodiscard]] const char* name() const override {
    return Arity == 2 ? "binary" : "quad";
  }

  void push(const QEntry& e) override {
    track_slot(loc_, e.slot);
    h_.push(e);
  }

  bool pop_until(Time deadline, QEntry* out) override {
    if (h_.empty() || h_.top().when > deadline) return false;
    *out = h_.top();
    h_.pop();
    return true;
  }

  void erase(std::uint32_t slot) override { h_.erase_at(loc_[slot]); }

  [[nodiscard]] std::size_t size() const override { return h_.size(); }

 private:
  std::vector<std::uint32_t> loc_;
  IndexedHeap<Arity> h_{&loc_};
};

// ---------------------------------------------------------------------------
// Hybrid near-future wheel + spill heap
// ---------------------------------------------------------------------------

/// Timer wheel over kWheelBuckets buckets of 2^kDefaultWheelShift ns
/// (131 µs buckets, ~67 ms horizon — see the constant derivations in
/// event_queue.h), backed by an embedded indexed 4-ary spill heap for
/// entries at or behind the open bucket and entries beyond one rotation
/// past it. Every wheel-resident entry sits in a bucket strictly after the
/// open one, so the earliest entry overall is always the due-list front or
/// the heap top — pops merge-compare just those two.
///
/// Erase by region: a bucket is unsorted until it opens, so its entries
/// swap-remove in O(1); the heap removes by index; the sorted due list
/// marks a tombstone that the pop path steps over within the same bucket.
class HybridWheelQueue final : public EventQueue {
 public:
  void push(const QEntry& e) override {
    track_slot(loc_, e.slot);
    const std::uint64_t idx =
        static_cast<std::uint64_t>(e.when) >> kDefaultWheelShift;
    if (idx > open_idx_ + kMask && wheel_count_ == 0 && due_live_ == 0) {
      // Wheel empty and the event is beyond the horizon (e.g. after a
      // long idle gap): teleport the cursor so the wheel keeps absorbing
      // near-future traffic around the new epoch.
      open_idx_ = idx - 1;
    }
    if (idx > open_idx_ && idx - open_idx_ <= kMask) {
      const std::size_t b = static_cast<std::size_t>(idx) & kMask;
      std::vector<QEntry>& bucket = buckets_[b];
      if (bucket.size() < kBucketCap) {
        loc_[e.slot] = bucket_loc(b, bucket.size());
        bucket.push_back(e);
        words_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
        return;
      }
    }
    heap_.push(e);  // behind the cursor, beyond the horizon, or overflow
  }

  bool pop_until(Time deadline, QEntry* out) override {
    const bool have_due = ensure_due();
    if (heap_.empty() ||
        (have_due && entry_before(due_[due_pos_], heap_.top()))) {
      if (!have_due || due_[due_pos_].when > deadline) return false;
      *out = due_[due_pos_++];
      --due_live_;
    } else {
      if (heap_.top().when > deadline) return false;
      *out = heap_.top();
      heap_.pop();
    }
    return true;
  }

  void erase(std::uint32_t slot) override {
    const std::uint32_t at = loc_[slot];
    switch (at >> kRegionShift) {
      case kHeapRegion:
        heap_.erase_at(at);
        return;
      case kDueRegion:
        due_[at & kPosMask].slot = kTombstone;
        --due_live_;
        return;
      default: {
        const std::size_t b = (at >> kBucketIndexBits) & kMask;
        const std::size_t i = at & kIndexMask;
        std::vector<QEntry>& bucket = buckets_[b];
        if (i + 1 != bucket.size()) {
          bucket[i] = bucket.back();
          loc_[bucket[i].slot] = bucket_loc(b, i);
        }
        bucket.pop_back();
        --wheel_count_;
        if (bucket.empty()) {
          words_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        }
        return;
      }
    }
  }

  [[nodiscard]] std::size_t size() const override {
    return heap_.size() + wheel_count_ + due_live_;
  }

  [[nodiscard]] QueueKind kind() const override {
    return QueueKind::kHybridWheel;
  }
  [[nodiscard]] const char* name() const override { return "wheel"; }

 private:
  static constexpr std::size_t kMask = kWheelBuckets - 1;
  static constexpr std::size_t kWords = kWheelBuckets / 64;

  static std::uint32_t bucket_loc(std::size_t b, std::size_t i) {
    return (kBucketRegion << kRegionShift) |
           static_cast<std::uint32_t>(b << kBucketIndexBits) |
           static_cast<std::uint32_t>(i);
  }

  /// Make due_[due_pos_] the earliest live entry of the open bucket,
  /// stepping over tombstones or opening the next non-empty bucket.
  /// Returns false once both the due list and the wheel are empty.
  bool ensure_due() {
    if (due_live_ > 0) {
      while (due_[due_pos_].slot == kTombstone) ++due_pos_;
      return true;
    }
    due_.clear();
    due_pos_ = 0;
    if (wheel_count_ == 0) return false;
    const std::uint64_t idx = next_nonempty();
    open_idx_ = idx;
    const std::size_t b = static_cast<std::size_t>(idx) & kMask;
    due_.swap(buckets_[b]);
    words_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    wheel_count_ -= due_.size();
    due_live_ = due_.size();
    std::sort(due_.begin(), due_.end(),
              [](const QEntry& a, const QEntry& b) {
                return entry_before(a, b);
              });
    for (std::size_t i = 0; i < due_.size(); ++i) {
      loc_[due_[i].slot] =
          (kDueRegion << kRegionShift) | static_cast<std::uint32_t>(i);
    }
    return true;
  }

  /// Absolute index of the first non-empty wheel bucket strictly after
  /// open_idx_. Requires wheel_count_ > 0; every resident entry is within
  /// one rotation of open_idx_, so a circular bitmap scan starting just
  /// past the open slot finds the minimum.
  [[nodiscard]] std::uint64_t next_nonempty() const {
    const std::size_t open_slot = static_cast<std::size_t>(open_idx_) & kMask;
    const std::size_t start = (open_slot + 1) & kMask;
    std::size_t w = start >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
      if (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        const std::size_t delta = (slot - open_slot + kWheelBuckets) & kMask;
        return open_idx_ + delta;
      }
      w = (w + 1) & (kWords - 1);
      word = words_[w];
    }
    std::abort();  // unreachable: wheel_count_ > 0 implies a set bit
  }

  std::array<std::vector<QEntry>, kWheelBuckets> buckets_;
  std::array<std::uint64_t, kWords> words_{};  // non-empty bucket bitmap
  /// Absolute index of the bucket last drained into `due_` (the "open"
  /// bucket). Monotone except for the empty-wheel teleport; only buckets
  /// strictly after it accept entries.
  std::uint64_t open_idx_ = 0;
  std::vector<QEntry> due_;  // open bucket, sorted ascending, consumed from
  std::size_t due_pos_ = 0;  // due_pos_; erased entries are tombstones
  std::size_t due_live_ = 0;     // non-tombstone entries at/after due_pos_
  std::size_t wheel_count_ = 0;  // entries resident in buckets_

  std::vector<std::uint32_t> loc_;  // per-slot location word (see above)
  IndexedHeap<4> heap_{&loc_};  // behind-the-cursor + beyond-the-horizon
};

}  // namespace

bool parse_queue_kind(const char* s, QueueKind* out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "binary") == 0) {
    *out = QueueKind::kBinaryHeap;
  } else if (std::strcmp(s, "quad") == 0) {
    *out = QueueKind::kQuadHeap;
  } else if (std::strcmp(s, "wheel") == 0) {
    *out = QueueKind::kHybridWheel;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return std::make_unique<HeapQueue<2>>();
    case QueueKind::kQuadHeap:
      return std::make_unique<HeapQueue<4>>();
    case QueueKind::kHybridWheel:
      break;
  }
  return std::make_unique<HybridWheelQueue>();
}

}  // namespace irs::sim
