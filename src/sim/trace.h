// Lightweight event tracing for debugging, for tests that assert on
// scheduling decisions, and for the obs exporters. Disabled by default;
// enabling keeps the most recent `capacity` records in a ring buffer.
//
// Every producer (the hypervisor and each guest kernel) records straight
// into the one ring at the engine's current time, so the retained records
// are always exactly the newest `capacity` sequence numbers, and seq order
// is (when, seq) order: reading the ring from its oldest slot needs no sort.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace irs::sim {

/// Trace record categories, roughly one per subsystem.
enum class TraceKind : std::uint8_t {
  kHvSchedule,    // hypervisor picked a vCPU for a pCPU
  kHvPreempt,     // involuntary vCPU deschedule
  kHvBlock,       // vCPU blocked (guest idle / SCHEDOP_block)
  kHvWake,        // vCPU woke
  kSaSend,        // SA notification sent (IRS)
  kSaAck,         // guest acknowledged SA
  kGuestSwitch,   // guest context switch on a vCPU
  kGuestWake,     // task wakeup
  kMigrate,       // task migrated between vCPUs
  kLhp,           // lock-holder preemption detected
  kLwp,           // lock-waiter preemption detected
  kPleExit,       // pause-loop exit fired
  kCoStop,        // relaxed-co stopped a leading vCPU
  kEngineStop,    // engine stopped dispatching (event budget exhausted)
  kReqBegin,      // request began (a=req id, b=SLO class, c=task;
                  //   rendered from the workload span log for dumps —
                  //   never recorded into the ring at runtime)
  kReqEnd,        // request completed (same payload and provenance)
  kUser,          // free-form
};

/// One past the last enumerator — lets tests iterate every kind.
inline constexpr int kNumTraceKinds = static_cast<int>(TraceKind::kUser) + 1;

const char* trace_kind_name(TraceKind k);

/// Inverse of trace_kind_name. Returns false for unknown names (including
/// the "?" placeholder), so exporter names can never silently desync from
/// the enum.
bool trace_kind_from_name(const char* name, TraceKind* out);

/// Owned small-string annotation. TraceRecord used to hold a `const char*`,
/// which dangled whenever a producer passed anything but a string literal;
/// records now copy (and truncate) the note into inline storage.
class TraceNote {
 public:
  static constexpr std::size_t kMax = 15;  // + NUL terminator

  TraceNote() { buf_[0] = '\0'; }
  TraceNote(const char* s) {  // NOLINT(google-explicit-constructor)
    if (s == nullptr) s = "";
    std::size_t n = std::strlen(s);
    if (n > kMax) n = kMax;
    std::memcpy(buf_, s, n);
    buf_[n] = '\0';
  }

  [[nodiscard]] const char* c_str() const { return buf_; }
  [[nodiscard]] bool empty() const { return buf_[0] == '\0'; }
  friend bool operator==(const TraceNote& a, const char* b) {
    return std::strcmp(a.buf_, b) == 0;
  }

 private:
  char buf_[kMax + 1];
};

struct TraceRecord {
  Time when = 0;
  /// Record-order sequence number, assigned when the record is produced:
  /// the count of records accepted before it. Producers record at the
  /// engine's now and sim time never runs backwards, so seq and `when` are
  /// co-monotonic and seq order is (when, seq) order.
  std::uint64_t seq = 0;
  TraceKind kind = TraceKind::kUser;
  std::int32_t a = -1;  // subsystem-defined (e.g. vCPU id)
  std::int32_t b = -1;  // subsystem-defined (e.g. pCPU or task id)
  std::int32_t c = -1;  // subsystem-defined third payload (e.g. source vCPU)
  TraceNote note;
};

/// The retained records in seq order, read where they sit: the ring's
/// older part (the oldest slot to the end of storage), then its newer part
/// (the start of storage up to the oldest slot). Valid until the next
/// record, set_capacity or clear.
struct TraceView {
  std::span<const TraceRecord> older;
  std::span<const TraceRecord> newer;

  [[nodiscard]] std::size_t size() const {
    return older.size() + newer.size();
  }
};

/// Fixed-capacity ring of trace records.
///
/// Capacity overflow is not silent: `dropped()` counts overwritten records
/// and `total_recorded()` counts every accepted record, so tests can detect
/// a wrapped ring and the exporter annotates truncation. The retained
/// records always carry exactly seqs [total_recorded - size, total_recorded).
class Trace {
 public:
  explicit Trace(std::size_t capacity = 0) { set_capacity(capacity); }

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  void set_capacity(std::size_t capacity);

  /// Record at `when`, which must be the engine's now: a record stamped
  /// earlier than the newest retained one would break the (when, seq)
  /// order every reader relies on, so Debug builds assert it.
  void record(Time when, TraceKind kind, std::int32_t a, std::int32_t b,
              const char* note = "", std::int32_t c = -1) {
    if (!enabled()) return;
    assert((ring_.empty() || when >= newest().when) &&
           "trace records must be stamped at the engine's now");
    push(TraceRecord{when, total_, kind, a, b, c, note});
  }

  /// No-op: records reach the ring as they are made. Kept for the
  /// benchmark's per-layer ledger (perfbench/layers.cpp), its only caller.
  void flush_buffers() {}

  /// The retained records in chronological order (oldest first), without
  /// a copy. See TraceView.
  [[nodiscard]] TraceView view() const;

  /// Copy of view(): the ring rotated to its oldest seq.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Count of records of a given kind currently retained.
  [[nodiscard]] std::size_t count(TraceKind kind) const;

  /// Human-readable dump (for failing-test diagnostics).
  [[nodiscard]] std::string dump() const;

  /// Records lost to ring wrap-around since the last set_capacity/clear.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Records accepted (retained + dropped) since the last
  /// set_capacity/clear; also the seq the next record takes.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }

  /// Drop every record and restart the accounting and the seqs at 0.
  void clear();

 private:
  void push(const TraceRecord& rec);
  [[nodiscard]] const TraceRecord& newest() const {
    return ring_[(head_ == 0 ? ring_.size() : head_) - 1];
  }

  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next write slot (the oldest record) once full
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ = 0;  // records accepted = the next record's seq
  std::vector<TraceRecord> ring_;
};

}  // namespace irs::sim
