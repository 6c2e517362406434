// Open-loop front-end accounting: the request-conservation ledger of one
// wl::FrontendWorkload run (see src/wl/frontend.h).
//
// Every arrival is exactly one of: accepted, tail-dropped (accept queue
// full), admission-rejected (estimated queue delay over budget), or shed
// (SLO-burn-triggered load shedding). Accepted requests either complete or
// are still in flight when the run quiesces. The conservation identity
//
//   arrivals == completed + tail_dropped + admit_rejected + shed + in_flight
//
// is a test invariant (tests/frontend_test.cpp). The block is a result
// ledger (src/obs/ledger.h): its fields() list drives the digest, the
// exact sweep fold and the JSON form.
#pragma once

#include <cstdint>

#include "src/obs/ledger.h"
#include "src/sim/time.h"

namespace irs::obs {

struct FrontendResult {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t tail_dropped = 0;    // accept queue was full
  std::uint64_t admit_rejected = 0;  // admission controller said no
  std::uint64_t shed = 0;            // SLO-burn load shedding
  std::uint64_t in_flight = 0;       // accepted, not completed at quiesce
  std::uint64_t conn_setups = 0;     // connections (re-)established
  std::uint64_t keepalive_reuses = 0;
  std::uint64_t max_queue_depth = 0;
  /// Accept-queue wait summed / maxed over completed requests (the same
  /// quantity forensics charges to Cause::kQueueWait).
  sim::Duration queue_wait_total = 0;
  sim::Duration queue_wait_max = 0;

  /// Requests refused at the door, whatever the policy called it.
  [[nodiscard]] std::uint64_t dropped() const {
    return tail_dropped + admit_rejected;
  }
  /// No front-end ran (every field at its default).
  [[nodiscard]] bool empty() const { return *this == FrontendResult{}; }
  bool operator==(const FrontendResult& o) const = default;

  template <class Self, class V>
  static void fields(Self& s, V&& v) {
    v("arrivals", s.arrivals, Fold::kSum);
    v("accepted", s.accepted, Fold::kSum);
    v("completed", s.completed, Fold::kSum);
    v("tail_dropped", s.tail_dropped, Fold::kSum);
    v("admit_rejected", s.admit_rejected, Fold::kSum);
    v("shed", s.shed, Fold::kSum);
    v("in_flight", s.in_flight, Fold::kSum);
    v("conn_setups", s.conn_setups, Fold::kSum);
    v("keepalive_reuses", s.keepalive_reuses, Fold::kSum);
    v("max_queue_depth", s.max_queue_depth, Fold::kMax);
    v("queue_wait_total_ns", s.queue_wait_total, Fold::kSum);
    v("queue_wait_max_ns", s.queue_wait_max, Fold::kMax);
  }
};

}  // namespace irs::obs
