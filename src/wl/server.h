// Multi-threaded server workload models (paper §5.3).
//
// * ServerWorkload — what every server shares: the latency histogram, the
//   optional SLO tracker and request-span log, and the one RequestSink
//   their behaviours record each served request into.
// * JbbWorkload — SPECjbb2005-like: `warehouses` worker threads, each a
//   closed loop of transactions with a short shared critical section every
//   few transactions; measures throughput and per-transaction latency.
// * AbWorkload — Apache-bench-like: many concurrent connection threads
//   (far more than vCPUs), each a closed loop of short requests with a
//   small think time; measures throughput and tail latency.
// * FrontendWorkload (wl/frontend.h) — the open-loop front-end.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/obs/forensics.h"
#include "src/obs/frontend_stats.h"
#include "src/obs/slo.h"
#include "src/wl/behavior.h"
#include "src/wl/workload.h"

namespace irs::wl {

/// Where a server's behaviours record each served request. Recording is
/// passive: runs are bit-identical with or without the SLO tracker and the
/// span log.
struct RequestSink {
  core::Histogram* latency = nullptr;
  /// Counter of completed requests/transactions.
  obs::Counters* work = nullptr;
  /// Windowed SLO recorder (see obs/slo.h); null unless enable_slo().
  obs::SloTracker* slo = nullptr;
  /// Request-span side log (see obs::ReqSpan): the trace ring is untouched
  /// at runtime; the analyzer merges it into its replay of the ring, and
  /// dumps render it as kReqBegin/kReqEnd records. Null unless
  /// enable_request_spans().
  std::vector<obs::ReqSpan>* spans = nullptr;
  std::int32_t next_req = 0;  // request ids, unique per workload

  /// One request of SLO class `cls` served by `t` over [begin, now), the
  /// first `qwait` of it spent queued: adds the latency, appends the span,
  /// records the SLO class and counts the work unit.
  void complete(const guest::Task& t, sim::Time begin, sim::Time now,
                std::int32_t req, std::size_t cls, sim::Duration qwait = 0);
};

class ServerWorkload : public Workload {
 public:
  [[nodiscard]] core::Histogram& latency() { return latency_; }
  /// Completed requests per simulated second.
  [[nodiscard]] double throughput() const;

  /// Track windowed SLO latency at this server's default spec, or at
  /// `spec`. Call before instantiate(). Passive.
  void enable_slo(sim::Duration window = obs::SloTracker::kDefaultWindow) {
    enable_slo(window, default_spec_);
  }
  void enable_slo(sim::Duration window, obs::SloSpec spec);
  /// Flush open windows at `end` and snapshot. Empty if SLO not enabled.
  [[nodiscard]] obs::SloResult slo_result(sim::Time end);
  /// Capture a ReqSpan for every served request (forensics input). Call
  /// before instantiate(). Passive.
  void enable_request_spans();
  [[nodiscard]] const std::vector<obs::ReqSpan>& request_spans() const {
    return spans_;
  }
  /// The open-loop conservation ledger (wl/frontend.h); empty for the
  /// closed-loop servers, which refuse nothing.
  [[nodiscard]] virtual obs::FrontendResult frontend_result() const {
    return {};
  }

 protected:
  /// `slo_class` names the served requests' SLO class (class 0).
  ServerWorkload(std::string name, std::string slo_class,
                 sim::Duration run_for, obs::SloSpec default_spec);
  /// A sink wired to this workload's recorders, for instantiate().
  [[nodiscard]] RequestSink sink();
  /// Called by enable_slo() after it registered class 0: a server adds its
  /// further SLO classes here.
  virtual void on_enable_slo(obs::SloTracker& /*slo*/,
                             sim::Duration /*window*/,
                             const obs::SloSpec& /*spec*/) {}

  sim::Duration run_for_;

 private:
  std::string slo_class_;
  obs::SloSpec default_spec_;
  bool req_spans_ = false;
  core::Histogram latency_;
  std::vector<obs::ReqSpan> spans_;
  std::unique_ptr<obs::SloTracker> slo_;
};

struct ServerShape {
  sim::Time end_time = 0;
  sim::Duration service_mean = 0;
  sim::Duration think_mean = 0;       // ab only
  sim::Duration cs_len = 0;           // jbb only
  int cs_every = 0;                   // jbb: lock every N transactions
  sync::Mutex* mutex = nullptr;       // jbb shared structure lock
  /// When set, the critical section takes this ticket spinlock instead of
  /// `mutex`: waiters busy-wait on-CPU, so a preempted holder (or a
  /// preempted next-in-line waiter) freezes the whole convoy — the paper's
  /// LHP/LWP pathology, which blocking-mutex waiters largely sidestep by
  /// yielding their vCPU.
  sync::SpinLock* spin = nullptr;
  RequestSink sink;
};

class JbbWorkerBehavior final : public guest::Behavior {
 public:
  explicit JbbWorkerBehavior(ServerShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  ServerShape& shape_;
  int step_ = 0;
  int txn_count_ = 0;
  sim::Time txn_start_ = 0;
};

class AbWorkerBehavior final : public guest::Behavior {
 public:
  explicit AbWorkerBehavior(ServerShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  ServerShape& shape_;
  int step_ = 0;
  sim::Time arrival_ = 0;
};

class JbbWorkload final : public ServerWorkload {
 public:
  /// `cs_len`/`cs_every` shape the shared-structure critical section (hold
  /// time, lock every Nth transaction). Defaults match the historical
  /// 80 us / every-2nd shape; forensics fixtures crank them up — and flip
  /// `cs_spin` so the section takes a ticket spinlock whose waiters spin
  /// on-CPU — to make lock-holder/waiter preemption the dominant latency
  /// cause.
  JbbWorkload(int warehouses, sim::Duration run_for,
              sim::Duration txn_mean = sim::microseconds(400),
              sim::Duration cs_len = sim::microseconds(80), int cs_every = 2,
              bool cs_spin = false);
  void instantiate(guest::GuestKernel& k) override;

  /// Default SLO: 10 ms transaction latency at three nines (25x the 400 us
  /// service mean — comfortably met uncontended, blown once a hog steals a
  /// 30 ms timeslice from a lock holder).
  static obs::SloSpec default_slo();

 private:
  int warehouses_;
  sim::Duration txn_mean_;
  sim::Duration cs_len_;
  int cs_every_;
  bool cs_spin_;
  std::unique_ptr<ServerShape> shape_;
};

class AbWorkload final : public ServerWorkload {
 public:
  AbWorkload(int connections, sim::Duration run_for,
             sim::Duration service_mean = sim::milliseconds(2),
             sim::Duration think_mean = sim::milliseconds(2));
  void instantiate(guest::GuestKernel& k) override;

  /// Default SLO: 20 ms request latency at three nines (10x the 2 ms
  /// service mean; requests queue behind preempted vCPUs under hogs).
  static obs::SloSpec default_slo();

 private:
  int connections_;
  sim::Duration service_mean_;
  sim::Duration think_mean_;
  std::unique_ptr<ServerShape> shape_;
};

}  // namespace irs::wl
