// Open-loop traffic front-end (ROADMAP "datacenter traffic front-end").
//
// The closed-loop servers (wl/server.h jbb/ab) self-throttle under
// interference: a fixed worker/connection count slows down instead of
// queueing, hiding the tail-latency blowups open-loop traffic exposes.
// This workload generates load the way the outside world does — arrivals
// keep coming whether or not the VM can serve them:
//
//   ArrivalProcess -> listener task -> bounded accept queue -> worker pool
//
// * The listener paces itself on an ArrivalProcess (Poisson / MMPP /
//   diurnal; see wl/arrivals.h) using its own per-task rng, keeping the
//   arrival schedule bit-identical at any sweep thread count and on every
//   event-queue backend. The schedule is open-loop in the strict sense:
//   arrival i happens at gap-sum time even when the listener itself was
//   preempted (it processes late but never re-paces).
// * Accepted requests queue in a bounded accept queue (a sync::Pipe carries
//   the wakeups, a deque the payloads — TUX-style accept ring) and are
//   served by n_workers tasks multiplexing all connections. Connections
//   are round-robin multiplexed; with keepalive every kKeepaliveMax-th
//   request on a connection re-pays the setup cost, without it every
//   request does.
// * Overload behaviour is a policy knob:
//     kTailDrop — refuse arrivals only when the queue is full;
//     kAdmit    — admission control: refuse when the estimated queue delay
//                 (depth * service_mean / workers) exceeds the SLO
//                 threshold (plus tail-drop as the backstop);
//     kShed     — SLO-burn-triggered shedding: a windowed controller
//                 watches completions and sheds *all* arrivals for the next
//                 window once the error budget burns (> 1x), plus
//                 tail-drop as the backstop.
//   Refused arrivals are recorded into dedicated SloTracker drop/shed
//   classes (threshold 0, so every one burns error budget) and counted in
//   the obs::FrontendResult conservation ledger.
// * Completed requests log an obs::ReqSpan back-dated to the arrival
//   instant with qwait = accept-queue wait, so the forensics replay
//   charges queue time to Cause::kQueueWait — cleanly separated from
//   ready-wait — and decomposes the rest from service start.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "src/wl/arrivals.h"
#include "src/wl/server.h"

namespace irs::wl {

enum class OverloadPolicy { kTailDrop, kAdmit, kShed };

/// Stable short name ("drop", "admit", "shed").
const char* overload_policy_name(OverloadPolicy p);
/// Inverse of overload_policy_name. Returns false for unknown names.
bool overload_policy_from_name(const std::string& name, OverloadPolicy* out);

struct FrontendOptions {
  int n_workers = 4;
  sim::Duration run_for = sim::seconds(3);
  /// Per-request service compute (ab-like, so the bench_report overhead
  /// gate compares the two pipelines at matched per-request work).
  sim::Duration service_mean = sim::milliseconds(2);
  /// Extra compute on the first request of a (re-)established connection.
  sim::Duration conn_setup = sim::microseconds(200);
  ArrivalConfig arrivals{};
  int queue_cap = 64;
  OverloadPolicy overload = OverloadPolicy::kTailDrop;
  bool keepalive = true;
  /// Requests served per connection before keepalive expires and the next
  /// one re-pays conn_setup (ignored with keepalive off: every request
  /// pays it).
  int keepalive_max = 16;
  /// Connections multiplexed over the worker pool; 0 = 8 * n_workers.
  int n_conns = 0;
};

/// One queued request: everything a worker needs to serve it.
struct FeRequest {
  sim::Time arrival = 0;
  std::int32_t req = -1;
  bool fresh_conn = false;  // pays the connection-setup cost
};

/// Shared front-end state (one per workload; behaviors hold a reference).
struct FrontendShape {
  sim::Time end_time = 0;
  sim::Duration service_mean = 0;
  sim::Duration conn_setup = 0;
  sync::Pipe* accept = nullptr;       // wakeup channel (close() = shutdown)
  std::deque<FeRequest> fifo;         // payloads, bounded by queue_cap
  int queue_cap = 0;
  /// Request ids are taken at arrival; sink.slo classes are below.
  RequestSink sink;
  static constexpr std::size_t kServeClass = 0;
  static constexpr std::size_t kDropClass = 1;
  static constexpr std::size_t kShedClass = 2;
  obs::FrontendResult* stats = nullptr;

  // Shed controller: tumbling window over completions; shed while the
  // previous window burned its error budget.
  obs::SloSpec spec{};                // threshold/objective the shed uses
  sim::Duration shed_window = 0;
  sim::Time win_start = 0;
  std::uint64_t win_requests = 0;
  std::uint64_t win_violations = 0;
  bool shed_active = false;

  /// Record one completion into the shed controller.
  void note_completion(sim::Time now, sim::Duration latency);
};

/// Paces the ArrivalProcess and applies the overload policy at the door.
class FeListenerBehavior final : public guest::Behavior {
 public:
  FeListenerBehavior(FrontendShape& shape, const FrontendOptions& opts)
      : shape_(shape), opts_(opts), arrivals_(opts.arrivals) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  /// Apply the overload policy to the arrival at `arrival` (processed at
  /// `now`). Returns true when accepted (caller pushes the wakeup).
  bool admit(sim::Time arrival, sim::Time now);

  FrontendShape& shape_;
  FrontendOptions opts_;
  ArrivalProcess arrivals_;
  int step_ = 0;
  bool clock_init_ = false;
  sim::Time clock_ = 0;  // open-loop arrival schedule (gap sums)
  std::int64_t next_conn_ = 0;
  std::vector<std::int64_t> conn_served_;
};

/// Pops the accept queue and serves requests until end_time or shutdown.
class FeWorkerBehavior final : public guest::Behavior {
 public:
  explicit FeWorkerBehavior(FrontendShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  FrontendShape& shape_;
  int step_ = 0;
  FeRequest cur_{};
  sim::Time serve_start_ = 0;
};

class FrontendWorkload final : public ServerWorkload {
 public:
  explicit FrontendWorkload(const FrontendOptions& opts);
  void instantiate(guest::GuestKernel& k) override;

  /// Default SLO: 20 ms end-to-end (arrival -> completion) at three nines,
  /// matching the ab arm it is benchmarked against.
  static obs::SloSpec default_slo();

  /// The conservation ledger; in_flight is settled here (accepted minus
  /// completed at call time).
  [[nodiscard]] obs::FrontendResult frontend_result() const override;

 private:
  /// Adds the drop/shed request classes (threshold 0: every refusal burns
  /// error budget) and points the shed controller at the SLO.
  void on_enable_slo(obs::SloTracker& slo, sim::Duration window,
                     const obs::SloSpec& spec) override;

  FrontendOptions opts_;
  obs::SloSpec slo_spec_ = default_slo();
  sim::Duration slo_window_ = obs::SloTracker::kDefaultWindow;
  obs::FrontendResult stats_;
  std::unique_ptr<FrontendShape> shape_;
};

}  // namespace irs::wl
