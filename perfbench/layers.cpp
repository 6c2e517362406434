// The traced pass: per-layer numbers from outside the program. Each run of
// the workload is re-driven through the public core::World /
// cluster::Cluster API the way exp::run_scenario drives it, with a timer
// around every call into a layer and the layers' public counters read at
// the end. The replay must reproduce run_scenario's results exactly; a run
// that does not counts as failed.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "perfbench/bench.h"
#include "src/cluster/cluster.h"
#include "src/core/world.h"
#include "src/exp/shard.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/forensics.h"
#include "src/sim/engine.h"
#include "src/wl/frontend.h"
#include "src/wl/registry.h"
#include "src/wl/server.h"

namespace irs::perfbench {

namespace {

/// Exact counts of one traced pass: a simulator-only change leaves every
/// one unchanged, and every pass of one run must repeat them.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t queue_slots_max = 0;
  std::uint64_t hv_ctx_switches = 0, hv_preemptions = 0, hv_wakeups = 0,
                hv_steals = 0, hv_lhp = 0, hv_lwp = 0, hv_sa_sent = 0,
                hv_ple_exits = 0, hv_co_stops = 0;
  std::uint64_t guest_ctx_switches = 0, guest_migrations = 0,
                guest_irs_migrations = 0;
  sim::Duration spin = 0;
  std::int64_t work_units = 0;
  std::uint64_t requests = 0;
  sim::Duration sim_time = 0;
  std::uint64_t trace_records = 0, trace_dropped = 0;
  std::uint64_t forensics_records = 0;
  std::uint64_t cl_decisions = 0, cl_migrations = 0, cl_samples = 0;
  std::uint64_t single_runs = 0, cluster_runs = 0;

  bool operator==(const Counts&) const = default;
};

/// Host time and exact counts of one traced pass, summed over its runs.
struct Ledger {
  // Host seconds inside each layer call.
  double core_setup_s = 0;     // World ctor + add_vm + attach + start
  double cluster_setup_s = 0;  // the same on a cluster::Cluster
  double sim_run_s = 0;        // run_until_finished
  double core_extract_s = 0;   // vm_metrics + stats folds + server stats
  double forensics_s = 0;      // obs::request_forensics
  double emit_s = 0;           // exp::shard_line_json
  double fold_s = 0;           // exp::SweepStats::add
  Counts n;
};

/// The fields the replay must reproduce.
struct Replayed {
  bool finished = false;
  sim::Duration fg_makespan = 0;
  std::uint64_t lhp = 0, lwp = 0, sa_sent = 0;
  sim::Duration lat_mean = 0, lat_p99 = 0, lat_p999 = 0;
  obs::ForensicsResult forensics;
};

bool same(const Replayed& a, const exp::RunResult& r) {
  return a.finished == r.finished && a.fg_makespan == r.fg_makespan &&
         a.lhp == r.lhp && a.lwp == r.lwp && a.sa_sent == r.sa_sent &&
         a.lat_mean == r.lat_mean && a.lat_p99 == r.lat_p99 &&
         a.lat_p999 == r.lat_p999 && a.forensics == r.forensics;
}

/// Times one call into a layer, adding its host seconds to `acc`.
template <typename F>
auto timed(double& acc, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += seconds_since(t0);
  } else {
    auto v = f();
    acc += seconds_since(t0);
    return v;
  }
}

std::vector<hv::PcpuId> identity_pins(int n) {
  std::vector<hv::PcpuId> pins;
  for (int i = 0; i < n; ++i) pins.push_back(i);
  return pins;
}

wl::WorkloadOptions fg_options(const exp::ScenarioConfig& cfg) {
  wl::WorkloadOptions o;
  o.n_threads = cfg.fg_threads;
  o.npb_spinning = cfg.npb_spinning;
  o.work_scale = cfg.work_scale;
  o.server_duration = cfg.server_duration;
  o.jbb_cs_len = cfg.jbb_cs_len;
  o.jbb_cs_every = cfg.jbb_cs_every;
  o.jbb_cs_spin = cfg.jbb_cs_spin;
  o.fe_arrival = cfg.fe_arrival;
  o.fe_rate_hz = cfg.fe_rate_hz;
  o.fe_overload = cfg.fe_overload;
  o.fe_queue_cap = cfg.fe_queue_cap;
  o.fe_keepalive = cfg.fe_keepalive;
  return o;
}

/// Applies `f` to the foreground workload as whichever server type it is;
/// false for the batch (PARSEC/NPB) workloads.
template <typename F>
bool with_server(wl::Workload& w, F&& f) {
  if (auto* jbb = dynamic_cast<wl::JbbWorkload*>(&w)) {
    f(*jbb);
  } else if (auto* ab = dynamic_cast<wl::AbWorkload*>(&w)) {
    f(*ab);
  } else if (auto* fe = dynamic_cast<wl::FrontendWorkload*>(&w)) {
    f(*fe);
  } else {
    return false;
  }
  return true;
}

void enable_obs(const exp::ScenarioConfig& cfg, wl::Workload& fg,
                bool spans) {
  with_server(fg, [&](auto& s) {
    if (cfg.slo_window >= 0) {
      s.enable_slo(cfg.slo_window > 0 ? cfg.slo_window
                                      : obs::SloTracker::kDefaultWindow);
    }
    if (spans) s.enable_request_spans();
  });
}

/// Server latencies, as run_scenario extracts them.
void server_stats(wl::Workload& fg, sim::Time now, Replayed* out,
                  obs::SloResult* slo, Ledger& L) {
  with_server(fg, [&](auto& s) {
    out->lat_mean = s.latency().mean();
    out->lat_p99 = s.latency().percentile(99.0);
    out->lat_p999 = s.latency().percentile(99.9);
    *slo = s.slo_result(now);
    L.n.requests += s.latency().count();
  });
}

/// Exact counts of one host, read from its layers' public counters.
void read_host(core::HostNode& node, Ledger& L) {
  const obs::Counters& hc = node.host().counters();
  L.n.hv_ctx_switches += hc.fold_u(obs::Cnt::kHvCtxSwitches);
  L.n.hv_preemptions += hc.fold_u(obs::Cnt::kHvPreemptions);
  L.n.hv_wakeups += hc.fold_u(obs::Cnt::kHvWakeups);
  L.n.hv_steals += hc.fold_u(obs::Cnt::kHvSteals);
  L.n.hv_lhp += hc.fold_u(obs::Cnt::kHvLhp);
  L.n.hv_lwp += hc.fold_u(obs::Cnt::kHvLwp);
  L.n.hv_sa_sent += hc.fold_u(obs::Cnt::kSaSent);
  L.n.hv_ple_exits += hc.fold_u(obs::Cnt::kPleExits);
  L.n.hv_co_stops += hc.fold_u(obs::Cnt::kCoStops);
  for (std::size_t v = 0; v < node.n_vms(); ++v) {
    const auto vm = static_cast<hv::VmId>(v);
    guest::GuestKernel& k = node.kernel(vm);
    const obs::Counters& gc = k.counters();
    L.n.guest_ctx_switches += gc.fold_u(obs::Cnt::kGuestCtxSwitches);
    L.n.guest_migrations += gc.fold_u(obs::Cnt::kGuestWakeMigrations) +
                          gc.fold_u(obs::Cnt::kGuestPushMigrations) +
                          gc.fold_u(obs::Cnt::kGuestPullMigrations) +
                          gc.fold_u(obs::Cnt::kGuestStopMigrations);
    L.n.guest_irs_migrations += gc.fold_u(obs::Cnt::kGuestIrsMigrations);
    for (std::size_t t = 0; t < k.n_tasks(); ++t) {
      L.n.spin += k.task(t).stats.spin_time;
    }
    for (std::size_t i = 0; i < node.n_workloads(vm); ++i) {
      L.n.work_units +=
          node.workload(vm, i).work().fold(obs::Cnt::kWorkUnits);
    }
  }
  sim::Trace& trace = node.host().trace();
  if (trace.enabled()) trace.flush_buffers();
  L.n.trace_records += trace.total_recorded();
  L.n.trace_dropped += trace.dropped();
}

void read_engine(sim::Engine& eng, sim::Time started, Ledger& L) {
  L.n.events += eng.dispatched();
  L.n.queue_slots_max =
      std::max<std::uint64_t>(L.n.queue_slots_max, eng.pool_slots());
  L.n.sim_time += eng.now() - started;
}

/// exp::run_scenario's single-host path, one timer per layer call.
Replayed replay_single(const exp::ScenarioConfig& cfg, Ledger& L) {
  Replayed out;
  core::WorldConfig wc;
  wc.n_pcpus = cfg.n_pcpus;
  wc.strategy = cfg.strategy;
  wc.seed = cfg.seed;
  wc.hv = cfg.hv;
  wc.telemetry() = cfg.telemetry();
  wc.queue = cfg.queue;
  if (cfg.forensics && wc.trace_capacity == 0) wc.trace_capacity = 1 << 18;

  std::unique_ptr<core::World> world;
  wl::Workload* fg_wl = nullptr;
  hv::VmId fg = 0;
  std::vector<hv::VmId> bgs;
  timed(L.core_setup_s, [&] {
    world = std::make_unique<core::World>(wc);
    hv::VmConfig fg_vm;
    fg_vm.name = "fg";
    fg_vm.n_vcpus = cfg.n_vcpus;
    if (cfg.pinned) fg_vm.pin_map = identity_pins(cfg.n_vcpus);
    fg = world->add_vm(fg_vm, /*irs_capable=*/true, cfg.fg_guest);
    fg_wl = &world->attach(fg, wl::make_workload(cfg.fg, fg_options(cfg)));
    enable_obs(cfg, *fg_wl, cfg.forensics);
    if (!cfg.bg.empty() && cfg.n_inter > 0) {
      for (int i = 0; i < cfg.n_bg_vms; ++i) {
        hv::VmConfig bg_vm;
        bg_vm.name = "bg" + std::to_string(i);
        bg_vm.n_vcpus = cfg.n_inter;
        if (cfg.pinned) bg_vm.pin_map = identity_pins(cfg.n_inter);
        const hv::VmId bg = world->add_vm(bg_vm, /*irs_capable=*/false);
        wl::WorkloadOptions bo;
        bo.n_threads = cfg.n_inter;
        bo.endless = true;
        bo.npb_spinning = cfg.npb_spinning;
        world->attach(bg, wl::make_workload(cfg.bg, bo));
        bgs.push_back(bg);
      }
    }
    world->start();
  });

  out.finished = timed(L.sim_run_s, [&] {
    return world->run_until_finished(fg, cfg.timeout);
  });

  obs::SloResult slo;
  timed(L.core_extract_s, [&] {
    const core::VmMetrics fgm = world->vm_metrics(fg);
    out.fg_makespan = fgm.makespan >= 0 ? fgm.makespan : fgm.elapsed;
    for (const hv::VmId bg : bgs) (void)world->vm_metrics(bg);
    server_stats(*fg_wl, world->engine().now(), &out, &slo, L);
    const hv::SchedStats& ss = world->host().sched_stats();
    out.lhp = ss.lhp_events;
    out.lwp = ss.lwp_events;
    (void)world->kernel(fg).stats();
    out.sa_sent = world->host().strategy_stats().sa_sent;
  });

  read_engine(world->engine(), world->started_at(), L);
  read_host(world->node(), L);

  if (cfg.forensics && cfg.forensics_analyze) {
    sim::Trace& trace = world->host().trace();
    std::vector<sim::TraceRecord> records = trace.snapshot();
    obs::TraceMeta meta;
    meta.n_pcpus = cfg.n_pcpus;
    for (int vm_i = 0; vm_i < world->host().n_vms(); ++vm_i) {
      const hv::Vm& vm = world->host().vm(vm_i);
      int idx = 0;
      for (const hv::Vcpu* v : vm.vcpus()) {
        meta.vcpus.push_back(obs::VcpuInfo{v->id(), vm.name(), idx++});
      }
      guest::GuestKernel& k = world->kernel(vm_i);
      for (std::size_t t = 0; t < k.n_tasks(); ++t) {
        meta.tasks.push_back(
            obs::TaskInfo{k.task(t).id(), vm.name(), k.task(t).name()});
      }
    }
    meta.start = world->started_at();
    meta.end = world->engine().now();
    meta.dropped = trace.dropped();
    meta.total_recorded = trace.total_recorded();
    with_server(*fg_wl, [&](auto& s) {
      if (!s.request_spans().empty()) {
        records = obs::with_request_spans(records, s.request_spans(),
                                          meta.total_recorded);
      }
    });
    L.n.forensics_records += records.size();
    out.forensics = timed(L.forensics_s, [&] {
      return obs::request_forensics(records, meta, slo);
    });
  }
  ++L.n.single_runs;
  return out;
}

/// exp::run_scenario's cluster path, one timer per layer call.
Replayed replay_cluster(const exp::ScenarioConfig& cfg, Ledger& L) {
  Replayed out;
  cluster::ClusterConfig cc;
  cc.n_hosts = cfg.cluster.n_hosts;
  cc.n_pcpus = cfg.n_pcpus;
  cc.hv = cfg.hv;
  cc.strategy = cfg.strategy;
  cc.seed = cfg.seed;
  cc.telemetry = cfg.telemetry();
  cc.queue = cfg.queue;
  if (!cluster::policy_from_name(cfg.cluster.policy, &cc.policy)) {
    throw std::invalid_argument("unknown cluster policy " +
                                cfg.cluster.policy);
  }
  cc.collect_period = cfg.cluster.collect_period;
  cc.decide_period = cfg.cluster.decide_period;
  cc.migration.downtime = cfg.cluster.migration_downtime;
  cc.migration.warmup_debt = cfg.cluster.warmup_debt;
  cc.burn_frac = cfg.cluster.burn_frac;
  cc.cooldown = cfg.cluster.cooldown;

  std::unique_ptr<cluster::Cluster> cl;
  wl::Workload* fg_wl = nullptr;
  cluster::CvmId fg;
  timed(L.cluster_setup_s, [&] {
    cl = std::make_unique<cluster::Cluster>(cc);
    hv::VmConfig fg_vm;
    fg_vm.name = "fg";
    fg_vm.n_vcpus = cfg.n_vcpus;
    if (cfg.pinned) fg_vm.pin_map = identity_pins(cfg.n_vcpus);
    fg = cl->add_vm(0, fg_vm, /*irs_capable=*/true, cfg.fg_guest);
    cl->set_protected(fg);
    fg_wl = &cl->attach(fg, wl::make_workload(cfg.fg, fg_options(cfg)));
    enable_obs(cfg, *fg_wl, /*spans=*/false);
    if (!cfg.bg.empty() && cfg.n_inter > 0) {
      for (int i = 0; i < cfg.n_bg_vms; ++i) {
        cl->add_migratable_hog("bg" + std::to_string(i), cfg.n_inter,
                               cfg.n_inter);
      }
    }
    cl->start();
  });

  out.finished = timed(L.sim_run_s, [&] {
    return cl->run_until_finished(fg, cfg.timeout);
  });

  obs::ClusterResult res;
  timed(L.core_extract_s, [&] {
    const core::VmMetrics fgm = cl->vm_metrics(fg);
    out.fg_makespan = fgm.makespan >= 0 ? fgm.makespan : fgm.elapsed;
    obs::SloResult slo;
    server_stats(*fg_wl, cl->engine().now(), &out, &slo, L);
    (void)cl->kernel(fg).stats();
    for (int h = 0; h < cl->n_hosts(); ++h) {
      hv::Host& host = cl->node(h).host();
      out.lhp += host.sched_stats().lhp_events;
      out.lwp += host.sched_stats().lwp_events;
      out.sa_sent += host.strategy_stats().sa_sent;
    }
    res = cl->result();
  });

  // Every host shares the cluster's engine and start time.
  read_engine(cl->engine(), cl->node(0).started_at(), L);
  for (int h = 0; h < cl->n_hosts(); ++h) read_host(cl->node(h), L);
  L.n.cl_decisions += res.decisions;
  L.n.cl_migrations += res.migrations;
  for (const obs::ClusterHostLedger& h : res.hosts) {
    L.n.cl_samples += h.samples;
  }
  ++L.n.cluster_runs;
  return out;
}

/// Host ns per dispatched event of a bare engine driven with fig05's
/// timer mix: periodic ticks, plus per dispatch 0.56 cancel-and-rearm of a
/// pending timer and 1.27 cancels of spent handles — 1.83 cancel calls
/// and 1.56 schedules per dispatch, as fig05 measures (11.7M cancels,
/// 10.0M schedules, 6.4M dispatches).
class TimerMix {
 public:
  explicit TimerMix(sim::QueueKind kind) : eng_(kind) {}
  // Queued callbacks hold `this`.
  TimerMix(const TimerMix&) = delete;
  TimerMix& operator=(const TimerMix&) = delete;

  double ns_per_event(sim::Time horizon) {
    for (int i = 0; i < kTicks; ++i) {
      ticks_[i] = eng_.schedule(kTickPeriod * (i + 1) / kTicks,
                                [this, i] { tick(i); });
    }
    for (int i = 0; i < kTimers; ++i) arm(i);
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t n = eng_.run_until(horizon);
    const double s = seconds_since(t0);
    return n > 0 ? s * 1e9 / static_cast<double>(n) : 0.0;
  }

  [[nodiscard]] double cancels_per_dispatch() const {
    return static_cast<double>(cancels_) /
           static_cast<double>(std::max<std::uint64_t>(1, eng_.dispatched()));
  }

 private:
  static constexpr int kTicks = 16;
  static constexpr int kTimers = 48;
  static constexpr sim::Duration kTickPeriod = sim::milliseconds(1);

  std::uint64_t next_rand() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng_ >> 33;
  }

  void arm(int i) {
    const sim::Duration d =
        sim::microseconds(50) + static_cast<sim::Duration>(next_rand() % 5000) *
                                    sim::microseconds(1);
    timers_[i] = eng_.schedule(d, [this, i] { fire(i); });
  }

  /// The cancel traffic every dispatch generates.
  void churn(int self) {
    for (live_acc_ += 56; live_acc_ >= 100; live_acc_ -= 100) {
      const int v = static_cast<int>(next_rand() % kTimers);
      if (v == self) continue;  // re-armed below anyway
      timers_[v].cancel();
      ++cancels_;
      arm(v);
    }
    for (dead_acc_ += 127; dead_acc_ >= 100; dead_acc_ -= 100) {
      spent_[spent_pos_++ % kSpent].cancel();
      ++cancels_;
    }
  }

  void tick(int i) {
    spent_[spent_pos_++ % kSpent] = ticks_[i];
    churn(-1);
    ticks_[i] = eng_.schedule(kTickPeriod, [this, i] { tick(i); });
  }

  void fire(int i) {
    spent_[spent_pos_++ % kSpent] = timers_[i];
    churn(i);
    arm(i);
  }

  static constexpr std::size_t kSpent = 64;
  sim::Engine eng_;
  sim::EventHandle ticks_[kTicks];
  sim::EventHandle timers_[kTimers];
  sim::EventHandle spent_[kSpent];
  std::size_t spent_pos_ = 0;
  int live_acc_ = 0;
  int dead_acc_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// Serial run_sweep pass; returns host seconds.
double serial_sweep(const std::vector<exp::ScenarioConfig>& cfgs,
                    std::vector<exp::RunResult>* results) {
  const Clock::time_point t0 = Clock::now();
  *results = exp::run_sweep(cfgs, 1);
  return seconds_since(t0);
}

double per(double total, std::uint64_t n, double scale) {
  return n > 0 ? total * scale / static_cast<double>(n) : 0.0;
}

double pct_over(double x, double base) {
  return base > 0 ? (x / base - 1.0) * 100.0 : 0.0;
}

}  // namespace

Outcome run_layers(const Options& opts) {
  const std::vector<exp::ScenarioConfig> on =
      workload_configs(*opts.workload, opts.seed);
  // The obs-off arm: no SLO windows, no request forensics.
  std::vector<exp::ScenarioConfig> off = on;
  for (exp::ScenarioConfig& c : off) {
    c.slo_window = -1;
    c.forensics = false;
  }
  const int workers = parallel_workers();
  Outcome out;

  std::vector<exp::RunResult> ref;
  std::vector<double> t_on, t_off, t_par, t_traced;
  std::vector<Ledger> ledgers;
  bool digest_ok = true;
  const Clock::time_point start = Clock::now();
  double iter_s = 0;
  for (int it = 0; it == 0 || seconds_since(start) + iter_s <= opts.seconds;
       ++it) {
    const Clock::time_point t_it = Clock::now();
    std::vector<exp::RunResult> got, off_results;
    // Interleave the obs arms, alternating which goes first.
    if (it % 2 == 0) {
      t_on.push_back(serial_sweep(on, &got));
      t_off.push_back(serial_sweep(off, &off_results));
    } else {
      t_off.push_back(serial_sweep(off, &off_results));
      t_on.push_back(serial_sweep(on, &got));
    }
    const Clock::time_point tp = Clock::now();
    const std::vector<exp::RunResult> par = exp::run_sweep(on, workers);
    t_par.push_back(seconds_since(tp));
    if (ref.empty()) ref = got;

    Ledger L;
    exp::SweepStats stats;
    std::uint64_t digest = kDigestBasis;
    const Clock::time_point tt = Clock::now();
    for (std::size_t i = 0; i < on.size(); ++i) {
      const exp::ScenarioConfig& cfg = on[i];
      const Replayed r = cfg.cluster.n_hosts >= 2 ? replay_cluster(cfg, L)
                                                  : replay_single(cfg, L);
      digest = digest_line(digest, timed(L.emit_s, [&] {
                             return exp::shard_line_json(i, got[i]);
                           }));
      timed(L.fold_s, [&] { stats.add(got[i]); });
      ++out.attempted;
      if (!same(r, ref[i]) || !got[i].finished ||
          !exp::results_identical(got[i], ref[i]) ||
          !exp::results_identical(par[i], ref[i])) {
        ++out.failed;
      }
    }
    t_traced.push_back(seconds_since(tt));
    ledgers.push_back(L);
    if (opts.seed == kDefaultSeed && digest != opts.expect_digest) {
      digest_ok = false;
    }
    iter_s = seconds_since(t_it);
  }

  const Ledger& L = ledgers.front();
  for (const Ledger& o : ledgers) {
    if (o.n != L.n) {
      out.notes.emplace_back("EXACT COUNTS DIFFER between traced passes");
      out.failed = out.attempted;
    }
  }
  if (!digest_ok) {
    out.notes.emplace_back("DIGEST MISMATCH: every run counts as failed");
    out.failed = out.attempted;
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Ledger& o : ledgers) v.push_back(field(o));
    return median(v);
  };
  const auto runs = static_cast<std::uint64_t>(on.size());
  const double wall_s = median(t_on);

  std::vector<Metric>& m = out.metrics;
  m.push_back({"sim.events", static_cast<double>(L.n.events), "count"});
  m.push_back({"sim.ns_per_event",
               med([](const Ledger& o) {
                 return per(o.sim_run_s, o.n.events, 1e9);
               }),
               "ns"});
  m.push_back({"sim.queue_slots_max", static_cast<double>(L.n.queue_slots_max),
               "count"});
  for (const char* name : {"binary", "quad", "wheel"}) {
    sim::QueueKind kind{};
    if (!sim::parse_queue_kind(name, &kind)) continue;
    std::vector<double> reps;
    double ratio = 0;
    for (int rep = 0; rep < 3; ++rep) {
      TimerMix mix(kind);
      reps.push_back(mix.ns_per_event(sim::seconds(30)));
      ratio = mix.cancels_per_dispatch();
    }
    m.push_back({std::string("sim.timer_mix_ns_per_event.") + name,
                 median(reps), "ns"});
    char buf[128];
    std::snprintf(buf, sizeof(buf), "timer mix %s: %.3f cancels per dispatch",
                  name, ratio);
    out.notes.emplace_back(buf);
  }
  m.push_back({"core.setup_us_per_run",
               med([](const Ledger& o) {
                 return per(o.core_setup_s, o.n.single_runs, 1e6);
               }),
               "us"});
  m.push_back({"core.extract_us_per_run",
               med([&](const Ledger& o) {
                 return per(o.core_extract_s, runs, 1e6);
               }),
               "us"});
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"hv.ctx_switches", L.n.hv_ctx_switches},
      {"hv.preemptions", L.n.hv_preemptions},
      {"hv.wakeups", L.n.hv_wakeups},
      {"hv.steals", L.n.hv_steals},
      {"hv.lhp", L.n.hv_lhp},
      {"hv.lwp", L.n.hv_lwp},
      {"hv.sa_sent", L.n.hv_sa_sent},
      {"hv.ple_exits", L.n.hv_ple_exits},
      {"hv.co_stops", L.n.hv_co_stops},
      {"guest.ctx_switches", L.n.guest_ctx_switches},
      {"guest.migrations", L.n.guest_migrations},
      {"guest.irs_migrations", L.n.guest_irs_migrations},
  };
  for (const auto& [name, v] : counts) {
    m.push_back({name, static_cast<double>(v), "count"});
  }
  m.push_back({"sync.spin_s", sim::to_sec(L.n.spin), "sim_s"});
  m.push_back({"wl.work_units", static_cast<double>(L.n.work_units), "count"});
  m.push_back({"wl.requests", static_cast<double>(L.n.requests), "count"});
  m.push_back({"wl.sim_s", sim::to_sec(L.n.sim_time), "sim_s"});
  m.push_back({"obs.record_overhead_pct", pct_over(wall_s, median(t_off)),
               "%"});
  m.push_back({"obs.trace_records", static_cast<double>(L.n.trace_records),
               "count"});
  m.push_back({"obs.trace_dropped", static_cast<double>(L.n.trace_dropped),
               "count"});
  m.push_back({"obs.forensics_ns_per_record",
               med([](const Ledger& o) {
                 return per(o.forensics_s, o.n.forensics_records, 1e9);
               }),
               "ns"});
  m.push_back({"exp.par_efficiency",
               wall_s / (workers * median(t_par)), "ratio"});
  m.push_back({"exp.emit_us_per_run",
               med([&](const Ledger& o) { return per(o.emit_s, runs, 1e6); }),
               "us"});
  m.push_back({"exp.fold_us_per_run",
               med([&](const Ledger& o) { return per(o.fold_s, runs, 1e6); }),
               "us"});
  m.push_back({"cluster.setup_us_per_run",
               med([](const Ledger& o) {
                 return per(o.cluster_setup_s, o.n.cluster_runs, 1e6);
               }),
               "us"});
  m.push_back({"cluster.decisions", static_cast<double>(L.n.cl_decisions),
               "count"});
  m.push_back({"cluster.migrations", static_cast<double>(L.n.cl_migrations),
               "count"});
  m.push_back({"cluster.collector_samples",
               static_cast<double>(L.n.cl_samples), "count"});
  m.push_back({"bench.trace_overhead_pct", pct_over(median(t_traced), wall_s),
               "%"});

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu runs per pass, %zu traced passes; serial on-arm %.4f s, "
                "off-arm %.4f s, traced %.4f s, parallel %.4f s (%d workers)",
                on.size(), ledgers.size(), wall_s, median(t_off),
                median(t_traced), median(t_par), workers);
  out.notes.emplace_back(buf);
  return out;
}

}  // namespace irs::perfbench
