// End-to-end passes: the workload's grid through exp::run_sweep with
// tracing off. A round is one serial sweep (one worker) on every CPU at
// once, each pinned to its own CPU, then parallel sweeps; rounds repeat
// until the run's time is spent. Serial figures are floors, the least
// time observed per run; the parallel figure is a median. Both are scaled
// to reference-host speed by the floor of a calibration kernel sampled
// throughout the serial sweeps (see README.md). Every sweep
// is checked against the first serial sweep with exp::results_identical,
// and at the default seed that sweep must reproduce the pinned digest.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <thread>

#include "perfbench/bench.h"
#include "src/exp/sweep.h"

namespace irs::perfbench {

namespace {

/// Fewest rounds a run measures, whatever --seconds says.
constexpr int kMinRounds = 3;

/// Parallel sweeps per round. A parallel sweep takes about a quarter of a
/// serial one, so a round spends about 40% of its time on them.
constexpr int kParallelPerRound = 3;

/// Fewest set-up probes a run makes; one follows every sweep, so probes
/// spread over the run instead of landing in one burst of host noise.
constexpr std::size_t kMinSetupProbes = 7;

/// Runs beyond the value reported as the tail (see README.md).
constexpr std::size_t kTailBeyond = 10;

/// Host ms of serial-sweep time between two calibration samples.
constexpr double kCalibrateEveryMs = 40.0;

/// Share of the calibration samples below the kernel's floor. A low
/// quantile of some thousand samples, not their least, so that one
/// lucky sample does not move every figure.
constexpr double kCalibrationQuantile = 0.01;

/// The calibration kernel's floor on the reference host: what it takes on
/// the 4-vCPU GCC 12.2 RelWithDebInfo box the bounds were set on. Host
/// times are reported in reference-host seconds: floor seconds x
/// kReferenceCalMs / the kernel's floor in the same run.
constexpr double kReferenceCalMs = 0.93;

/// Host-speed probe, code of its own that no change under src/ touches:
/// insert, update and erase on a std::map of up to 4096 keys, about 1 ms.
/// Of the kernels tried (ALU loops, pointer chases of 64 KiB-32 MiB,
/// malloc churn, larger maps), this one's floor tracked the floor of the
/// simulator's run times best as the host's load came and went.
class Calibration {
 public:
  /// Takes a sample.
  void sample() {
    const Clock::time_point t0 = Clock::now();
    std::map<std::uint32_t, std::uint32_t> m;
    for (std::uint32_t k = 0; k < kOps; ++k) {
      m[static_cast<std::uint32_t>(step() % kKeys)] += k;
      if (k % 3 == 0) m.erase(static_cast<std::uint32_t>(step() % kKeys));
    }
    sink_ += m.size();
    samples_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }

  /// Host ms of every sample taken.
  std::vector<double> samples_ms;

 private:
  static constexpr std::uint32_t kKeys = 4096;
  static constexpr std::uint32_t kOps = 6000;

  std::uint64_t step() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng_ >> 16;
  }

  std::uint64_t rng_ = 7;
  std::size_t sink_ = 0;
};

/// The CPUs the serial sweeps run on: the first parallel_workers() CPUs
/// this process may use.
std::vector<int> lane_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE &&
                    cpus.size() < static_cast<std::size_t>(parallel_workers());
         ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one lane, not pinned
  return cpus;
}

/// One serial sweep on one CPU, timed run by run. The lane starts the
/// grid at its own offset, so lanes do not run the same config at once.
struct Lane {
  int cpu = -1;
  std::size_t offset = 0;
  Calibration calibration;
  std::vector<exp::RunResult> results;  // grid order
  std::vector<double> run_ms;           // host ms per run, grid order
  double wall_s = 0;                    // sum of run_ms

  void sweep(const std::vector<exp::ScenarioConfig>& cfgs) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const std::size_t n = cfgs.size();
    std::vector<exp::ScenarioConfig> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) order.push_back(cfgs[(i + offset) % n]);
    run_ms.assign(n, 0);
    wall_s = 0;
    double since_sample_ms = 0;
    Clock::time_point last = Clock::now();
    // One worker runs inline in order, so each delivery follows its own
    // run: the gap between deliveries is that run's host time. A
    // calibration sample's own time counts in no run.
    std::vector<exp::RunResult> got = exp::run_sweep(
        order,
        [&](std::size_t i, const exp::RunResult&) {
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - last)
                  .count();
          run_ms[(i + offset) % n] = ms;
          wall_s += ms / 1000.0;
          since_sample_ms += ms;
          if (since_sample_ms >= kCalibrateEveryMs) {
            calibration.sample();
            since_sample_ms = 0;
          }
          last = Clock::now();
        },
        1);
    results.assign(n, exp::RunResult{});
    for (std::size_t i = 0; i < n; ++i) {
      results[(i + offset) % n] = std::move(got[i]);
    }
  }
};

/// Runs of `got` that did not finish or differ from `ref`.
std::uint64_t count_failed(const std::vector<exp::RunResult>& ref,
                           const std::vector<exp::RunResult>& got) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].finished || i >= ref.size() ||
        !exp::results_identical(ref[i], got[i])) {
      ++bad;
    }
  }
  return bad;
}

/// Value with `kTailBeyond` runs above it (the maximum on tiny grids).
double tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() > kTailBeyond ? v[v.size() - 1 - kTailBeyond] : v.back();
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

}  // namespace

Outcome run_end_to_end(const Options& opts) {
  const std::vector<exp::ScenarioConfig> cfgs =
      workload_configs(*opts.workload, opts.seed);
  const std::size_t n = cfgs.size();
  const int workers = parallel_workers();
  Outcome out;

  const std::vector<int> cpus = lane_cpus();
  std::vector<Lane> lanes(cpus.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    lanes[k].cpu = cpus[k];
    lanes[k].offset = n * k / lanes.size();
  }
  std::vector<exp::RunResult> ref;
  bool digest_ok = true;
  // Least host ms seen per run over every lane's serial sweeps.
  std::vector<double> floor_ms(n, std::numeric_limits<double>::infinity());
  std::vector<double> serial_wall, par_wall, setup;
  auto probe = [&] { setup.push_back(spawn_setup_probe(opts)); };
  const Clock::time_point start = Clock::now();
  double round_s = 0;
  for (int round = 0;
       round < kMinRounds || seconds_since(start) + round_s <= opts.seconds;
       ++round) {
    const Clock::time_point t_round = Clock::now();
    {
      std::vector<std::exception_ptr> errors(lanes.size());
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        threads.emplace_back([&, k] {
          try {
            lanes[k].sweep(cfgs);
          } catch (...) {
            errors[k] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    probe();
    for (const Lane& l : lanes) {
      if (ref.empty()) {
        ref = l.results;
        const std::uint64_t d = results_digest(ref);
        char buf[160];
        std::snprintf(buf, sizeof(buf), "digest %016llx (pinned %016llx%s)",
                      static_cast<unsigned long long>(d),
                      static_cast<unsigned long long>(opts.expect_digest),
                      opts.seed == kDefaultSeed ? "" : ", not checked off the "
                                                       "default seed");
        out.notes.emplace_back(buf);
        digest_ok = opts.seed != kDefaultSeed || d == opts.expect_digest;
      }
      out.attempted += l.results.size();
      out.failed += count_failed(ref, l.results);
      serial_wall.push_back(l.wall_s);
      for (std::size_t i = 0; i < n; ++i) {
        floor_ms[i] = std::min(floor_ms[i], l.run_ms[i]);
      }
    }

    for (int k = 0; k < kParallelPerRound; ++k) {
      const Clock::time_point t_par = Clock::now();
      const std::vector<exp::RunResult> par = exp::run_sweep(cfgs, workers);
      par_wall.push_back(seconds_since(t_par));
      probe();
      out.attempted += par.size();
      out.failed += count_failed(ref, par);
    }
    round_s = seconds_since(t_round);
  }
  while (setup.size() < kMinSetupProbes) probe();
  if (!digest_ok) {
    out.notes.emplace_back("DIGEST MISMATCH: every run counts as failed");
    out.failed = out.attempted;
  }

  // Host noise only ever adds time, so the least time seen is the
  // steadiest estimate of the code's own cost: per run over every lane's
  // serial sweeps, and per probe for set-up. A parallel sweep's floor
  // would need every CPU quiet at once, which comes too seldom to repeat;
  // the parallel sweeps report their median. One speed factor scales
  // every figure to the reference host.
  std::vector<double> cal;
  for (Lane& l : lanes) {
    if (l.calibration.samples_ms.empty()) l.calibration.sample();
    cal.insert(cal.end(), l.calibration.samples_ms.begin(),
               l.calibration.samples_ms.end());
  }
  std::sort(cal.begin(), cal.end());
  const double cal_floor_ms = cal[static_cast<std::size_t>(
      kCalibrationQuantile * static_cast<double>(cal.size() - 1))];
  const double speed = kReferenceCalMs / cal_floor_ms;
  std::vector<double> per_run(n);
  double wall_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    per_run[i] = floor_ms[i] * speed;
    wall_s += per_run[i] / 1000.0;
  }
  double sim_s = 0;
  for (const exp::RunResult& r : ref) sim_s += sim::to_sec(r.fg_makespan);
  out.metrics = {
      {"wall_s", wall_s, "s"},
      {"par_wall_s", median(par_wall) * speed, "s"},
      {"sim_s_per_wall_s", sim_s / wall_s, "sim_s/s"},
      {"run_ms_p50", median(per_run), "ms"},
      {"run_ms_tail", tail_of(per_run), "ms"},
      {"setup_s", *std::min_element(setup.begin(), setup.end()) * speed,
       "s"},
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu runs per sweep, %zu serial sweeps on %zu CPUs and %zu "
                "parallel sweeps (%d workers); run_ms_tail is p%.4g (%zu "
                "runs beyond it)",
                n, serial_wall.size(), lanes.size(), par_wall.size(), workers,
                n > kTailBeyond ? 100.0 * static_cast<double>(n - kTailBeyond) /
                                      static_cast<double>(n)
                                : 100.0,
                n > kTailBeyond ? kTailBeyond : std::size_t{0});
  out.notes.emplace_back(buf);
  out.notes.push_back("measured serial s per sweep: " + join(serial_wall) +
                      " (median " + join({median(serial_wall)}) + ")");
  out.notes.push_back("measured parallel s per sweep: " + join(par_wall) +
                      " (median " + join({median(par_wall)}) + ")");
  std::snprintf(buf, sizeof(buf),
                "calibration floor (p%g) %.4f ms over %zu samples, least "
                "%.4f ms (reference %.4f ms): speed factor %.4f",
                100 * kCalibrationQuantile, cal_floor_ms, cal.size(), cal[0],
                kReferenceCalMs, speed);
  out.notes.emplace_back(buf);
  std::vector<double> setup_ms;
  for (const double x : setup) setup_ms.push_back(x * 1000.0);
  out.notes.push_back("measured set-up ms per probe: " + join(setup_ms));
  return out;
}

}  // namespace irs::perfbench
