// Shared pieces of the repository benchmark (see README.md): the workload
// table, the timed passes, and the result ledger every pass fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/exp/runner.h"

namespace irs::perfbench {

/// Seeds per grid point. Pinned instead of read from IRS_BENCH_SEEDS so
/// the benchmark always runs the grid the figures publish.
inline constexpr int kSeedsPerPoint = 2;

/// The workload seed at which a workload reproduces its figure grid
/// exactly (the grids' own base seed) and the pinned digest applies.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  /// exp::figure_grid names, concatenated in this order.
  std::vector<const char*> grids;
  /// Turn on per-request forensics for every run (Fig. 8(d) analysis).
  bool forensics;
  /// FNV-1a 64 of the serial pass's exp::shard_line_json lines at
  /// kDefaultSeed; pins the figure output the benchmark regenerates.
  std::uint64_t digest;
};

/// The named workload, or null.
const Workload* find_workload(const std::string& name);

/// The workload's run configs at workload seed `seed`: the figure grids
/// with the seed of every point's k-th replica re-derived as
/// exp::derive_seed(seed, k). At kDefaultSeed that is the grids' own seed.
std::vector<exp::ScenarioConfig> workload_configs(const Workload& w,
                                                  std::uint64_t seed);

/// Sweep workers of the parallel pass: min(nproc, 4).
int parallel_workers();

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  /// Digest the serial pass must reproduce at kDefaultSeed.
  std::uint64_t expect_digest = 0;
};

/// Set-up time of one fresh process: spawns this binary as a set-up probe
/// and returns the seconds from the spawn until the parallel sweep pool
/// hands out the first run (grid expansion, config copies, result slots
/// and pool start included).
double spawn_setup_probe(const Options& o);

/// End-to-end sweeps with tracing off: serial run_sweep on every CPU at
/// once and parallel run_sweep, repeated for opts.seconds and reported
/// as floors, with identity and digest checks.
Outcome run_end_to_end(const Options& opts);

/// The traced pass: the same configs re-driven through core::World /
/// cluster::Cluster with each layer call timed, plus the obs on/off arms
/// and the engine timer-mix probe.
Outcome run_layers(const Options& opts);

/// FNV-1a 64 offset basis: the digest of no lines.
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Extends digest `h` by one NDJSON line and its newline.
std::uint64_t digest_line(std::uint64_t h, const std::string& line);

/// Digest of the exp::shard_line_json lines of a result vector.
std::uint64_t results_digest(const std::vector<exp::RunResult>& rs);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> v);

}  // namespace irs::perfbench
