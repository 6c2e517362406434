// irs_perfbench: the repository benchmark's binary. perfbench/run.py
// builds it and is the entry point; see README.md for the metrics.
//
//   irs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--git DESCRIBE] [--expect-digest HEX]
//   irs_perfbench --workload NAME --seed N --setup-probe T0_NS
//
// The last stdout line is the result object; exit 1 when any run failed.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/exp/grids.h"
#include "src/exp/shard.h"
#include "src/exp/sweep.h"
#include "src/sim/engine.h"

namespace irs::perfbench {

namespace {

// Pinned at kDefaultSeed with the grids at this commit. A change that
// alters figure output must re-pin these and say why.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"parsec_fig05", {"fig05"}, false, 0x491cf7d6cb67ef24ULL},
      {"npb_fig10", {"fig10"}, false, 0xd09a19ec8bf0fbc0ULL},
      {"server_fig08", {"fig08", "fig08_open"}, true, 0x3263fd81129693f6ULL},
      {"cluster_fig", {"fig_cluster"}, false, 0x5f900d1eda917340ULL},
      // Tiny grid for the benchmark's own self-test; not a measured
      // workload.
      {"smoke", {"smoke"}, false, 0xba3da2a2ce685f71ULL},
  };
  return kWorkloads;
}

/// Variables that silently change the grid, the worker count or the
/// engine backend. A result measured under any of them is not comparable.
constexpr const char* kRefusedEnv[] = {"IRS_BENCH_FAST", "IRS_BENCH_SEEDS",
                                       "IRS_BENCH_JOBS", "IRS_ENGINE_QUEUE",
                                       "IRS_ENGINE_BATCH"};

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string provenance_json(const Options& o, const std::string& git) {
  const sim::Engine eng;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"workload_seed\": %llu, \"seconds\": %g, "
      "\"nproc\": %d, \"sweep_workers\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git\": \"%s\", \"queue_backend\": \"%s\", "
      "\"dispatch_batch\": %zu, \"seeds_per_point\": %d}",
      o.workload->name, static_cast<unsigned long long>(o.seed), o.seconds,
      nproc(), parallel_workers(), json_escape(compiler()).c_str(),
      IRS_PERFBENCH_BUILD_TYPE, json_escape(git).c_str(), eng.queue_name(),
      sim::Engine::default_dispatch_batch(), kSeedsPerPoint);
  return buf;
}

void print_result(const Outcome& out) {
  std::string m;
  for (const Metric& x : out.metrics) {
    if (!m.empty()) m += ", ";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  x.name.c_str(), x.value, x.unit.c_str());
    m += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), m.c_str());
}

/// Set-up as the measured sweep does it — grid expansion, config copies,
/// run_sweep's result slots, then the parallel pool — up to the moment the
/// pool hands out the first run. Reports seconds since `t0_ns`, the
/// monotonic time at which the parent spawned this process.
int setup_probe(const Options& o, std::int64_t t0_ns) {
  const std::vector<exp::ScenarioConfig> cfgs =
      workload_configs(*o.workload, o.seed);
  std::vector<exp::RunResult> slots(cfgs.size());
  std::atomic<bool> dispatched{false};
  std::int64_t t1_ns = 0;
  exp::parallel_for(
      cfgs.size(),
      [&](std::size_t) {
        if (!dispatched.exchange(true)) t1_ns = monotonic_ns();
      },
      parallel_workers());
  std::printf("%.9f\n", static_cast<double>(t1_ns - t0_ns) * 1e-9);
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "irs_perfbench: %s\nusage: irs_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--git DESCRIBE] "
               "[--expect-digest HEX] | --setup-probe T0_NS\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  for (const char* v : kRefusedEnv) {
    if (std::getenv(v) != nullptr) {
      std::fprintf(stderr,
                   "irs_perfbench: refusing to run with %s set: it changes "
                   "the grid or the engine the benchmark measures\n",
                   v);
      return 2;
    }
  }
  Options o;
  std::string workload;
  std::string git = "unknown";
  int trace = -1;
  bool have_digest = false;
  std::int64_t probe_t0 = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--git") {
      git = v;
    } else if (a == "--expect-digest") {
      o.expect_digest = std::strtoull(v, &end, 16);
      have_digest = true;
    } else if (a == "--setup-probe") {
      probe_t0 = std::strtoll(v, &end, 10);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return usage(("bad value for " + a).c_str());
    }
  }
  o.workload = find_workload(workload);
  if (o.workload == nullptr) return usage("unknown --workload");
  if (probe_t0 >= 0) return setup_probe(o, probe_t0);
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (!have_digest) o.expect_digest = o.workload->digest;

  std::printf("# provenance %s\n", provenance_json(o, git).c_str());
  std::fflush(stdout);
  Outcome out = trace == 1 ? run_layers(o) : run_end_to_end(o);
  if (trace == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.metrics.push_back(
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
  }
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  std::printf("# failed_frac %.6g (%llu of %llu runs)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  print_result(out);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}

}  // namespace

double spawn_setup_probe(const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("setup probe: pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::string seed = std::to_string(o.seed);
  std::string t0 = std::to_string(monotonic_ns());
  const char* argv[] = {"irs_perfbench", "--workload", o.workload->name,
                        "--seed", seed.c_str(), "--setup-probe", t0.c_str(),
                        nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("setup probe failed");
  }
  return std::stod(out);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<exp::ScenarioConfig> workload_configs(const Workload& w,
                                                  std::uint64_t seed) {
  std::vector<exp::ScenarioConfig> cfgs;
  for (const char* grid : w.grids) {
    std::vector<exp::ScenarioConfig> g =
        exp::figure_grid(grid, exp::GridOptions{.seeds = kSeedsPerPoint});
    if (g.empty()) throw std::runtime_error(std::string("no grid ") + grid);
    for (std::size_t i = 0; i < g.size(); ++i) {
      // Seeds are the innermost grid axis (see src/exp/grids.h).
      const std::uint64_t s = exp::derive_seed(seed, i % kSeedsPerPoint);
      if (seed == kDefaultSeed && g[i].seed != s) {
        throw std::runtime_error(std::string("grid ") + grid +
                                 ": seeds are no longer innermost");
      }
      g[i].seed = s;
      g[i].forensics = w.forensics;
      cfgs.push_back(g[i]);
    }
  }
  return cfgs;
}

int parallel_workers() { return std::min(nproc(), 4); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t digest_line(std::uint64_t h, const std::string& line) {
  for (const char c : line + "\n") {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t results_digest(const std::vector<exp::RunResult>& rs) {
  std::uint64_t h = kDigestBasis;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    h = digest_line(h, exp::shard_line_json(i, rs[i]));
  }
  return h;
}

}  // namespace irs::perfbench

int main(int argc, char** argv) {
  try {
    return irs::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "irs_perfbench: %s\n", e.what());
    return 1;
  }
}
