// Streaming aggregate statistics over sweep results.
//
// The NDJSON sweep files (exp/shard.h) can hold hundreds of thousands of
// runs across a sharded fleet; consumers that only want aggregates (count,
// mean, spread, tail percentiles) should not have to materialise a
// std::vector<RunResult> first. This header provides the streaming
// alternative to the result_from_json -> vector pattern:
//
//   * StatAccumulator — one metric's running count/mean/variance (Welford),
//     exact min/max, and a log-linear histogram sketch for percentiles
//     (~3 % relative error, fixed memory, deterministic);
//   * SweepStats — one StatAccumulator per RunResult metric, folded one
//     run at a time: feed it from run_sweep's streaming consumer, from a
//     merge, or line-by-line from an NDJSON file;
//   * fold_ndjson_stream — parse an NDJSON sweep stream (shard or merged
//     canonical file) with a single RunResult of state, folding every
//     result line into a SweepStats. O(1) memory in the number of runs.
//
// `irs_sweep_merge --stats[-only]` and bench_report's merged-file gate are
// the in-tree consumers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/exp/runner.h"

namespace irs::exp {

/// Running statistics for one scalar metric. add() is O(log bins) and the
/// state is O(distinct magnitude buckets) — never O(samples). All derived
/// values are deterministic functions of the multiset of samples plus, for
/// mean/stddev, their order (Welford folds in arrival order; sweeps fold
/// in run-index order, so reports are reproducible).
class StatAccumulator {
 public:
  void add(double v);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population standard deviation (consistent with the figure tables).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Nearest-rank percentile (p in [0, 100]) from the log-linear sketch:
  /// the returned value is within ~3 % (one half mantissa bucket) of the
  /// exact order statistic. p <= 0 returns min(), p >= 100 returns max().
  [[nodiscard]] double percentile(double p) const;

  /// Fold another accumulator in, as if its samples had been add()ed here:
  /// count/min/max and the percentile sketch merge exactly; mean/m2 merge
  /// via Chan's parallel update (deterministic for a fixed merge order,
  /// equal to serial accumulation up to float rounding).
  void merge(const StatAccumulator& o);

 private:
  /// Order-preserving bucket key: 0 for zero, positive for positive v,
  /// mirrored negative for negative v. Exponent plus top 5 mantissa bits.
  static int bucket_key(double v);
  /// Representative value of a bucket (mantissa-segment midpoint).
  static double bucket_value(int key);

  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations (Welford)
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<int, std::uint64_t> buckets_;  // ordered => percentile walk
};

/// Aggregate statistics over a stream of RunResults: one accumulator per
/// RunResult scalar flagged kStat, plus run/finished counts. Metric order
/// and names match result_json's fields.
class SweepStats {
 public:
  /// Names of the tracked metrics, in report order.
  static const std::vector<std::string>& metric_names();

  /// Fold one run. Order matters only for mean/stddev determinism; fold in
  /// run-index order for reproducible reports.
  void add(const RunResult& r);

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t finished() const { return finished_; }
  /// Accumulator for metric_names()[i].
  [[nodiscard]] const StatAccumulator& metric(std::size_t i) const;

  /// Sweep-wide SLO fold: class histograms merged bucket-exact across every
  /// run seen (see obs::fold_slo). Empty when no run carried an slo block.
  [[nodiscard]] const obs::SloResult& slo() const { return slo_; }
  /// XOR of every run's slo_digest — the order-independent identity
  /// sentinel the shard merge checks, mirroring sampler digests.
  [[nodiscard]] std::uint64_t slo_digest_xor() const {
    return slo_digest_xor_;
  }

  /// Sweep-wide forensics fold: per-cause histograms merged exactly across
  /// every run seen (see obs::fold_forensics). Empty when no run carried a
  /// forensics block.
  [[nodiscard]] const obs::ForensicsResult& forensics() const {
    return forensics_;
  }
  /// XOR of every run's forensics_digest (see slo_digest_xor).
  [[nodiscard]] std::uint64_t forensics_digest_xor() const {
    return forensics_digest_xor_;
  }

  /// Sweep-wide front-end fold: the conservation ledgers of every run
  /// summed exactly (see obs::ledger_fold). Empty when no run carried a
  /// frontend block.
  [[nodiscard]] const obs::FrontendResult& frontend() const {
    return frontend_;
  }
  /// XOR of every run's frontend_digest (see slo_digest_xor).
  [[nodiscard]] std::uint64_t frontend_digest_xor() const {
    return frontend_digest_xor_;
  }

  /// Sweep-wide cluster fold: every run's placement/migration ledger summed
  /// exactly (see obs::ledger_fold). Empty when no run was a cluster run.
  [[nodiscard]] const obs::ClusterResult& cluster() const { return cluster_; }
  /// XOR of every run's cluster_digest (see slo_digest_xor).
  [[nodiscard]] std::uint64_t cluster_digest_xor() const {
    return cluster_digest_xor_;
  }

 private:
  std::uint64_t runs_ = 0;
  std::uint64_t finished_ = 0;
  std::vector<StatAccumulator> acc_;
  obs::SloResult slo_;
  std::uint64_t slo_digest_xor_ = 0;
  obs::ForensicsResult forensics_;
  std::uint64_t forensics_digest_xor_ = 0;
  obs::FrontendResult frontend_;
  std::uint64_t frontend_digest_xor_ = 0;
  obs::ClusterResult cluster_;
  std::uint64_t cluster_digest_xor_ = 0;
};

/// Stable JSON rendering of a SweepStats (fixed key order; count, mean,
/// stddev, min, max, p50/p90/p99 per metric; an "slo" section with the
/// folded per-class distributions when any run carried one).
std::string sweep_stats_json(const SweepStats& s);

/// Outcome of a streaming fold over an NDJSON sweep stream.
struct NdjsonFoldReport {
  std::uint64_t lines = 0;    // total lines seen (including headers)
  std::uint64_t headers = 0;  // shard-header lines skipped
  std::uint64_t results = 0;  // result lines folded
  std::uint64_t bad_lines = 0;
  /// Result lines whose run had a truncated trace ring (trace_dropped > 0):
  /// their timeline-derived numbers are partial, so consumers warn rather
  /// than silently folding them.
  std::uint64_t truncated_traces = 0;
  std::vector<std::string> errors;  // one per bad line, capped
  [[nodiscard]] bool ok() const { return bad_lines == 0; }
};

/// Fold every result line of an NDJSON sweep stream (shard file, merged
/// canonical file, or a concatenation) into `stats`, line by line, holding
/// a single RunResult of state. Shard-header lines (objects with a
/// "shard" key and no "run" key) are skipped and counted. A trailing
/// newline-less line is processed if parseable, counted bad otherwise.
NdjsonFoldReport fold_ndjson_stream(std::istream& in, SweepStats* stats);

}  // namespace irs::exp
