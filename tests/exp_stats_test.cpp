// Streaming sweep statistics: StatAccumulator's moments and percentile
// sketch, SweepStats folding, JSON rendering, and the line-by-line NDJSON
// fold — which must agree exactly with folding the same results directly
// (the property that lets irs_sweep_merge --stats-only and bench_report's
// in-process consumer report identical aggregates).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/shard.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/sim/rng.h"

namespace {

using namespace irs;

TEST(StatAccumulator, EmptyIsAllZeros) {
  exp::StatAccumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.percentile(50), 0.0);
}

TEST(StatAccumulator, MomentsAndExtremaAreExact) {
  exp::StatAccumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);  // population stddev of the classic set
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
}

TEST(StatAccumulator, PercentilesWithinSketchError) {
  exp::StatAccumulator a;
  // 1..1000: the exact p-th percentile is ~10p. The log-linear sketch
  // guarantees ~3 % relative error (half a mantissa segment).
  for (int i = 1; i <= 1000; ++i) a.add(static_cast<double>(i));
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = 10.0 * p;
    EXPECT_NEAR(a.percentile(p), exact, 0.03 * exact) << "p" << p;
  }
  // Clamped ends are exact.
  EXPECT_EQ(a.percentile(0), 1.0);
  EXPECT_EQ(a.percentile(100), 1000.0);
}

TEST(StatAccumulator, HandlesNegativeAndZeroValues) {
  exp::StatAccumulator a;
  for (double v : {-100.0, -10.0, 0.0, 10.0, 100.0}) a.add(v);
  EXPECT_EQ(a.min(), -100.0);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.mean(), 0.0, 1e-12);  // Welford rounds, not exact
  // Median of the five values is 0; the sketch stores zero exactly.
  EXPECT_EQ(a.percentile(50), 0.0);
  // Tails clamp to the exact extrema, not bucket midpoints.
  EXPECT_GE(a.percentile(1), -100.0);
  EXPECT_LE(a.percentile(99), 100.0);
}

TEST(StatAccumulator, ConstantStreamHasZeroSpread) {
  exp::StatAccumulator a;
  for (int i = 0; i < 1000; ++i) a.add(42.5);
  EXPECT_DOUBLE_EQ(a.mean(), 42.5);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.percentile(50), 42.5);
  EXPECT_EQ(a.percentile(99), 42.5);
}

TEST(StatAccumulator, SingleSampleIsItsOwnEverything) {
  exp::StatAccumulator a;
  a.add(3.25);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.25);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.min(), 3.25);
  EXPECT_EQ(a.max(), 3.25);
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(a.percentile(p), 3.25) << "p" << p;
  }
}

TEST(StatAccumulator, ParetoTailStaysWithinSketchError) {
  // Heavy-tailed input is where a log-linear sketch could drift: the tail
  // spans many octaves with few samples each. Pareto(alpha=1.5) via
  // inverse transform; compare against exact order statistics.
  sim::Rng rng(99);
  exp::StatAccumulator a;
  std::vector<double> vals;
  for (int i = 0; i < 200000; ++i) {
    const double u = (static_cast<double>(rng.next_below(1u << 30)) + 0.5) /
                     static_cast<double>(1u << 30);
    const double v = std::pow(1.0 - u, -1.0 / 1.5);  // xm = 1
    vals.push_back(v);
    a.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double rank = p / 100.0 * static_cast<double>(vals.size() - 1);
    const double exact = vals[static_cast<std::size_t>(rank)];
    EXPECT_NEAR(a.percentile(p), exact, 0.04 * exact) << "p" << p;
  }
  EXPECT_EQ(a.max(), vals.back());
}

TEST(StatAccumulator, MergeMatchesSerialFeed) {
  // Chan's parallel combine for the moments plus exact bucket-count folds
  // for the sketch: merging per-shard accumulators must agree with one
  // serial accumulator over the union stream.
  sim::Rng rng(31);
  std::vector<double> stream;
  for (int i = 0; i < 30000; ++i) {
    stream.push_back(rng.next_double() * 1e6 - 2e5);  // mixed-sign values
  }
  exp::StatAccumulator serial;
  for (double v : stream) serial.add(v);

  for (int shards : {2, 5}) {
    std::vector<exp::StatAccumulator> parts(
        static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      parts[i % static_cast<std::size_t>(shards)].add(stream[i]);
    }
    exp::StatAccumulator merged;
    for (const auto& p : parts) merged.merge(p);
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.min(), serial.min());
    EXPECT_EQ(merged.max(), serial.max());
    EXPECT_NEAR(merged.mean(), serial.mean(), 1e-9 * std::abs(serial.mean()));
    EXPECT_NEAR(merged.stddev(), serial.stddev(), 1e-9 * serial.stddev());
    // Bucket counts fold exactly, so percentiles are identical.
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
      EXPECT_DOUBLE_EQ(merged.percentile(p), serial.percentile(p)) << p;
    }
  }

  // Merging into an empty accumulator is a copy; merging empty is a no-op.
  exp::StatAccumulator empty;
  exp::StatAccumulator copy;
  copy.merge(serial);
  copy.merge(empty);
  EXPECT_EQ(copy.count(), serial.count());
  EXPECT_DOUBLE_EQ(copy.mean(), serial.mean());
  EXPECT_DOUBLE_EQ(copy.percentile(50), serial.percentile(50));
}

exp::RunResult fake_result(sim::Rng* rng, bool finished = true) {
  exp::RunResult r;
  r.finished = finished;
  r.fg_makespan = static_cast<sim::Duration>(1e9 + rng->next_below(1000000));
  r.fg_util_vs_fair = 0.5 + rng->next_double() * 0.5;
  r.fg_efficiency = rng->next_double();
  r.bg_progress_rate = rng->next_double();
  r.throughput = rng->next_double() * 1e4;
  r.lat_mean = static_cast<sim::Duration>(rng->next_below(500000));
  r.lat_p99 = r.lat_mean * 3;
  r.lhp = static_cast<std::uint64_t>(rng->next_below(40));
  r.lwp = static_cast<std::uint64_t>(rng->next_below(40));
  r.irs_migrations = static_cast<std::uint64_t>(rng->next_below(10));
  r.sa_sent = static_cast<std::uint64_t>(rng->next_below(100));
  r.sa_acked = r.sa_sent / 2;
  r.sa_delay_avg = static_cast<sim::Duration>(rng->next_below(20000));
  return r;
}

TEST(SweepStats, CountsRunsAndFinished) {
  sim::Rng rng(11);
  exp::SweepStats s;
  for (int i = 0; i < 10; ++i) s.add(fake_result(&rng, i % 3 != 0));
  EXPECT_EQ(s.runs(), 10u);
  EXPECT_EQ(s.finished(), 6u);
  ASSERT_FALSE(exp::SweepStats::metric_names().empty());
  EXPECT_EQ(s.metric(0).count(), 10u);
}

TEST(SweepStats, JsonHasEveryMetricInOrder) {
  sim::Rng rng(12);
  exp::SweepStats s;
  for (int i = 0; i < 5; ++i) s.add(fake_result(&rng));
  const std::string json = exp::sweep_stats_json(s);
  EXPECT_NE(json.find("\"runs\":5"), std::string::npos);
  EXPECT_NE(json.find("\"finished\":5"), std::string::npos);
  std::size_t pos = 0;
  for (const std::string& name : exp::SweepStats::metric_names()) {
    const std::size_t at = json.find("\"" + name + "\":", pos);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GE(at, pos) << name << " out of order";
    pos = at;
  }
  for (const char* key : {"\"count\":", "\"mean\":", "\"stddev\":",
                          "\"min\":", "\"max\":", "\"p50\":", "\"p90\":",
                          "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(NdjsonFold, StreamFoldMatchesDirectFoldExactly) {
  // Serialize a shard file, fold it back through the streaming parser, and
  // require the rendered stats to be byte-identical to folding the same
  // RunResults directly — round-trip serialization must not perturb any
  // aggregate.
  sim::Rng rng(13);
  std::vector<exp::RunResult> results;
  for (int i = 0; i < 40; ++i) results.push_back(fake_result(&rng, i != 7));

  std::ostringstream file;
  exp::ShardHeader h;
  h.total_runs = results.size();
  file << exp::shard_header_json(h) << '\n';
  for (std::size_t i = 0; i < results.size(); ++i) {
    file << exp::shard_line_json(i, results[i]) << '\n';
  }

  exp::SweepStats direct;
  for (const auto& r : results) direct.add(r);

  std::istringstream in(file.str());
  exp::SweepStats streamed;
  const exp::NdjsonFoldReport rep = exp::fold_ndjson_stream(in, &streamed);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.lines, 41u);
  EXPECT_EQ(rep.headers, 1u);
  EXPECT_EQ(rep.results, 40u);
  EXPECT_EQ(rep.bad_lines, 0u);
  EXPECT_EQ(exp::sweep_stats_json(streamed), exp::sweep_stats_json(direct));
  EXPECT_EQ(streamed.finished(), 39u);
}

TEST(NdjsonFold, SkipsBlankLinesReportsGarbage) {
  sim::Rng rng(14);
  std::ostringstream file;
  exp::ShardHeader h;
  h.total_runs = 2;
  file << exp::shard_header_json(h) << '\n';
  file << exp::shard_line_json(0, fake_result(&rng)) << '\n';
  file << '\n';                   // blank: ignored
  file << "{not json at all\n";   // garbage: counted + reported
  file << exp::shard_line_json(1, fake_result(&rng));  // no trailing \n: ok

  std::istringstream in(file.str());
  exp::SweepStats stats;
  const exp::NdjsonFoldReport rep = exp::fold_ndjson_stream(in, &stats);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.results, 2u);
  EXPECT_EQ(rep.bad_lines, 1u);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(stats.runs(), 2u);
}

TEST(NdjsonFold, ConcatenatedShardFilesFoldAsOneStream) {
  // --stats-only feeds shard files sequentially; a concatenation with
  // multiple headers must fold cleanly, every header skipped.
  sim::Rng rng(15);
  std::ostringstream file;
  for (int shard = 0; shard < 3; ++shard) {
    exp::ShardHeader h;
    h.shard = shard;
    h.n_shards = 3;
    h.total_runs = 6;
    file << exp::shard_header_json(h) << '\n';
    for (int i = 0; i < 2; ++i) {
      file << exp::shard_line_json(
                  static_cast<std::size_t>(shard + 3 * i),
                  fake_result(&rng))
           << '\n';
    }
  }
  std::istringstream in(file.str());
  exp::SweepStats stats;
  const exp::NdjsonFoldReport rep = exp::fold_ndjson_stream(in, &stats);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.headers, 3u);
  EXPECT_EQ(rep.results, 6u);
  EXPECT_EQ(stats.runs(), 6u);
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(IRS_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The streaming fold and the seed average of the golden merged sweep are
/// pinned byte-for-byte: every SweepStats metric, every block fold (slo,
/// forensics, frontend, cluster) and every average_results combine rule
/// shows up in one of the two lines. Regenerate after an intentional change
/// with IRS_REGEN_GOLDEN=1 ./irs_tests --gtest_filter=SweepStatsGolden.*
TEST(SweepStatsGolden, FoldAndAverageOfMergedFixtureMatchByteForByte) {
  const std::string merged = read_golden("sweep_merged.ndjson");
  ASSERT_FALSE(merged.empty()) << "missing golden sweep_merged.ndjson";
  std::istringstream in(merged);
  exp::SweepStats stats;
  const exp::NdjsonFoldReport rep = exp::fold_ndjson_stream(in, &stats);
  ASSERT_TRUE(rep.ok());
  ASSERT_GT(rep.results, 1u);

  std::vector<exp::RunResult> results;
  std::istringstream lines(merged);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"run\":") == std::string::npos) continue;
    std::size_t idx = 0;
    exp::RunResult r;
    std::string err;
    ASSERT_TRUE(exp::parse_shard_line(line, &idx, &r, &err)) << err;
    results.push_back(r);
  }
  ASSERT_EQ(results.size(), rep.results);

  const std::string got = exp::sweep_stats_json(stats) + "\n" +
                          exp::result_json(exp::average_results(results)) +
                          "\n";
  const std::string path =
      std::string(IRS_GOLDEN_DIR) + "/sweep_stats.json";
  if (std::getenv("IRS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "could not regenerate " << path;
    GTEST_SKIP() << "regenerated sweep_stats.json";
  }
  const std::string want = read_golden("sweep_stats.json");
  ASSERT_FALSE(want.empty())
      << "missing golden file sweep_stats.json (run with "
         "IRS_REGEN_GOLDEN=1 to create)";
  EXPECT_EQ(got, want)
      << "sweep stats drifted from the golden fixture; if intentional, "
         "regenerate with IRS_REGEN_GOLDEN=1";
}

}  // namespace
