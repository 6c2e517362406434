// Sharded-sweep tests: shard planning, the NDJSON shard format, the
// cross-shard bit-identity guarantee (a merged multi-shard sweep equals the
// single-process sweep in every metric and sampler digest), the merge
// verifier's fault taxonomy, and a byte-for-byte golden merge.
//
// Regenerate the golden fixtures after an intentional format change with
//   IRS_REGEN_GOLDEN=1 ./irs_tests --gtest_filter=ShardGolden.*
#include "src/exp/shard.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/obs/forensics.h"
#include "src/obs/sampler.h"
#include "src/obs/slo.h"

namespace irs::exp {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Deterministic synthetic result for run `i`: every field nonzero and
/// i-dependent, doubles chosen to be unrepresentable in short decimal so
/// the round-trip formatting is actually exercised.
RunResult synth(std::uint64_t i) {
  RunResult r;
  r.finished = true;
  r.fg_makespan = static_cast<sim::Duration>(1000000 + 7 * i);
  r.fg_util_vs_fair = 0.1 + 0.001 * static_cast<double>(i);
  r.fg_efficiency = 1.0 / 3.0 + static_cast<double>(i);
  r.bg_progress_rate = 123.456 * static_cast<double>(i + 1);
  r.throughput = (i % 2) != 0 ? 1e6 / 7.0 : 0.0;
  r.lat_mean = static_cast<sim::Duration>(5000 * i);
  r.lat_p99 = static_cast<sim::Duration>(9000 * i + 1);
  r.lat_p999 = static_cast<sim::Duration>(9990 * i + 3);
  r.lhp = 11 * i;
  r.lwp = 13 * i;
  r.irs_migrations = i;
  r.sa_sent = 100 + i;
  r.sa_acked = 90 + i;
  r.sa_delay_avg = static_cast<sim::Duration>(777 + i);
  r.sampler_digest = 0x9e3779b97f4a7c15ULL * (i + 1);
  r.trace_dropped = i % 3;  // runs 1, 2 mod 3 carry a truncated-ring flag
  r.trace_total_recorded = 10000 + i;
  // A small but fully-populated SLO block so the shard round-trip covers
  // histogram buckets, windows, and the digest.
  obs::SloTracker t;
  const std::size_t cls = t.add_class(
      "jbb", {/*threshold=*/sim::milliseconds(10), 0.999});
  for (std::uint64_t k = 0; k < 40; ++k) {
    t.record(cls, static_cast<sim::Time>(k * sim::milliseconds(2)),
             static_cast<sim::Duration>(sim::microseconds(300) +
                                        997 * (k + i) * (k + i)));
  }
  t.flush(sim::milliseconds(80));
  r.slo = t.result();
  r.slo_digest = r.slo.digest();
  // A hand-built forensics block (every field nonzero and i-dependent) so
  // shard lines, merge, and the golden fixture cover the cause histograms,
  // violating windows, and the forensics digest.
  obs::ForensicsResult f;
  f.window = sim::milliseconds(30);
  f.head_truncated_at =
      (i % 3) != 0 ? static_cast<sim::Time>(sim::microseconds(50) * i) : -1;
  obs::ForensicsClassResult fc;
  fc.name = "jbb";
  fc.spec = obs::SloSpec{sim::milliseconds(10), 0.999};
  for (std::uint64_t k = 0; k < 20; ++k) {
    for (int c = 0; c < obs::kNumCauses; ++c) {
      fc.causes[c].add(static_cast<sim::Duration>(131 * (k + i) * (c + 1)));
    }
  }
  fc.spans = 20;
  fc.truncated = i % 3;
  fc.open = i % 2;
  obs::ForensicsWindow w;
  w.index = static_cast<std::int64_t>(i + 1);
  w.requests = 20;
  w.violations = 3 + i % 5;
  for (int c = 0; c < obs::kNumCauses; ++c) {
    w.causes[c] = static_cast<sim::Duration>(1000 * (c + 1) + 17 * i);
  }
  fc.windows.push_back(w);
  f.classes.push_back(std::move(fc));
  r.forensics = std::move(f);
  r.forensics_digest = r.forensics.digest();
  // A synthetic front-end conservation ledger (every counter nonzero and
  // i-dependent, the conservation identity intact) so shard lines, merge,
  // and the golden fixture cover the frontend block and its digest.
  obs::FrontendResult fe;
  fe.completed = 100 + i;
  fe.tail_dropped = 5 + i % 3;
  fe.admit_rejected = 2 + i % 2;
  fe.shed = 3 + i % 4;
  fe.in_flight = 1 + i % 2;
  fe.accepted = fe.completed + fe.in_flight;
  fe.arrivals = fe.accepted + fe.tail_dropped + fe.admit_rejected + fe.shed;
  fe.conn_setups = 10 + i;
  fe.keepalive_reuses = 90 + 2 * i;
  fe.max_queue_depth = 7 + i;
  fe.queue_wait_total = static_cast<sim::Duration>(123457 * (i + 1));
  fe.queue_wait_max = static_cast<sim::Duration>(90001 + 11 * i);
  r.frontend = fe;
  r.frontend_digest = obs::ledger_digest(r.frontend);
  // A synthetic cluster placement ledger (every counter i-dependent, the
  // conservation identities intact) so shard lines, merge, and the golden
  // fixture cover the cluster block and its digest.
  obs::ClusterResult cl;
  cl.n_hosts = 2;
  cl.policy = static_cast<std::uint32_t>(i % 3);
  cl.migratable = 2 + i % 2;
  cl.vms = cl.migratable + 1;
  cl.decisions = 30 + i;
  cl.migrations = i % 2;
  cl.downtime_total = static_cast<sim::Duration>(20000000 * cl.migrations);
  obs::ClusterHostLedger h0;
  h0.placed = 1;
  h0.migr_out = cl.migrations;
  h0.active_end = h0.placed - h0.migr_out;
  h0.samples = 300 + i;
  h0.lhp = 17 * i;
  h0.lwp = 19 * i;
  h0.steal = static_cast<sim::Duration>(997 * (i + 1));
  obs::ClusterHostLedger h1;
  h1.placed = cl.vms - 1;
  h1.migr_in = cl.migrations;
  h1.active_end = h1.placed + h1.migr_in;
  h1.samples = 300 + i;
  h1.lhp = 23 * i;
  h1.lwp = 29 * i;
  h1.steal = static_cast<sim::Duration>(1009 * (i + 1));
  cl.hosts = {h0, h1};
  r.cluster = cl;
  r.cluster_digest = obs::ledger_digest(r.cluster);
  return r;
}

ShardHeader header(int shard, int n_shards, std::uint64_t total) {
  ShardHeader h;
  h.shard = shard;
  h.n_shards = n_shards;
  h.total_runs = total;
  h.fig = "smoke";
  h.seeds = 2;
  return h;
}

/// A well-formed shard stream carrying synth(i) for every owned index.
std::string synth_stream(int shard, int n_shards, std::uint64_t total) {
  std::string s = shard_header_json(header(shard, n_shards, total)) + "\n";
  for (const std::size_t i : shard_run_indices(total, shard, n_shards)) {
    s += shard_line_json(i, synth(i)) + "\n";
  }
  return s;
}

/// The sampler-armed determinism grid: small enough for CI, sampling on so
/// digests are nonzero and covered by the identity check.
std::vector<ScenarioConfig> sampled_grid() {
  std::vector<ScenarioConfig> cfgs;
  for (const char* app : {"blackscholes", "streamcluster"}) {
    for (const auto strategy :
         {core::Strategy::kBaseline, core::Strategy::kIrs}) {
      ScenarioConfig cfg;
      cfg.fg = app;
      cfg.strategy = strategy;
      cfg.work_scale = 0.05;
      cfg.seed = 42;
      cfg.sample_period = obs::Sampler::kDefaultPeriod;
      for (const auto& seeded : seed_grid(cfg, 2)) cfgs.push_back(seeded);
    }
  }
  return cfgs;
}

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

TEST(ShardPlan, ParseSpecAcceptsValidRejectsMalformed) {
  ShardSpec s;
  ASSERT_TRUE(parse_shard_spec("2/8", &s));
  EXPECT_EQ(s.index, 2);
  EXPECT_EQ(s.count, 8);
  ASSERT_TRUE(parse_shard_spec("0/1", &s));
  EXPECT_EQ(s.index, 0);
  EXPECT_EQ(s.count, 1);
  for (const char* bad : {"", "2", "/8", "2/", "8/2", "8/8", "2/0", "a/b",
                          "-1/4", "1/4/2", "1 /4", "0x1/4"}) {
    EXPECT_FALSE(parse_shard_spec(bad, &s)) << bad;
  }
}

TEST(ShardPlan, RunIndicesPartitionTheGrid) {
  constexpr std::size_t kRuns = 17;
  constexpr int kShards = 5;
  std::set<std::size_t> seen;
  for (int s = 0; s < kShards; ++s) {
    const auto owned = shard_run_indices(kRuns, s, kShards);
    for (std::size_t j = 0; j < owned.size(); ++j) {
      EXPECT_EQ(owned[j] % kShards, static_cast<std::size_t>(s));
      if (j > 0) {
        EXPECT_LT(owned[j - 1], owned[j]);  // ascending
      }
      EXPECT_TRUE(seen.insert(owned[j]).second) << owned[j];  // disjoint
    }
  }
  EXPECT_EQ(seen.size(), kRuns);  // complete
  // Degenerate shapes.
  EXPECT_TRUE(shard_run_indices(0, 0, 4).empty());
  EXPECT_TRUE(shard_run_indices(3, 3, 4).empty());  // more shards than runs
  EXPECT_TRUE(shard_run_indices(10, 4, 4).empty());  // out-of-range shard
}

TEST(ShardPlan, ShardGridSelectsOwnedConfigs) {
  std::vector<ScenarioConfig> cfgs(7);
  for (std::size_t i = 0; i < cfgs.size(); ++i) cfgs[i].seed = 1000 + i;
  std::size_t total = 0;
  for (int s = 0; s < 3; ++s) {
    const auto sub = shard_grid(cfgs, s, 3);
    const auto owned = shard_run_indices(cfgs.size(), s, 3);
    ASSERT_EQ(sub.size(), owned.size());
    for (std::size_t j = 0; j < sub.size(); ++j) {
      EXPECT_EQ(sub[j].seed, cfgs[owned[j]].seed);
    }
    total += sub.size();
  }
  EXPECT_EQ(total, cfgs.size());
}

// ---------------------------------------------------------------------------
// NDJSON shard format round-trips
// ---------------------------------------------------------------------------

TEST(ShardFormat, HeaderRoundTrips) {
  const ShardHeader h = header(3, 8, 96);
  ShardHeader parsed;
  std::string err;
  ASSERT_TRUE(parse_shard_header(shard_header_json(h), &parsed, &err)) << err;
  EXPECT_EQ(parsed.shard, h.shard);
  EXPECT_EQ(parsed.n_shards, h.n_shards);
  EXPECT_EQ(parsed.total_runs, h.total_runs);
  EXPECT_EQ(parsed.fig, h.fig);
  EXPECT_EQ(parsed.seeds, h.seeds);
}

TEST(ShardFormat, HeaderRejectsGarbageAndBadRanges) {
  ShardHeader h;
  std::string err;
  EXPECT_FALSE(parse_shard_header("not json", &h, &err));
  EXPECT_FALSE(parse_shard_header("[1,2]", &h, &err));
  EXPECT_FALSE(parse_shard_header(R"({"shard":1,"n_shards":4})", &h, &err));
  EXPECT_FALSE(parse_shard_header(
      R"({"shard":4,"n_shards":4,"total_runs":8})", &h, &err));
  EXPECT_FALSE(parse_shard_header(
      R"({"shard":-1,"n_shards":4,"total_runs":8})", &h, &err));
}

TEST(ShardFormat, LineRoundTripsBitIdenticalAndByteIdentical) {
  for (const std::uint64_t i : {0ULL, 1ULL, 5ULL, 12345ULL}) {
    const RunResult r = synth(i);
    const std::string line = shard_line_json(i, r);
    std::size_t run = 0;
    RunResult parsed;
    std::string err;
    ASSERT_TRUE(parse_shard_line(line, &run, &parsed, &err)) << err;
    EXPECT_EQ(run, i);
    EXPECT_TRUE(results_identical(r, parsed));
    // Re-emitting the parsed result reproduces the exact bytes.
    EXPECT_EQ(shard_line_json(run, parsed), line);
  }
}

// ---------------------------------------------------------------------------
// Cross-shard determinism: the headline guarantee
// ---------------------------------------------------------------------------

/// Full-grid sweep vs. 3 shards run separately, serialized to NDJSON,
/// merged — every metric and sampler digest bit-identical, and invariant
/// to the worker thread count on both sides.
TEST(ShardDeterminism, MergedThreeWaySplitMatchesFullSweepBitForBit) {
  const auto cfgs = sampled_grid();
  const auto full_serial = run_sweep(cfgs, /*n_threads=*/1);
  const auto full_parallel = run_sweep(cfgs, /*n_threads=*/4);
  ASSERT_EQ(full_serial.size(), cfgs.size());

  constexpr int kShards = 3;
  std::vector<std::pair<std::string, std::string>> files;
  for (int s = 0; s < kShards; ++s) {
    const auto owned = shard_run_indices(cfgs.size(), s, kShards);
    // Alternate thread counts across shards: placement must not matter.
    const auto results =
        run_sweep(shard_grid(cfgs, s, kShards), /*n_threads=*/1 + s % 2 * 3);
    ASSERT_EQ(results.size(), owned.size());
    ShardHeader h = header(s, kShards, cfgs.size());
    std::string content = shard_header_json(h) + "\n";
    for (std::size_t j = 0; j < owned.size(); ++j) {
      content += shard_line_json(owned[j], results[j]) + "\n";
    }
    files.emplace_back("shard" + std::to_string(s) + ".ndjson", content);
  }

  const MergeReport rep = merge_shard_streams(files);
  ASSERT_TRUE(rep.ok()) << merge_summary_json(rep);
  ASSERT_EQ(rep.merged, cfgs.size());
  ASSERT_EQ(rep.results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(i);
    // Sampling was armed, so the digest is a live part of the check.
    EXPECT_NE(full_serial[i].sampler_digest, 0u);
    EXPECT_TRUE(results_identical(full_serial[i], full_parallel[i]));
    EXPECT_TRUE(results_identical(full_serial[i], rep.results[i]));
  }
}

// ---------------------------------------------------------------------------
// Merge fault taxonomy (every anomaly has a status bit and a repair)
// ---------------------------------------------------------------------------

TEST(ShardMerge, CleanTwoShardMergeIsOk) {
  const MergeReport rep = merge_shard_streams(
      {{"s0", synth_stream(0, 2, 6)}, {"s1", synth_stream(1, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeOk);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.merged, 6u);
  EXPECT_EQ(rep.fig, "smoke");
  EXPECT_EQ(rep.seeds, 2);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(results_identical(rep.results[i], synth(i))) << i;
  }
  EXPECT_TRUE(repair_plan(rep).empty());
}

TEST(ShardMerge, TruncatedTailIsDiscardedAndReportedNeverSilent) {
  // Kill shard 1 mid-write: drop the final newline so the last line is torn.
  std::string s1 = synth_stream(1, 2, 6);
  s1.resize(s1.size() - 3);
  const MergeReport rep =
      merge_shard_streams({{"s0", synth_stream(0, 2, 6)}, {"s1", s1}});
  EXPECT_EQ(rep.status, kMergeTruncated | kMergeMissingRuns);
  ASSERT_EQ(rep.truncated_files.size(), 1u);
  EXPECT_EQ(rep.truncated_files[0], "s1");
  ASSERT_EQ(rep.missing.size(), 1u);
  EXPECT_EQ(rep.missing[0], 5u);  // shard 1 of 2 owns 1,3,5; 5 was torn
  EXPECT_EQ(rep.merged, 5u);
  // The repair plan names the exact rerun.
  EXPECT_EQ(repair_plan(rep),
            "irs_sweep --fig smoke --seeds 2 --shard 1/2 --runs 5 "
            "--ndjson rerun-shard1.ndjson\n");
}

TEST(ShardMerge, DuplicateIdenticalLineIsFlaggedButKept) {
  std::string s0 = synth_stream(0, 2, 6);
  s0 += shard_line_json(4, synth(4)) + "\n";  // retried upload, same bits
  const MergeReport rep =
      merge_shard_streams({{"s0", s0}, {"s1", synth_stream(1, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeDuplicate);
  ASSERT_EQ(rep.duplicate_runs.size(), 1u);
  EXPECT_EQ(rep.duplicate_runs[0], 4u);
  EXPECT_EQ(rep.merged, 6u);  // nothing lost
  EXPECT_TRUE(repair_plan(rep).empty());  // nothing to rerun
}

TEST(ShardMerge, ConflictingDigestBreaksTheMergeAndLandsInThePlan) {
  std::string s0 = synth_stream(0, 2, 6);
  RunResult bad = synth(4);
  bad.sampler_digest ^= 1;  // determinism violation: same run, new bits
  s0 += shard_line_json(4, bad) + "\n";  // a retry that reproduced differently
  const MergeReport rep =
      merge_shard_streams({{"s0", s0}, {"s1", synth_stream(1, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeConflict);
  ASSERT_EQ(rep.conflict_runs.size(), 1u);
  EXPECT_EQ(rep.conflict_runs[0], 4u);
  // First occurrence wins in the merged vector...
  EXPECT_TRUE(results_identical(rep.results[4], synth(4)));
  // ...but the run is rerun to arbitrate.
  EXPECT_EQ(repair_plan(rep),
            "irs_sweep --fig smoke --seeds 2 --shard 0/2 --runs 4 "
            "--ndjson rerun-shard0.ndjson\n");
  // The error note names both digests.
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("conflicting results"), std::string::npos);
}

TEST(ShardMerge, EntirelyMissingShardFileYieldsWholeShardRerun) {
  const MergeReport rep =
      merge_shard_streams({{"s0", synth_stream(0, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeMissingRuns);
  EXPECT_EQ(rep.missing, (std::vector<std::uint64_t>{1, 3, 5}));
  ASSERT_EQ(rep.missing_shards.size(), 1u);
  EXPECT_EQ(rep.missing_shards[0], 1);
  // Whole shard lost: the plan omits --runs (rerun everything it owns).
  EXPECT_EQ(repair_plan(rep),
            "irs_sweep --fig smoke --seeds 2 --shard 1/2 "
            "--ndjson rerun-shard1.ndjson\n");
}

TEST(ShardMerge, OutOfOrderLinesMergeButAreFlagged) {
  // Hand-reordered file: content is keyed by run index, so the merge still
  // recovers everything, but the disorder is surfaced.
  std::string s0 = shard_header_json(header(0, 2, 6)) + "\n";
  for (const std::uint64_t i : {2ULL, 0ULL, 4ULL}) {
    s0 += shard_line_json(i, synth(i)) + "\n";
  }
  const MergeReport rep =
      merge_shard_streams({{"s0", s0}, {"s1", synth_stream(1, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeDisorder);
  EXPECT_EQ(rep.merged, 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(results_identical(rep.results[i], synth(i))) << i;
  }
}

TEST(ShardMerge, ForeignRunIndexIsDisorder) {
  std::string s0 = synth_stream(0, 2, 6);
  s0 += shard_line_json(3, synth(3)) + "\n";  // 3 belongs to shard 1
  const MergeReport rep =
      merge_shard_streams({{"s0", s0}, {"s1", synth_stream(1, 2, 6)}});
  // The foreign line still merges (it agrees with shard 1's copy, so it is
  // also a duplicate) but the ownership violation is flagged.
  EXPECT_EQ(rep.status, kMergeDisorder | kMergeDuplicate);
  EXPECT_EQ(rep.merged, 6u);
}

TEST(ShardMerge, GarbageLineIsBadFileAndItsRunGoesMissing) {
  std::string s0 = shard_header_json(header(0, 2, 6)) + "\n";
  s0 += shard_line_json(0, synth(0)) + "\n";
  s0 += "{\"run\":2,\"finished\":true}\n";  // truncated field set
  s0 += shard_line_json(4, synth(4)) + "\n";
  const MergeReport rep =
      merge_shard_streams({{"s0", s0}, {"s1", synth_stream(1, 2, 6)}});
  EXPECT_EQ(rep.status, kMergeBadFile | kMergeMissingRuns);
  EXPECT_EQ(rep.missing, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(rep.merged, 5u);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("line 3"), std::string::npos);
}

TEST(ShardMerge, EmptyFileIsBadAndItsShardMissing) {
  const MergeReport rep =
      merge_shard_streams({{"s0", synth_stream(0, 2, 6)}, {"s1", ""}});
  EXPECT_EQ(rep.status, kMergeBadFile | kMergeMissingRuns);
  EXPECT_EQ(rep.missing_shards, (std::vector<int>{1}));
  EXPECT_EQ(rep.missing, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(ShardMerge, HeaderDisagreementIsBadFile) {
  // Shard 1 from a *different* grid (other total_runs): refusing to mix is
  // the whole point of self-describing headers.
  const MergeReport rep = merge_shard_streams(
      {{"s0", synth_stream(0, 2, 6)}, {"s1", synth_stream(1, 2, 8)}});
  EXPECT_NE(rep.status & kMergeBadFile, 0);
  ASSERT_GE(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("header disagrees"), std::string::npos);
}

TEST(ShardMerge, ExpectOverridesTrumpHeaders) {
  MergeOptions opt;
  opt.expect_runs = 8;   // headers claim 6
  opt.expect_shards = 3;  // headers claim 2
  const MergeReport rep = merge_shard_streams(
      {{"s0", synth_stream(0, 2, 6)}, {"s1", synth_stream(1, 2, 6)}},
      opt);
  EXPECT_EQ(rep.expected_runs, 8u);
  EXPECT_EQ(rep.n_shards, 3);
  EXPECT_NE(rep.status & kMergeMissingRuns, 0);
  EXPECT_EQ(rep.missing, (std::vector<std::uint64_t>{6, 7}));
  EXPECT_EQ(rep.missing_shards, (std::vector<int>{2}));
}

TEST(ShardMerge, UnreadablePathIsBadFile) {
  const MergeReport rep =
      merge_shards({"/nonexistent/definitely-not-here.ndjson"});
  EXPECT_NE(rep.status & kMergeBadFile, 0);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("cannot read file"), std::string::npos);
}

TEST(ShardMerge, SummaryJsonCarriesEveryAnomalyList) {
  std::string s0 = synth_stream(0, 2, 6);
  s0.resize(s0.size() - 1);  // torn tail
  const MergeReport rep = merge_shard_streams({{"s0", s0}});
  const std::string json = merge_summary_json(rep);
  EXPECT_NE(json.find("\"status\":"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"missing\":["), std::string::npos);
  EXPECT_NE(json.find("\"missing_shards\":[1]"), std::string::npos);
  EXPECT_NE(json.find("\"truncated\":[\"s0\"]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden merge on a pinned 2-shard fixture
// ---------------------------------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(IRS_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The shard inputs, the merged output, and the verification summary of a
/// tiny 2-shard sweep are all pinned byte-for-byte: any drift in the NDJSON
/// schema, double formatting, or summary key order fails here first.
TEST(ShardGolden, TwoShardFixtureMergesByteForByte) {
  const std::string shard0 = synth_stream(0, 2, 4);
  const std::string shard1 = synth_stream(1, 2, 4);
  const MergeReport rep = merge_shard_streams(
      {{"sweep_shard0.ndjson", shard0}, {"sweep_shard1.ndjson", shard1}});
  ASSERT_TRUE(rep.ok()) << merge_summary_json(rep);
  std::ostringstream merged;
  write_merged_ndjson(merged, rep);
  const std::string summary = merge_summary_json(rep);

  const std::vector<std::pair<std::string, const std::string*>> goldens = {
      {"sweep_shard0.ndjson", &shard0},
      {"sweep_shard1.ndjson", &shard1},
      {"sweep_merged.ndjson", nullptr},  // filled below
      {"sweep_merge_summary.json", &summary},
  };
  const std::string merged_str = merged.str();

  if (std::getenv("IRS_REGEN_GOLDEN") != nullptr) {
    for (const auto& [name, content] : goldens) {
      std::ofstream out(golden_path(name), std::ios::binary);
      out << (content != nullptr ? *content : merged_str);
      ASSERT_TRUE(out.good()) << "could not regenerate " << name;
    }
    GTEST_SKIP() << "regenerated sweep_* golden fixtures";
  }

  for (const auto& [name, content] : goldens) {
    const std::string want = read_file(golden_path(name));
    ASSERT_FALSE(want.empty())
        << "missing golden file " << name
        << " (run with IRS_REGEN_GOLDEN=1 to create)";
    EXPECT_EQ(content != nullptr ? *content : merged_str, want)
        << name
        << " drifted from the golden fixture; if intentional, regenerate "
           "with IRS_REGEN_GOLDEN=1";
  }

  // And merging the *golden* inputs (not the in-memory ones) still
  // reproduces the golden merged file: the on-disk fixtures are live.
  const MergeReport from_disk = merge_shard_streams(
      {{"sweep_shard0.ndjson", read_file(golden_path("sweep_shard0.ndjson"))},
       {"sweep_shard1.ndjson",
        read_file(golden_path("sweep_shard1.ndjson"))}});
  ASSERT_TRUE(from_disk.ok());
  std::ostringstream remerged;
  write_merged_ndjson(remerged, from_disk);
  EXPECT_EQ(remerged.str(), read_file(golden_path("sweep_merged.ndjson")));
}

}  // namespace
}  // namespace irs::exp
