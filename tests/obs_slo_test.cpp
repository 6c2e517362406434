// Windowed SLO observability: LatencyHistogram bucket geometry and exact
// merge, SloTracker window tumbling, JSON round-trips, and the end-to-end
// guarantee that enabling SLO tracking never perturbs a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/slo.h"
#include "src/sim/rng.h"

namespace {

using namespace irs;
using obs::LatencyHistogram;

// --- bucket geometry ------------------------------------------------------

TEST(SloHistogram, BucketsTileTheRangeContiguously) {
  // Every value maps into exactly one bucket whose [lower, next-lower)
  // range contains it, and bucket lowers are strictly increasing.
  for (int idx = 0; idx + 1 < LatencyHistogram::kNumBuckets; ++idx) {
    const std::int64_t lo = LatencyHistogram::bucket_lower(idx);
    const std::int64_t next = LatencyHistogram::bucket_lower(idx + 1);
    ASSERT_LT(lo, next) << "idx " << idx;
    EXPECT_EQ(LatencyHistogram::bucket_index(lo), idx);
    EXPECT_EQ(LatencyHistogram::bucket_index(next - 1), idx);
    const std::int64_t rep = LatencyHistogram::bucket_value(idx);
    EXPECT_GE(rep, lo);
    EXPECT_LT(rep, next);
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kMaxValueNs),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(SloHistogram, RepresentativeErrorIsBounded) {
  // The midpoint representative is within half a bucket width — 1/(2*kSub)
  // relative (~1.6 %) — of any value in the bucket. Unit buckets are exact.
  for (std::int64_t v = 0; v < 2 * LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(
        LatencyHistogram::bucket_value(LatencyHistogram::bucket_index(v)), v);
  }
  sim::Rng rng(7);
  const double bound = 1.0 / (2.0 * LatencyHistogram::kSub);
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::int64_t>(
        rng.next_below(LatencyHistogram::kMaxValueNs));
    const std::int64_t rep =
        LatencyHistogram::bucket_value(LatencyHistogram::bucket_index(v));
    EXPECT_LE(std::abs(static_cast<double>(rep - v)),
              bound * static_cast<double>(v) + 0.5)
        << "v=" << v;
  }
}

TEST(SloHistogram, AddClampsOutOfRangeValues) {
  LatencyHistogram h;
  h.add(-5);                                     // clamps to 0
  h.add(LatencyHistogram::kMaxValueNs + 1'000);  // clamps to max
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_LE(h.max(), LatencyHistogram::kMaxValueNs);
}

TEST(SloHistogram, SummaryStatsAreExactIntegers) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.percentile(99), 0);
  std::int64_t sum = 0;
  for (std::int64_t v : {1'000, 2'000, 3'000, 4'000}) {
    h.add(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 1'000);
  EXPECT_EQ(h.max(), 4'000);
  EXPECT_EQ(h.mean(), sum / 4);  // count/sum are exact even when buckets
                                 // quantise — mean never goes through them
  EXPECT_EQ(h.sum_lo(), static_cast<std::uint64_t>(sum));
  EXPECT_EQ(h.sum_hi(), 0u);
}

TEST(SloHistogram, PercentilesTrackExactOrderStatistics) {
  LatencyHistogram h;
  std::vector<std::int64_t> vals;
  sim::Rng rng(21);
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform over 1 µs .. 1 s: exercises every octave the sim uses.
    const double u = rng.next_double();
    const auto v = static_cast<std::int64_t>(1e3 * std::pow(1e6, u));
    vals.push_back(v);
    h.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(vals.size())));
    const double exact = static_cast<double>(vals[rank - 1]);
    EXPECT_NEAR(h.percentile(p), exact, exact / LatencyHistogram::kSub)
        << "p" << p;
  }
  EXPECT_EQ(h.percentile(0), vals.front());
  EXPECT_EQ(h.percentile(100), vals.back());
}

TEST(SloHistogram, CountAboveIsExactAtBucketBoundaries) {
  LatencyHistogram h;
  const std::int64_t threshold = sim::milliseconds(10);
  // bucket_lower(bucket_index(threshold)) == threshold for powers of two
  // times small factors? Not necessarily — use the bucket lower itself.
  const std::int64_t edge =
      LatencyHistogram::bucket_lower(LatencyHistogram::bucket_index(threshold));
  std::uint64_t above = 0;
  sim::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto v =
        static_cast<std::int64_t>(rng.next_below(4 * threshold));
    h.add(v);
    // Everything in a bucket strictly after the edge's bucket is counted.
    if (LatencyHistogram::bucket_index(v) >
        LatencyHistogram::bucket_index(edge)) {
      ++above;
    }
  }
  EXPECT_EQ(h.count_above(edge), above);
  EXPECT_EQ(h.count_above(LatencyHistogram::kMaxValueNs), 0u);
}

// --- merge determinism ----------------------------------------------------

TEST(SloHistogram, MergeIsBitIdenticalToSerialInAnyOrderOrGrouping) {
  sim::Rng rng(42);
  std::vector<std::int64_t> stream;
  for (int i = 0; i < 50000; ++i) {
    stream.push_back(static_cast<std::int64_t>(rng.next_below(1'000'000'000)));
  }

  LatencyHistogram serial;
  for (std::int64_t v : stream) serial.add(v);

  for (int shards : {2, 3, 7}) {
    std::vector<LatencyHistogram> parts(static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      parts[i % static_cast<std::size_t>(shards)].add(stream[i]);
    }
    // Merge in a shuffled order and pairwise-uneven grouping.
    std::vector<std::size_t> order(parts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    LatencyHistogram merged;
    for (std::size_t i : order) merged.merge(parts[i]);
    EXPECT_TRUE(merged == serial) << shards << " shards";
    EXPECT_EQ(merged.digest(), serial.digest());
    EXPECT_EQ(merged.mean(), serial.mean());
    EXPECT_EQ(merged.percentile(99.9), serial.percentile(99.9));
  }
}

TEST(SloHistogram, DigestDistinguishesAndEmptyIsStable) {
  LatencyHistogram a;
  LatencyHistogram b;
  EXPECT_EQ(a.digest(), b.digest());
  a.add(1000);
  EXPECT_NE(a.digest(), b.digest());
  b.add(1001);  // different unit bucket
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SloHistogram, MemoryIsBucketsNotSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 1'000'000; ++i) h.add(1000 + (i % 50000));
  // 1e6 exact 8-byte samples would be 8 MB; the histogram must be at
  // least 10x smaller (the bench gates the same ratio).
  EXPECT_EQ(h.count(), 1'000'000u);
  EXPECT_LT(h.memory_bytes(), 8'000'000u / 10);
}

// --- SloTracker windows ---------------------------------------------------

TEST(SloTracker, TumblingWindowsAlignAndSkipEmpty) {
  obs::SloTracker t(sim::milliseconds(30));
  const std::size_t cls =
      t.add_class("jbb", {/*threshold=*/sim::milliseconds(10), 0.999});
  // Window 0: two fast requests. Window 1 empty. Window 2: one violation.
  t.record(cls, sim::milliseconds(5), sim::milliseconds(1));
  t.record(cls, sim::milliseconds(20), sim::milliseconds(2));
  t.record(cls, sim::milliseconds(70), sim::milliseconds(25));
  t.flush(sim::milliseconds(90));

  const obs::SloResult r = t.result();
  ASSERT_EQ(r.classes.size(), 1u);
  const obs::SloClassResult& c = r.classes[0];
  EXPECT_EQ(c.name, "jbb");
  EXPECT_EQ(c.total.count(), 3u);
  EXPECT_EQ(c.violations(), 1u);
  ASSERT_EQ(c.windows.size(), 2u);  // window 1 skipped
  EXPECT_EQ(c.windows[0].index, 0);
  EXPECT_EQ(c.windows[0].count, 2u);
  EXPECT_EQ(c.windows[0].violations, 0u);
  EXPECT_EQ(c.windows[1].index, 2);
  EXPECT_EQ(c.windows[1].count, 1u);
  EXPECT_EQ(c.windows[1].violations, 1u);
  // p50 of the single-sample window is its bucket representative.
  EXPECT_NEAR(static_cast<double>(c.windows[1].p50),
              static_cast<double>(sim::milliseconds(25)),
              static_cast<double>(sim::milliseconds(25)) /
                  LatencyHistogram::kSub);
  EXPECT_EQ(obs::burn_rate(c.windows[0], c.spec), 0.0);
  EXPECT_NEAR(obs::burn_rate(c.windows[1], c.spec), 1.0 / 0.001, 1e-9);
}

TEST(SloTracker, FlushIsIdempotentAndResultFoldsOpenWindow) {
  obs::SloTracker t;
  const std::size_t cls = t.add_class("ab", {sim::milliseconds(20), 0.999});
  t.record(cls, sim::milliseconds(10), sim::milliseconds(3));
  // result() before flush must still see the in-progress window...
  const obs::SloResult before = t.result();
  ASSERT_EQ(before.classes[0].windows.size(), 1u);
  EXPECT_EQ(before.classes[0].total.count(), 1u);
  // ...without mutating the tracker.
  t.flush(sim::milliseconds(40));
  const obs::SloResult after = t.result();
  t.flush(sim::milliseconds(50));  // second flush: no-op
  EXPECT_TRUE(t.result() == after);
  EXPECT_TRUE(before == after);
  EXPECT_EQ(after.digest(), before.digest());
}

TEST(SloTracker, WindowPercentilesAreWindowLocal) {
  // A hog burst in window 1 must not contaminate window 0's tail.
  obs::SloTracker t(sim::milliseconds(30));
  const std::size_t cls = t.add_class("jbb", {sim::milliseconds(10), 0.999});
  for (int i = 0; i < 100; ++i) {
    t.record(cls, sim::milliseconds(1) + i * 100, sim::microseconds(400));
  }
  for (int i = 0; i < 100; ++i) {
    t.record(cls, sim::milliseconds(31) + i * 100, sim::milliseconds(50));
  }
  t.flush(sim::milliseconds(60));
  const obs::SloResult r = t.result();
  ASSERT_EQ(r.classes[0].windows.size(), 2u);
  EXPECT_LT(r.classes[0].windows[0].p999, sim::milliseconds(1));
  EXPECT_GT(r.classes[0].windows[1].p999, sim::milliseconds(40));
  EXPECT_EQ(r.classes[0].windows[0].violations, 0u);
  EXPECT_EQ(r.classes[0].windows[1].violations, 100u);
}

// --- serialization --------------------------------------------------------

obs::SloResult sample_result() {
  obs::SloTracker t;
  const std::size_t jbb = t.add_class("jbb", {sim::milliseconds(10), 0.999});
  const std::size_t ab = t.add_class("ab", {sim::milliseconds(20), 0.99});
  sim::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    t.record(jbb, i * sim::microseconds(40),
             static_cast<sim::Duration>(rng.next_below(20'000'000)));
    t.record(ab, i * sim::microseconds(40),
             static_cast<sim::Duration>(rng.next_below(40'000'000)));
  }
  t.flush(sim::milliseconds(250));
  return t.result();
}

TEST(SloJson, RoundTripsBitIdentically) {
  const obs::SloResult s = sample_result();
  obs::JsonWriter w;
  obs::slo_result_json(w, s);
  const std::string text = w.str();

  obs::JsonReader reader;
  obs::JsonValue v;
  ASSERT_TRUE(reader.parse(text, &v)) << reader.error();
  obs::SloResult parsed;
  std::string err;
  ASSERT_TRUE(obs::slo_result_from_value(v, &parsed, &err)) << err;
  EXPECT_TRUE(parsed == s);
  EXPECT_EQ(parsed.digest(), s.digest());

  obs::JsonWriter w2;
  obs::slo_result_json(w2, parsed);
  EXPECT_EQ(w2.str(), text);  // byte-identical re-serialization
}

TEST(SloJson, RejectsMalformedFields) {
  obs::JsonReader reader;
  obs::JsonValue v;
  obs::SloResult out;
  std::string err;
  ASSERT_TRUE(reader.parse("{\"classes\":[]}", &v));
  EXPECT_FALSE(obs::slo_result_from_value(v, &out, &err));  // no window_ns
  ASSERT_TRUE(reader.parse(
      "{\"window_ns\":30000000,\"classes\":[{\"name\":\"x\"}]}", &v));
  EXPECT_FALSE(obs::slo_result_from_value(v, &out, &err));
  EXPECT_FALSE(err.empty());

  // Histogram blocks that break the invariants the scans rely on. The
  // well-formed block parses; each variant breaks one invariant.
  const auto block = [](const std::string& hist) {
    return R"({"window_ns":30000000,"classes":[{"name":"x",)"
           R"("threshold_ns":10,"objective":0.999,)" +
           hist + R"(,"windows":[]}]})";
  };
  ASSERT_TRUE(reader.parse(
      block(R"("count":2,"sum_lo":30,"sum_hi":0,"min_ns":10,"max_ns":20,)"
            R"("buckets":[[10,1],[20,1]])"),
      &v));
  EXPECT_TRUE(obs::slo_result_from_value(v, &out, &err)) << err;
  const std::pair<const char*, const char*> broken[] = {
      // count != sum of bucket counts
      {R"("count":3,"sum_lo":30,"sum_hi":0,"min_ns":10,"max_ns":20,)"
       R"("buckets":[[10,1],[20,1]])",
       "do not sum"},
      // min > max
      {R"("count":2,"sum_lo":30,"sum_hi":0,"min_ns":25,"max_ns":20,)"
       R"("buckets":[[10,1],[20,1]])",
       "out of order"},
      // min < 0
      {R"("count":2,"sum_lo":30,"sum_hi":0,"min_ns":-1,"max_ns":20,)"
       R"("buckets":[[10,1],[20,1]])",
       "out of order"},
      // a nonzero bucket above bucket_index(max)
      {R"("count":2,"sum_lo":30,"sum_hi":0,"min_ns":10,"max_ns":20,)"
       R"("buckets":[[10,1],[30,1]])",
       "outside"},
  };
  for (const auto& [hist, want] : broken) {
    ASSERT_TRUE(reader.parse(block(hist), &v)) << hist;
    err.clear();
    EXPECT_FALSE(obs::slo_result_from_value(v, &out, &err)) << hist;
    EXPECT_NE(err.find("slo class: "), std::string::npos) << err;
    EXPECT_NE(err.find(want), std::string::npos) << err;
  }
}

// --- end-to-end through the runner ---------------------------------------

exp::ScenarioConfig server_cfg(sim::Duration slo_window,
                              const char* fg = "specjbb") {
  exp::ScenarioConfig cfg;
  cfg.fg = fg;
  cfg.bg = "hog";
  cfg.n_inter = 2;
  cfg.strategy = core::Strategy::kIrs;
  cfg.server_duration = sim::milliseconds(400);
  cfg.slo_window = slo_window;
  return cfg;
}

TEST(SloEndToEnd, TrackingIsPassiveAndDeterministic) {
  // On every server, same seed with SLO tracking off, on (default window),
  // and on again: every scheduling-visible metric must be bit-identical —
  // recording is passive — and the two tracked runs must produce identical
  // SLO blocks. The front-end adds its two refusal classes.
  struct Server {
    const char* fg;
    const char* served_class;
    std::size_t n_classes;
  };
  for (const Server& srv : {Server{"specjbb", "jbb", 1}, Server{"ab", "ab", 1},
                            Server{"frontend", "fe", 3}}) {
    SCOPED_TRACE(srv.fg);
    const exp::RunResult off = exp::run_scenario(server_cfg(-1, srv.fg));
    const exp::RunResult on1 = exp::run_scenario(server_cfg(0, srv.fg));
    const exp::RunResult on2 = exp::run_scenario(server_cfg(0, srv.fg));

    EXPECT_TRUE(off.slo.empty());
    EXPECT_EQ(off.slo_digest, 0u);
    ASSERT_FALSE(on1.slo.empty());
    EXPECT_EQ(on1.throughput, off.throughput);
    EXPECT_EQ(on1.lat_mean, off.lat_mean);
    EXPECT_EQ(on1.lat_p99, off.lat_p99);
    EXPECT_EQ(on1.fg_makespan, off.fg_makespan);
    EXPECT_TRUE(on1.slo == on2.slo);
    EXPECT_EQ(on1.slo_digest, on2.slo_digest);
    EXPECT_NE(on1.slo_digest, 0u);

    ASSERT_EQ(on1.slo.classes.size(), srv.n_classes);
    const obs::SloClassResult& c = on1.slo.classes[0];
    EXPECT_EQ(c.name, srv.served_class);
    EXPECT_EQ(on1.slo.window, obs::SloTracker::kDefaultWindow);
    EXPECT_GT(c.total.count(), 0u);
    EXPECT_FALSE(c.windows.empty());
    // The histogram saw exactly the completed requests.
    std::uint64_t windowed = 0;
    for (const obs::SloWindow& win : c.windows) windowed += win.count;
    EXPECT_EQ(windowed, c.total.count());
  }
}

TEST(SloEndToEnd, ResultJsonCarriesTheBlock) {
  const exp::RunResult r = exp::run_scenario(server_cfg(0));
  const std::string json = exp::result_json(r);
  EXPECT_NE(json.find("\"slo\":"), std::string::npos);
  EXPECT_NE(json.find("\"slo_digest\":"), std::string::npos);
  exp::RunResult parsed;
  std::string err;
  ASSERT_TRUE(exp::result_from_json(json, &parsed, &err)) << err;
  EXPECT_TRUE(parsed.slo == r.slo);
  EXPECT_TRUE(exp::results_identical(parsed, r));
  // And the non-server scenario has no block at all.
  exp::ScenarioConfig cpu = server_cfg(0);
  cpu.fg = "streamcluster";
  cpu.server_duration = 0;
  const exp::RunResult c = exp::run_scenario(cpu);
  EXPECT_TRUE(c.slo.empty());
  EXPECT_EQ(exp::result_json(c).find("\"slo\":"), std::string::npos);
}

}  // namespace
