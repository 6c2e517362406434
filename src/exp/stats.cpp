#include "src/exp/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>

#include "src/exp/report.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"

namespace irs::exp {

// ---------------------------------------------------------------------------
// StatAccumulator
// ---------------------------------------------------------------------------

int StatAccumulator::bucket_key(double v) {
  if (v == 0.0 || std::isnan(v)) return 0;
  const bool neg = v < 0.0;
  const double a = neg ? -v : v;
  // For positive doubles the bit pattern is order-preserving; dropping the
  // low 47 bits keeps the exponent plus the top 5 mantissa bits — buckets
  // with ~3 % relative width. +1 keeps the smallest positives distinct
  // from the zero bucket.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(a);
  const int k = static_cast<int>(bits >> 47) + 1;
  return neg ? -k : k;
}

double StatAccumulator::bucket_value(int key) {
  if (key == 0) return 0.0;
  const bool neg = key < 0;
  const std::uint64_t seg = static_cast<std::uint64_t>((neg ? -key : key) - 1);
  // Midpoint of the truncated 47-bit mantissa segment.
  const std::uint64_t bits = (seg << 47) | (std::uint64_t{1} << 46);
  const double v = std::bit_cast<double>(bits);
  return neg ? -v : v;
}

void StatAccumulator::add(double v) {
  if (n_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  const double d = v - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (v - mean_);
  ++buckets_[bucket_key(v)];
}

double StatAccumulator::stddev() const {
  if (n_ == 0) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_));
}

double StatAccumulator::percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Nearest-rank: the smallest value whose cumulative count covers rank k.
  const auto k = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n_)));
  const std::uint64_t rank = std::max<std::uint64_t>(k, 1);
  std::uint64_t cum = 0;
  for (const auto& [key, cnt] : buckets_) {
    cum += cnt;
    if (cum >= rank) {
      // Clamp the bucket representative into the observed range so the
      // sketch never reports beyond the exact extremes.
      return std::clamp(bucket_value(key), min_, max_);
    }
  }
  return max_;  // unreachable: bucket counts sum to n_
}

void StatAccumulator::merge(const StatAccumulator& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  // Chan et al. parallel combine of (n, mean, M2).
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double d = o.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += d * (nb / n_total);
  m2_ += o.m2_ + d * d * (na * nb / n_total);
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  for (const auto& [key, cnt] : o.buckets_) buckets_[key] += cnt;
}

// ---------------------------------------------------------------------------
// SweepStats
// ---------------------------------------------------------------------------

const std::vector<std::string>& SweepStats::metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    const RunResult r;
    RunResult::fields(r, [&v](const char* key, const auto&, Combine,
                              unsigned flags) {
      if ((flags & kStat) != 0) v.emplace_back(key);
    });
    return v;
  }();
  return names;
}

void SweepStats::add(const RunResult& r) {
  if (acc_.empty()) acc_.resize(metric_names().size());
  ++runs_;
  if (r.finished) ++finished_;
  std::size_t i = 0;
  RunResult::fields(r, [&](const char*, const auto& m, Combine,
                           unsigned flags) {
    if ((flags & kStat) != 0) acc_[i++].add(static_cast<double>(m));
  });
  slo_digest_xor_ ^= r.slo_digest;
  obs::fold_slo(slo_, r.slo);
  forensics_digest_xor_ ^= r.forensics_digest;
  obs::fold_forensics(forensics_, r.forensics);
  frontend_digest_xor_ ^= r.frontend_digest;
  obs::ledger_fold(frontend_, r.frontend);
  cluster_digest_xor_ ^= r.cluster_digest;
  obs::ledger_fold(cluster_, r.cluster);
}

const StatAccumulator& SweepStats::metric(std::size_t i) const {
  static const StatAccumulator kEmpty;
  if (acc_.empty() || i >= acc_.size()) return kEmpty;
  return acc_[i];
}

std::string sweep_stats_json(const SweepStats& s) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  w.begin_object();
  w.field("runs", s.runs());
  w.field("finished", s.finished());
  w.key("metrics");
  w.begin_object();
  const std::vector<std::string>& names = SweepStats::metric_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const StatAccumulator& a = s.metric(i);
    w.key(names[i]);
    w.begin_object();
    w.field("count", a.count());
    w.field("mean", a.mean());
    w.field("stddev", a.stddev());
    w.field("min", a.min());
    w.field("max", a.max());
    w.field("p50", a.percentile(50));
    w.field("p90", a.percentile(90));
    w.field("p99", a.percentile(99));
    w.end_object();
  }
  w.end_object();
  if (!s.slo().empty()) {
    const obs::SloResult& slo = s.slo();
    w.key("slo");
    w.begin_object();
    w.field("digest_xor", s.slo_digest_xor());
    w.field("window_ns", static_cast<std::int64_t>(slo.window));
    w.key("classes");
    w.begin_array();
    for (const obs::SloClassResult& c : slo.classes) {
      w.begin_object();
      w.field("name", c.name);
      w.field("threshold_ns", static_cast<std::int64_t>(c.spec.threshold));
      w.field("objective", c.spec.objective);
      w.field("count", c.total.count());
      w.field("violations", c.violations());
      w.field("mean_ns", static_cast<std::int64_t>(c.total.mean()));
      w.field("p50_ns", static_cast<std::int64_t>(c.total.percentile(50)));
      w.field("p99_ns", static_cast<std::int64_t>(c.total.percentile(99)));
      w.field("p999_ns",
              static_cast<std::int64_t>(c.total.percentile(99.9)));
      w.field("max_ns", static_cast<std::int64_t>(c.total.max()));
      w.field("windows", c.windows.size());
      w.field("hist_digest", c.total.digest());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (!s.forensics().empty()) {
    const obs::ForensicsResult& fz = s.forensics();
    w.key("forensics");
    w.begin_object();
    w.field("digest_xor", s.forensics_digest_xor());
    w.field("window_ns", static_cast<std::int64_t>(fz.window));
    w.key("classes");
    w.begin_array();
    for (const obs::ForensicsClassResult& c : fz.classes) {
      w.begin_object();
      w.field("name", c.name);
      w.field("spans", c.spans);
      w.field("truncated", c.truncated);
      w.field("open", c.open);
      w.field("violating_windows", c.windows.size());
      w.key("cause_totals_ns");
      w.begin_object();
      for (int i = 0; i < obs::kNumCauses; ++i) {
        w.field(obs::cause_name(static_cast<obs::Cause>(i)),
                static_cast<std::int64_t>(
                    c.cause_total(static_cast<obs::Cause>(i))));
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  const auto ledger_section = [&w](const char* key, std::uint64_t digest_xor,
                                   const auto& totals) {
    if (totals.empty()) return;
    w.key(key);
    w.begin_object();
    w.field("digest_xor", digest_xor);
    w.key("totals");
    obs::ledger_json(w, totals);
    w.end_object();
  };
  ledger_section("frontend", s.frontend_digest_xor(), s.frontend());
  ledger_section("cluster", s.cluster_digest_xor(), s.cluster());
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Streaming NDJSON fold
// ---------------------------------------------------------------------------

NdjsonFoldReport fold_ndjson_stream(std::istream& in, SweepStats* stats) {
  constexpr std::size_t kMaxErrors = 8;
  NdjsonFoldReport rep;
  std::string line;
  RunResult r;  // the only result-sized state, reused per line
  auto note = [&](std::uint64_t line_no, const std::string& msg) {
    ++rep.bad_lines;
    if (rep.errors.size() < kMaxErrors) {
      rep.errors.push_back("line " + std::to_string(line_no) + ": " + msg);
    }
  };
  while (std::getline(in, line)) {
    ++rep.lines;
    if (line.empty()) continue;
    obs::JsonReader reader;
    obs::JsonValue v;
    if (!reader.parse(line, &v) || !v.is_object()) {
      note(rep.lines, reader.error().empty() ? "not a JSON object"
                                             : reader.error());
      continue;
    }
    if (v.find("run") == nullptr) {
      // Shard headers carry grid identity, not samples.
      if (v.find("shard") != nullptr) {
        ++rep.headers;
      } else {
        note(rep.lines, "object has neither 'run' nor 'shard'");
      }
      continue;
    }
    std::string err;
    if (!result_from_value(v, &r, &err)) {
      note(rep.lines, err);
      continue;
    }
    ++rep.results;
    if (r.trace_dropped > 0) ++rep.truncated_traces;
    stats->add(r);
  }
  return rep;
}

}  // namespace irs::exp
