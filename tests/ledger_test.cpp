// Per-field coverage of the result ledgers, generated from each record's
// fields() list (src/obs/ledger.h): for every scalar of FrontendResult,
// ClusterResult (host-row columns included) and RunResult, bump that one
// field and require that
//   * the digest moves (ledgers) and the JSON form moves;
//   * the JSON round-trips to an equal record and byte-identical text;
//   * folding applies the declared rule — Fold::kSum / kMax for ledgers,
//     the declared Combine for RunResult's seed average — and SweepStats
//     tracks exactly the scalars flagged kStat.
// A field added to a struct but left out of its list, or declared with
// the wrong rule, fails here by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/cluster_stats.h"
#include "src/obs/frontend_stats.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/ledger.h"

namespace {

using namespace irs;

/// f(key, member, tags...) for every scalar of `l`, descending into the
/// rows of a row vector.
template <class L, class F>
void each_scalar(L& l, F&& f) {
  L::fields(l, [&f](const char* key, auto& m, auto... tags) {
    if constexpr (std::ranges::range<decltype(m)>) {
      for (auto& row : m) each_scalar(row, f);
    } else {
      f(key, m, tags...);
    }
  });
}

template <class L>
std::size_t scalar_count(L l) {
  std::size_t n = 0;
  each_scalar(l, [&n](const char*, auto&, auto...) { ++n; });
  return n;
}

/// Add one to the k-th scalar; returns its key.
template <class L>
std::string bump(L& l, std::size_t k) {
  std::string key;
  std::size_t i = 0;
  each_scalar(l, [&](const char* name, auto& m, auto...) {
    if (i++ != k) return;
    key = name;
    using T = std::remove_reference_t<decltype(m)>;
    if constexpr (std::is_same_v<T, bool>) {
      m = !m;
    } else {
      m = static_cast<T>(m + 1);
    }
  });
  return key;
}

/// Distinct nonzero values everywhere, so sum and max always differ.
template <class L>
void fill(L& l) {
  std::uint64_t v = 0;
  each_scalar(l, [&v](const char*, auto& m, auto...) {
    m = static_cast<std::remove_reference_t<decltype(m)>>(7 * ++v);
  });
}

template <class L>
std::string to_json(const L& l) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  obs::ledger_json(w, l);
  return w.str();
}

template <class L>
std::vector<std::pair<obs::Fold, std::uint64_t>> flat(L l) {
  std::vector<std::pair<obs::Fold, std::uint64_t>> out;
  each_scalar(l, [&out](const char*, const auto& m, obs::Fold f) {
    out.emplace_back(f, static_cast<std::uint64_t>(m));
  });
  return out;
}

template <class L>
void check_every_field(const L& base, const char* name) {
  const std::size_t n = scalar_count(base);
  ASSERT_GT(n, 0u);
  const std::uint64_t base_digest = obs::ledger_digest(base);
  const std::string base_json = to_json(base);
  for (std::size_t k = 0; k < n; ++k) {
    L b = base;
    const std::string key = bump(b, k);
    SCOPED_TRACE(key);
    EXPECT_NE(obs::ledger_digest(b), base_digest);
    const std::string json = to_json(b);
    EXPECT_NE(json, base_json);

    obs::JsonReader reader;
    obs::JsonValue v;
    ASSERT_TRUE(reader.parse(json, &v)) << reader.error();
    L parsed;
    std::string err;
    ASSERT_TRUE(obs::ledger_from_value(v, name, &parsed, &err)) << err;
    EXPECT_EQ(parsed, b);
    EXPECT_EQ(to_json(parsed), json);

    L acc = base;
    obs::ledger_fold(acc, b);
    const auto a0 = flat(base);
    const auto b0 = flat(b);
    const auto got = flat(acc);
    ASSERT_EQ(got.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t want = a0[j].first == obs::Fold::kMax
                                     ? std::max(a0[j].second, b0[j].second)
                                     : a0[j].second + b0[j].second;
      EXPECT_EQ(got[j].second, want) << "scalar " << j;
    }
  }
}

TEST(LedgerFields, FrontendEveryFieldDigestsRoundTripsAndFolds) {
  obs::FrontendResult f;
  fill(f);
  EXPECT_EQ(scalar_count(f), 12u);
  check_every_field(f, "frontend");
}

TEST(LedgerFields, ClusterEveryFieldAndHostColumnDigestsRoundTripsAndFolds) {
  obs::ClusterResult c;
  c.hosts.resize(2);
  fill(c);
  EXPECT_EQ(scalar_count(c), 8u + 2u * 8u);
  EXPECT_EQ(obs::field_count<obs::ClusterHostLedger>(), 8u);
  check_every_field(c, "cluster");
}

TEST(LedgerFields, RunResultEveryScalarRoundTripsAveragesAndIsTracked) {
  exp::RunResult base;
  fill(base);
  base.finished = false;
  const std::size_t n = scalar_count(base);
  EXPECT_EQ(n, 18u);
  const std::string base_json = exp::result_json(base);
  exp::SweepStats base_stats;
  base_stats.add(base);
  for (std::size_t k = 0; k < n; ++k) {
    exp::RunResult b = base;
    const std::string key = bump(b, k);
    SCOPED_TRACE(key);
    const std::string json = exp::result_json(b);
    EXPECT_NE(json, base_json);
    exp::RunResult parsed;
    std::string err;
    ASSERT_TRUE(exp::result_from_json(json, &parsed, &err)) << err;
    EXPECT_TRUE(exp::results_identical(parsed, b));
    EXPECT_EQ(exp::result_json(parsed), json);

    // SweepStats sees the bump exactly when the scalar is flagged kStat.
    unsigned flags = 0;
    std::size_t i = 0;
    each_scalar(b, [&](const char*, auto&, exp::Combine, unsigned fl) {
      if (i++ == k) flags = fl;
    });
    exp::SweepStats stats;
    stats.add(b);
    std::vector<std::string> moved;
    for (std::size_t m = 0; m < exp::SweepStats::metric_names().size(); ++m) {
      if (stats.metric(m).mean() != base_stats.metric(m).mean()) {
        moved.push_back(exp::SweepStats::metric_names()[m]);
      }
    }
    if ((flags & exp::kStat) != 0) {
      EXPECT_EQ(moved, std::vector<std::string>{key});
    } else {
      EXPECT_TRUE(moved.empty());
    }

    // average_results applies the declared rule to every scalar.
    const exp::RunResult avg = exp::average_results({base, b});
    i = 0;
    exp::RunResult::fields(avg, [&](const char* name, const auto& got,
                                    exp::Combine c, unsigned) {
      using T = std::remove_cvref_t<decltype(got)>;
      T x{}, y{};
      std::size_t j = 0;
      each_scalar(base, [&](const char*, auto& m, auto...) {
        if (j++ == i) x = static_cast<T>(m);
      });
      j = 0;
      each_scalar(b, [&](const char*, auto& m, auto...) {
        if (j++ == i) y = static_cast<T>(m);
      });
      ++i;
      T want{};
      switch (c) {
        case exp::Combine::kAny: want = x || y; break;
        case exp::Combine::kMean:
          want = static_cast<T>(
              (static_cast<double>(x) + static_cast<double>(y)) / 2);
          break;
        case exp::Combine::kSumDivide:
          want = static_cast<T>((x + y) / 2);
          break;
        case exp::Combine::kSum: want = static_cast<T>(x + y); break;
        case exp::Combine::kXor:
          if constexpr (std::is_integral_v<T>) want = x ^ y;
          break;
      }
      EXPECT_EQ(got, want) << name;
    });
  }
}

TEST(LedgerFields, RunResultKeysAreRequiredUnlessFlaggedOptional) {
  exp::RunResult base;
  fill(base);
  obs::JsonReader reader;
  obs::JsonValue full;
  ASSERT_TRUE(reader.parse(exp::result_json(base), &full));
  const exp::RunResult proto;
  exp::RunResult::fields(proto, [&](const char* key, const auto&,
                                    exp::Combine, unsigned flags) {
    SCOPED_TRACE(key);
    obs::JsonValue v = full;
    std::erase_if(v.members, [key](const auto& m) { return m.first == key; });
    ASSERT_EQ(v.members.size() + 1, full.members.size());
    exp::RunResult parsed;
    std::string err;
    if ((flags & exp::kOptional) != 0) {
      ASSERT_TRUE(exp::result_from_value(v, &parsed, &err)) << err;
      exp::RunResult want = base;
      exp::RunResult::fields(want, [key](const char* k, auto& m, auto...) {
        if (std::string(k) == key) m = {};
      });
      EXPECT_TRUE(exp::results_identical(parsed, want));
    } else {
      EXPECT_FALSE(exp::result_from_value(v, &parsed, &err));
      EXPECT_EQ(err, std::string("missing field '") + key + "'");
    }
  });
  // The three newer block digests are optional on read too.
  for (const char* key :
       {"forensics_digest", "frontend_digest", "cluster_digest"}) {
    obs::JsonValue v = full;
    std::erase_if(v.members, [key](const auto& m) { return m.first == key; });
    exp::RunResult parsed;
    std::string err;
    EXPECT_TRUE(exp::result_from_value(v, &parsed, &err)) << key << err;
  }
}

}  // namespace
