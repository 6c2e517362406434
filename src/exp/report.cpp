#include "src/exp/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/obs/json.h"
#include "src/obs/ledger.h"
#include "src/obs/slo.h"

namespace irs::exp {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << cell;
      for (std::size_t pad = cell.size(); pad < widths[c] + 2; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto put_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      os << cell;
      return;
    }
    os << '"';
    for (char ch : cell) {
      if (ch == '"') os << '"';
      os << ch;
    }
    os << '"';
  };
  auto put_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) os << ',';
      put_cell(c < row.size() ? row[c] : "");
    }
    os << '\n';
  };
  put_row(headers_);
  for (const auto& row : rows_) put_row(row);
}

std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

std::string fmt_f(double v, int prec) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string fmt_ms(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fms", sim::to_ms(d));
  return buf;
}

std::string fmt_us(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fus", sim::to_us(d));
  return buf;
}

void banner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

void result_json_fields(obs::JsonWriter& w, const RunResult& r) {
  RunResult::fields(r, [&w](const char* key, const auto& m, Combine,
                            unsigned) {
    w.key(key);
    obs::json_put(w, m);
  });
  w.field("slo_digest", r.slo_digest);
  if (!r.slo.empty()) {
    w.key("slo");
    obs::slo_result_json(w, r.slo);
  }
  w.field("forensics_digest", r.forensics_digest);
  if (!r.forensics.empty()) {
    w.key("forensics");
    obs::forensics_json(w, r.forensics);
  }
  w.field("frontend_digest", r.frontend_digest);
  if (!r.frontend.empty()) {
    w.key("frontend");
    obs::ledger_json(w, r.frontend);
  }
  w.field("cluster_digest", r.cluster_digest);
  if (!r.cluster.empty()) {
    w.key("cluster");
    obs::ledger_json(w, r.cluster);
  }
}

namespace {

void write_result(obs::JsonWriter& w, const RunResult& r) {
  w.begin_object();
  result_json_fields(w, r);
  w.end_object();
}

/// Fetch `key` from `v` into *out, recording a deterministic error
/// otherwise.
template <typename T>
bool read_field(const obs::JsonValue& v, const char* key, T* out,
                std::string* err) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) {
    if (err) *err = std::string("missing field '") + key + "'";
    return false;
  }
  if (!obs::json_get(*f, out)) {
    if (err) *err = std::string("bad type for field '") + key + "'";
    return false;
  }
  return true;
}

}  // namespace

std::string result_json(const RunResult& r) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  write_result(w, r);
  return w.str();
}

std::string sweep_json(const std::vector<RunResult>& rs) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  w.begin_object();
  w.key("results");
  w.begin_array();
  for (const RunResult& r : rs) write_result(w, r);
  w.end_array();
  w.end_object();
  return w.str();
}

bool result_from_value(const obs::JsonValue& v, RunResult* r,
                       std::string* err) {
  if (!v.is_object()) {
    if (err) *err = "result is not a JSON object";
    return false;
  }
  RunResult out;
  bool ok = true;
  RunResult::fields(out, [&](const char* key, auto& m, Combine,
                             unsigned flags) {
    if (!ok || ((flags & kOptional) != 0 && v.find(key) == nullptr)) return;
    ok = read_field(v, key, &m, err);
  });
  if (!ok) return false;
  // The three newer digests are absent in older captures: 0 then.
  const auto optional = [&](const char* key, std::uint64_t* d) {
    return v.find(key) == nullptr || read_field(v, key, d, err);
  };
  if (!read_field(v, "slo_digest", &out.slo_digest, err)) return false;
  if (const obs::JsonValue* slo = v.find("slo")) {
    if (!obs::slo_result_from_value(*slo, &out.slo, err)) return false;
  }
  if (!optional("forensics_digest", &out.forensics_digest)) return false;
  if (const obs::JsonValue* fz = v.find("forensics")) {
    if (!obs::forensics_from_value(*fz, &out.forensics, err)) return false;
  }
  if (!optional("frontend_digest", &out.frontend_digest)) return false;
  const obs::JsonValue* fe = v.find("frontend");
  if (fe && !obs::ledger_from_value(*fe, "frontend", &out.frontend, err)) {
    return false;
  }
  if (!optional("cluster_digest", &out.cluster_digest)) return false;
  const obs::JsonValue* cl = v.find("cluster");
  if (cl && !obs::ledger_from_value(*cl, "cluster", &out.cluster, err)) {
    return false;
  }
  *r = out;
  return true;
}

bool result_from_json(const std::string& json, RunResult* r,
                      std::string* err) {
  obs::JsonReader reader;
  obs::JsonValue v;
  if (!reader.parse(json, &v)) {
    if (err) *err = reader.error();
    return false;
  }
  return result_from_value(v, r, err);
}

SweepConsumer ndjson_consumer(std::ostream& out) {
  return [&out](std::size_t /*i*/, const RunResult& r) {
    out << result_json(r) << '\n';
    out.flush();
  };
}

void print_attribution(std::ostream& os, const obs::AttributionResult& a) {
  if (a.head_truncated_at >= 0) {
    os << "note: trace head truncated at t=" << fmt_ms(a.head_truncated_at)
       << " — windows opened before that are not charged\n";
  }
  Table t({"task", "steal", "lhp", "lwp", "windows", "locks"});
  for (const obs::TaskCharge& c : a.tasks) {
    std::string locks;
    for (const auto& [lock, d] : c.by_lock) {
      if (!locks.empty()) locks += ", ";
      locks += lock + "=" + fmt_ms(d);
    }
    t.add_row({c.label, fmt_ms(c.total), fmt_ms(c.lhp), fmt_ms(c.lwp),
               std::to_string(c.windows), locks});
  }
  t.print(os);
  os << "total steal " << fmt_ms(a.total_steal) << ", charged "
     << fmt_ms(a.charged) << " (" << fmt_f(a.coverage() * 100.0, 1)
     << "%), uncharged " << fmt_ms(a.uncharged) << "\n";
}

std::string attribution_json(const obs::AttributionResult& a) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("total_steal_ns", static_cast<std::int64_t>(a.total_steal));
  w.field("charged_ns", static_cast<std::int64_t>(a.charged));
  w.field("uncharged_ns", static_cast<std::int64_t>(a.uncharged));
  w.field("coverage", a.coverage());
  w.field("head_truncated_at_ns",
          static_cast<std::int64_t>(a.head_truncated_at));
  w.key("tasks");
  w.begin_array();
  for (const obs::TaskCharge& c : a.tasks) {
    w.begin_object();
    w.field("vm", c.vm);
    w.field("task", c.task);
    w.field("label", c.label);
    w.field("steal_ns", static_cast<std::int64_t>(c.total));
    w.field("lhp_ns", static_cast<std::int64_t>(c.lhp));
    w.field("lwp_ns", static_cast<std::int64_t>(c.lwp));
    w.field("windows", c.windows);
    w.key("by_lock");
    w.begin_object();
    for (const auto& [lock, d] : c.by_lock) {
      w.field(lock.c_str(), static_cast<std::int64_t>(d));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace irs::exp
