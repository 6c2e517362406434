// Result ledgers: one field list per record drives its digest, its sweep
// fold and its JSON form.
//
// A ledger is a plain struct of exact integers that declares its fields
// once, in JSON key order:
//
//   template <class Self, class V>
//   static void fields(Self& s, V&& v) {
//     v("items", s.items, Fold::kSum);
//     v("peak", s.peak, Fold::kMax);
//     v("rows", s.rows, Fold::kSum);  // std::vector of a row ledger
//   }
//
// `Self` is the struct or its const form, so one list serves readers and
// writers. A member is an integer scalar or one level of positional rows:
// a std::vector whose element type declares its own fields(). Rows
// serialize as arrays of values in the row's field order. The generic
// functions below walk the list; ledger_digest reserves 0 for the
// all-default ledger, and folding the all-default ledger is a no-op.
//
// The FNV-1a primitives here are the simulator's only copy; the SLO,
// forensics and sampler digests use them too.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/json_reader.h"

namespace irs::obs {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `n` raw bytes.
inline void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// FNV-1a over one 64-bit word, least significant byte first.
inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// FNV-1a over a length-prefixed string.
inline void fnv_str(std::uint64_t& h, const std::string& s) {
  fnv(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

/// How a field folds across sweep runs: kSum adds exactly, kMax keeps the
/// larger value. Both are order- and grouping-independent. A row vector
/// grows to the longer side and folds row by row through the row's list.
enum class Fold { kSum, kMax };

/// Write one scalar: unsigned integers as uint64, signed as int64, bool
/// and double as themselves.
template <class T>
void json_put(JsonWriter& w, const T& x) {
  if constexpr (std::same_as<T, bool> || std::floating_point<T>) {
    w.value(x);
  } else if constexpr (std::unsigned_integral<T>) {
    w.value(static_cast<std::uint64_t>(x));
  } else {
    w.value(static_cast<std::int64_t>(x));
  }
}

/// Read one scalar written by json_put; false on a wrong kind or a value
/// outside T's range.
template <class T>
bool json_get(const JsonValue& v, T* out) {
  if constexpr (std::same_as<T, bool> || std::floating_point<T>) {
    return v.get(out);
  } else {
    std::conditional_t<std::unsigned_integral<T>, std::uint64_t, std::int64_t>
        x = 0;
    if (!v.get(&x) || !std::in_range<T>(x)) return false;
    *out = static_cast<T>(x);
    return true;
  }
}

/// Number of fields() entries of L.
template <class L>
std::size_t field_count() {
  std::size_t n = 0;
  const L l{};
  L::fields(l, [&n](const char*, const auto&, auto...) { ++n; });
  return n;
}

/// Walk two records of one type in lockstep: f(index, acc_member,
/// r_member, entry tags...) for every fields() entry.
template <class L, class F>
void zip_fields(L& acc, const L& r, F&& f) {
  std::vector<const void*> src;
  L::fields(r, [&src](const char*, const auto& m, auto...) {
    src.push_back(&m);
  });
  std::size_t i = 0;
  L::fields(acc, [&](const char*, auto& a, auto... tags) {
    using T = std::remove_reference_t<decltype(a)>;
    f(i, a, *static_cast<const T*>(src[i]), tags...);
    ++i;
  });
}

namespace detail {

template <class L>
void digest_fields(std::uint64_t& h, const L& l) {
  L::fields(l, [&h](const char*, const auto& m, Fold) {
    if constexpr (std::ranges::range<decltype(m)>) {
      fnv(h, m.size());
      for (const auto& row : m) digest_fields(h, row);
    } else {
      fnv(h, static_cast<std::uint64_t>(m));
    }
  });
}

template <class L>
void fold_fields(L& acc, const L& r) {
  zip_fields(acc, r, [](std::size_t, auto& a, const auto& b, Fold f) {
    if constexpr (std::ranges::range<decltype(a)>) {
      if (a.size() < b.size()) a.resize(b.size());
      for (std::size_t i = 0; i < b.size(); ++i) fold_fields(a[i], b[i]);
    } else {
      a = f == Fold::kMax ? std::max(a, b) : a + b;
    }
  });
}

}  // namespace detail

template <class L>
std::uint64_t ledger_digest(const L& l) {
  if (l == L{}) return 0;
  std::uint64_t h = kFnvOffset;
  detail::digest_fields(h, l);
  return h;
}

template <class L>
void ledger_fold(L& acc, const L& r) {
  if (r != L{}) detail::fold_fields(acc, r);
}

/// One JSON object on an open writer, keys in list order.
template <class L>
void ledger_json(JsonWriter& w, const L& l) {
  w.begin_object();
  L::fields(l, [&w](const char* key, const auto& m, Fold) {
    w.key(key);
    if constexpr (std::ranges::range<decltype(m)>) {
      w.begin_array();
      for (const auto& row : m) {
        w.begin_array();
        row.fields(row, [&w](const char*, const auto& x, Fold) {
          json_put(w, x);
        });
        w.end_array();
      }
      w.end_array();
    } else {
      json_put(w, m);
    }
  });
  w.end_object();
}

/// Inverse of ledger_json: every key is required and every integer must
/// fit its field. Errors start with `name` and name the field.
template <class L>
bool ledger_from_value(const JsonValue& v, const char* name, L* out,
                       std::string* err) {
  const std::string pre = name;
  std::string bad = v.is_object() ? "" : pre + " is not a JSON object";
  L l;
  L::fields(l, [&](const char* key, auto& m, Fold) {
    if (!bad.empty()) return;
    const JsonValue* f = v.find(key);
    bool good = f != nullptr;
    if constexpr (std::ranges::range<decltype(m)>) {
      using Row = typename std::remove_cvref_t<decltype(m)>::value_type;
      const std::size_t width = field_count<Row>();
      good = good && f->is_array();
      for (std::size_t r = 0; good && bad.empty() && r < f->items.size();
           ++r) {
        const JsonValue& rv = f->items[r];
        if (!rv.is_array() || rv.items.size() != width) {
          bad = pre + ": '" + key + "' rows are " + std::to_string(width) +
                "-element arrays";
          return;
        }
        std::size_t i = 0;
        Row::fields(m.emplace_back(), [&](const char* col, auto& x, Fold) {
          if (bad.empty() && !json_get(rv.items[i++], &x)) {
            bad = pre + ": bad '" + col + "' in a '" + key + "' row";
          }
        });
      }
    } else {
      good = good && json_get(*f, &m);
    }
    if (!good) bad = pre + ": missing or bad '" + key + "'";
  });
  if (!bad.empty()) {
    if (err != nullptr) *err = bad;
    return false;
  }
  *out = std::move(l);
  return true;
}

}  // namespace irs::obs
