// Counter structs and their row tables — one way to count per instance.
//
// A counter struct (net::RemoteCounters, svc::EngineCounters, ...) is a plain
// value type with one integer field per event kind.  Beside it sits one row
// table: a CounterRow per field, giving every name that field has in an
// output — its process-global registry mirror, its JSON key and, for the
// ledgers a StatsReport carries, its Prometheus family and HELP text.  Each
// name is written in its row and nowhere else; sums, any(), JSON objects and
// the StatsReport codec loop over the rows.  So adding a counter is one field,
// one row and its bumps.
//
// CounterLedger counts one instance's events: one relaxed atomic cell per
// row, and every bump also adds to the row's registry mirror, so the
// per-instance view (tests, bench/e2e) and the process-wide one (--report)
// are two reads of the same events.  Each field is read atomically on its
// own; nothing reads two fields at one instant.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>

#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"

namespace mg::obs {

/// One counter field of struct T and the names its outputs use (null: the
/// field has no such output).
template <class T, class V = std::uint64_t>
struct CounterRow {
  using Struct = T;
  using Value = V;

  V T::*field;
  const char* mirror = nullptr;  ///< process-global registry counter
  const char* json = nullptr;    ///< key in the struct's JSON object
  const char* prom = nullptr;    ///< Prometheus family in the StatsReport text
  const char* help = nullptr;    ///< its HELP line
};

/// `into += from`, row by row.
template <class T, class V, std::size_t N>
void add_counters(T& into, const T& from, const CounterRow<T, V> (&rows)[N]) {
  for (const auto& row : rows) into.*row.field += from.*row.field;
}

/// True when any row reads non-zero.
template <class T, class V, std::size_t N>
bool any_counter(const T& c, const CounterRow<T, V> (&rows)[N]) {
  for (const auto& row : rows) {
    if (c.*row.field != 0) return true;
  }
  return false;
}

/// Writes one `"key": value` member per row into the open JSON object.
template <class T, class V, std::size_t N>
void counters_json(JsonWriter& w, const T& c, const CounterRow<T, V> (&rows)[N]) {
  for (const auto& row : rows) w.kv(row.json, static_cast<std::uint64_t>(c.*row.field));
}

/// One instance's counters over the row table `Rows`.  Every mirror of the
/// table registers at the first bump of any ledger over it, as a group, so a
/// report lists the same names whichever event came first, zeros included.
template <const auto& Rows>
class CounterLedger {
  using Row = std::remove_cvref_t<decltype(Rows[0])>;
  using T = typename Row::Struct;
  using Member = typename Row::Value T::*;
  static constexpr std::size_t kRows = std::size(Rows);

  static_assert(std::all_of(std::begin(Rows), std::end(Rows),
                            [](const Row& row) { return row.mirror != nullptr; }),
                "every row of a ledger names its registry mirror");

 public:
  /// A field of T, resolved to its row index at compile time; naming a field
  /// that has no row does not compile.
  class Field {
   public:
    consteval Field(Member field) : row_(row_of(field)) {}

   private:
    friend class CounterLedger;
    std::size_t row_;
  };

  /// Adds n to the field's cell and to its registry mirror.
  void bump(Field field, std::uint64_t n = 1) {
    cells_[field.row_].fetch_add(n, std::memory_order_relaxed);
    mirrors()[field.row_]->add(n);
  }

  T snapshot() const {
    T out{};
    for (std::size_t i = 0; i < kRows; ++i) {
      out.*Rows[i].field =
          static_cast<typename Row::Value>(cells_[i].load(std::memory_order_relaxed));
    }
    return out;
  }

 private:
  static consteval std::size_t row_of(Member field) {
    for (std::size_t i = 0; i < kRows; ++i) {
      if (Rows[i].field == field) return i;
    }
    throw "CounterLedger: the field has no row";
  }

  static const std::array<Counter*, kRows>& mirrors() {
    static const std::array<Counter*, kRows> m = [] {
      std::array<Counter*, kRows> out{};
      for (std::size_t i = 0; i < kRows; ++i) out[i] = &registry().counter(Rows[i].mirror);
      return out;
    }();
    return m;
  }

  std::array<std::atomic<std::uint64_t>, kRows> cells_{};
};

}  // namespace mg::obs
