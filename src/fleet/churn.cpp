#include "fleet/churn.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace mg::fleet {

const char* to_string(ChurnEventKind k) {
  switch (k) {
    case ChurnEventKind::Join: return "join";
    case ChurnEventKind::Leave: return "leave";
    case ChurnEventKind::Crash: return "crash";
  }
  return "?";
}

ChurnPlanConfig parse_churn_spec(const std::string& spec) {
  ChurnPlanConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string pair = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("churn spec: expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const double value = std::stod(pair.substr(eq + 1));
    if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(value);
    } else if (key == "joins") {
      config.joins = static_cast<std::size_t>(value);
    } else if (key == "leaves") {
      config.leaves = static_cast<std::size_t>(value);
    } else if (key == "crashes") {
      config.crashes = static_cast<std::size_t>(value);
    } else if (key == "start") {
      config.start_seconds = value;
    } else if (key == "spread") {
      config.spread_seconds = value;
    } else {
      throw std::invalid_argument("churn spec: unknown key '" + key + "'");
    }
  }
  if (config.start_seconds < 0.0 || config.spread_seconds < 0.0) {
    throw std::invalid_argument("churn spec: start/spread must be non-negative");
  }
  return config;
}

namespace {

// Domain-separated SplitMix64 hash -> uniform double in [0, 1).  Same shape
// as FaultPlan::roll, but on a distinct salt domain (kSaltBase is far away
// from the fault salts 1..6) so a shared seed never correlates churn timing
// with fault injection.
constexpr std::uint64_t kSaltBase = 0x666c6565;  // "flee"

double roll(std::uint64_t seed, std::uint64_t ordinal, std::uint64_t salt) {
  support::SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ (ordinal + 1));
  mix.next();
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

}  // namespace

ChurnPlan::ChurnPlan(ChurnPlanConfig config) : config_(config) {
  events_.reserve(config_.joins + config_.leaves + config_.crashes);
  std::uint64_t ordinal = 0;
  const auto schedule = [&](std::size_t count, ChurnEventKind kind) {
    for (std::size_t i = 0; i < count; ++i) {
      ChurnEvent e;
      e.kind = kind;
      e.at_seconds = config_.start_seconds +
                     config_.spread_seconds * roll(config_.seed, ordinal++, kSaltBase);
      events_.push_back(e);
    }
  };
  schedule(config_.joins, ChurnEventKind::Join);
  schedule(config_.leaves, ChurnEventKind::Leave);
  schedule(config_.crashes, ChurnEventKind::Crash);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
}

FleetCounters& FleetCounters::operator+=(const FleetCounters& other) {
  joins += other.joins;
  leaves += other.leaves;
  crashes += other.crashes;
  duplicates += other.duplicates;
  return *this;
}

bool FleetCounters::any() const {
  return joins || leaves || crashes || duplicates;
}

void fleet_counters_to_json(obs::JsonWriter& w, const FleetCounters& c) {
  w.begin_object();
  w.kv("joins", static_cast<std::uint64_t>(c.joins));
  w.kv("leaves", static_cast<std::uint64_t>(c.leaves));
  w.kv("crashes", static_cast<std::uint64_t>(c.crashes));
  w.kv("duplicates", static_cast<std::uint64_t>(c.duplicates));
  w.end_object();
}

void add_fleet_metrics(const FleetCounters& c) {
  struct FleetMetrics {
    obs::Counter& joins;
    obs::Counter& leaves;
    obs::Counter& crashes;
    obs::Counter& duplicates;
  };
  static FleetMetrics m{
      obs::registry().counter("fleet.joins"),   obs::registry().counter("fleet.leaves"),
      obs::registry().counter("fleet.crashes"), obs::registry().counter("fleet.duplicates"),
  };
  if (c.joins) m.joins.add(c.joins);
  if (c.leaves) m.leaves.add(c.leaves);
  if (c.crashes) m.crashes.add(c.crashes);
  if (c.duplicates) m.duplicates.add(c.duplicates);
}

}  // namespace mg::fleet
