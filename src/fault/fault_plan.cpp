#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/rng.hpp"

namespace mg::fault {

const char* to_string(WorkerFault f) {
  switch (f) {
    case WorkerFault::None: return "none";
    case WorkerFault::Crash: return "crash";
    case WorkerFault::Hang: return "hang";
    case WorkerFault::Corrupt: return "corrupt";
  }
  return "?";
}

std::chrono::milliseconds RetryPolicy::backoff_for(std::size_t attempt) const {
  double ms = static_cast<double>(backoff_initial.count());
  for (std::size_t k = 1; k < attempt; ++k) ms *= backoff_multiplier;
  ms = std::min(ms, static_cast<double>(backoff_cap.count()));
  return std::chrono::milliseconds(static_cast<std::int64_t>(std::llround(ms)));
}

double RetryPolicy::deadline_seconds(double expected_compute_seconds) const {
  return std::max(std::chrono::duration<double>(task_deadline).count(),
                  deadline_cost_factor * expected_compute_seconds);
}

FaultPlanConfig parse_fault_spec(const std::string& spec) {
  FaultPlanConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string pair = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const double value = std::stod(pair.substr(eq + 1));
    if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(value);
    } else if (key == "crash") {
      config.crash = value;
    } else if (key == "hang") {
      config.hang = value;
    } else if (key == "corrupt") {
      config.corrupt = value;
    } else if (key == "host_crash") {
      config.host_crash = value;
    } else if (key == "net_drop") {
      config.net_drop = value;
    } else if (key == "net_slow") {
      config.net_slow = value;
    } else if (key == "net_slow_factor") {
      config.net_slow_factor = value;
    } else if (key == "net_truncate") {
      config.net_truncate = value;
    } else if (key == "net_delay_ms") {
      config.net_delay = std::chrono::milliseconds(static_cast<std::int64_t>(value));
    } else {
      throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    }
  }
  return config;
}

double FaultPlan::roll(std::uint64_t ordinal, std::uint64_t salt) const {
  // Domain-separated SplitMix64 hash -> uniform double in [0, 1).  A pure
  // function of (seed, ordinal, salt): thread interleaving cannot change it.
  support::SplitMix64 mix(config_.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ (ordinal + 1));
  mix.next();
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

WorkerFault FaultPlan::worker_fault(std::uint64_t incarnation) const {
  const double r = roll(incarnation, 1);
  if (r < config_.crash) return WorkerFault::Crash;
  if (r < config_.crash + config_.hang) return WorkerFault::Hang;
  if (r < config_.crash + config_.hang + config_.corrupt) return WorkerFault::Corrupt;
  return WorkerFault::None;
}

bool FaultPlan::host_crashes(std::uint64_t incarnation) const {
  return roll(incarnation, 2) < config_.host_crash;
}

double FaultPlan::host_crash_fraction(std::uint64_t incarnation) const {
  // Strictly inside the compute interval so the attempt always loses work.
  return 0.05 + 0.9 * roll(incarnation, 3);
}

bool FaultPlan::drops_transfer(std::uint64_t ordinal) const {
  return roll(ordinal, 4) < config_.net_drop;
}

double FaultPlan::transfer_slowdown(std::uint64_t ordinal) const {
  return roll(ordinal, 5) < config_.net_slow ? config_.net_slow_factor : 1.0;
}

bool FaultPlan::truncates_transfer(std::uint64_t ordinal) const {
  return roll(ordinal, 6) < config_.net_truncate;
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) {
  obs::add_counters(*this, other, kFaultCounterRows);
  degraded = degraded || other.degraded;
  return *this;
}

bool FaultCounters::any() const { return degraded || obs::any_counter(*this, kFaultCounterRows); }

void fault_counters_to_json(obs::JsonWriter& w, const FaultCounters& c) {
  w.begin_object();
  obs::counters_json(w, c, kFaultCounterRows);
  w.kv("degraded", c.degraded);
  w.end_object();
}

std::optional<std::chrono::milliseconds> LeaseLedger::lost(std::size_t attempt, bool graceful) {
  const std::size_t max_attempts = std::max<std::size_t>(1, policy_.max_attempts);
  if (attempt >= max_attempts || counters_.retries >= policy_.respawn_budget) {
    abandon();
    return std::nullopt;
  }
  counters_.retries += 1;
  return graceful ? std::chrono::milliseconds(0) : policy_.backoff_for(attempt);
}

void LeaseLedger::abandon() {
  counters_.abandoned += 1;
  counters_.degraded = true;
}

}  // namespace mg::fault
