// Elastic-fleet churn plans and the shared fleet accounting.
//
// The paper's headline demo is the "ebb & flow" of machines joining and
// leaving a perpetual solve (MLINK `perpetual`/`load`, CONFIG host mapping).
// ChurnPlan is the seeded spot-instance adversary all three substrates
// share: a deterministic schedule of Join / Leave / Crash events over the
// run, generated as a pure function of the seed so a churned run is
// reproducible bit-for-bit.  The substrates interpret the events with their
// own clocks — wall time for the threaded pool and the TCP endpoint,
// virtual time for the cluster simulator — but the *sequence* of events is
// identical for one seed.
//
// FleetCounters is the one accounting contract: joins/leaves/crashes record
// fleet membership changes, and duplicates count late or repeated Results
// the TCP endpoint dropped by retired-seq dedup.  A unit a leave or crash
// took away is re-leased by its owner's fault::LeaseLedger and counted as a
// fault-ledger retry.  The invariant carried over from the fault layer:
// however much the fleet churns, every work unit is *combined* exactly
// once, so results stay bit-identical to the sequential fault-free solve
// and telemetry never double-counts a unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mg::obs {
class JsonWriter;
}

namespace mg::fleet {

/// One fleet membership change, scheduled relative to the start of the run.
enum class ChurnEventKind {
  Join,   ///< a new worker/host enters the lease set
  Leave,  ///< a worker departs gracefully (its lease is re-queued at once)
  Crash,  ///< a worker dies abruptly (detected, then re-leased with backoff)
};

const char* to_string(ChurnEventKind k);

struct ChurnEvent {
  double at_seconds = 0.0;  ///< offset from run start (wall or virtual time)
  ChurnEventKind kind = ChurnEventKind::Join;
};

/// Shape of the churn schedule; all defaults mean "no churn".
struct ChurnPlanConfig {
  std::uint64_t seed = 2004;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t crashes = 0;
  /// Events land in [start_seconds, start_seconds + spread_seconds); the
  /// exact offsets are seeded so one seed always yields one schedule.
  double start_seconds = 0.0;
  double spread_seconds = 1.0;

  bool any() const { return joins + leaves + crashes > 0; }
};

/// Parses a `--churn=` spec: comma-separated key=value pairs, e.g.
/// "seed=7,joins=2,leaves=1,crashes=1,start=0.05,spread=0.4".
/// Unknown keys throw std::invalid_argument.
ChurnPlanConfig parse_churn_spec(const std::string& spec);

/// The seeded churn schedule.  Event times are a pure function of
/// (seed, event ordinal) — domain-separated from FaultPlan's salts — and the
/// event list is sorted by time with a deterministic tie-break, so every
/// consumer sees the same sequence.
class ChurnPlan {
 public:
  ChurnPlan() = default;
  explicit ChurnPlan(ChurnPlanConfig config);

  const ChurnPlanConfig& config() const { return config_; }
  /// Sorted ascending by at_seconds (ties broken by generation order).
  const std::vector<ChurnEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  ChurnPlanConfig config_;
  std::vector<ChurnEvent> events_;
};

/// What the elastic fleet did during one run — filled by the threaded pool,
/// the simulator, and the TCP endpoint, surfaced as `fleet.*` obs counters
/// and the `fleet` section of service stats.
struct FleetCounters {
  std::size_t joins = 0;       ///< workers accepted into the lease set
  std::size_t leaves = 0;      ///< graceful departures
  std::size_t crashes = 0;     ///< abrupt deaths handled
  std::size_t duplicates = 0;  ///< late or repeated Results dropped by dedup

  FleetCounters& operator+=(const FleetCounters& other);
  bool any() const;
};

/// Serialises the counters as one JSON object value (append after a key()).
void fleet_counters_to_json(obs::JsonWriter& w, const FleetCounters& c);

/// Mirrors the counters into the process-global obs registry as
/// fleet.joins / fleet.leaves / fleet.crashes / fleet.duplicates
/// (monotonic adds).
void add_fleet_metrics(const FleetCounters& c);

}  // namespace mg::fleet
