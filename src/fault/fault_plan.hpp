// Deterministic fault injection and the shared retry policy.
//
// The paper's ProtocolMW counts death_worker events at the rendezvous (§4)
// but treats every death as a normal completion — a crashed or hung worker
// silently loses its grid and deadlocks the run.  FaultPlan is the seeded
// adversary both execution paths share: the threaded IWIM runtime injects
// worker crashes, hangs, and result corruption into real `iwim::Process`
// workers, and the virtual-time ClusterSim injects host crashes and network
// drops/slowdowns — all as pure functions of (seed, incarnation), so every
// faulty run is reproducible from its seed.
//
// RetryPolicy is the one recovery contract mirrored by both paths: a
// per-task deadline (wall-clock for the threaded runtime, cost-model-derived
// for the simulator), capped exponential backoff between re-dispatches, a
// per-unit attempt cap, and a shared respawn budget after which the owner
// degrades gracefully instead of hanging.  LeaseLedger applies it: every
// site that can lose a dispatched unit asks one ledger what to do next.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace mg::obs {
class JsonWriter;
}

namespace mg::fault {

/// What happens to one worker incarnation (one spawned worker process, or
/// one simulated compute attempt).
enum class WorkerFault {
  None,     ///< completes normally
  Crash,    ///< dies after reading its work, without producing a result
  Hang,     ///< blocks forever after reading its work (until killed)
  Corrupt,  ///< computes, but the result fails its integrity check and is
            ///< discarded at the transport boundary (surfaces as a crash)
};

const char* to_string(WorkerFault f);

/// Recovery contract shared by the threaded protocol and the simulator.
struct RetryPolicy {
  /// Per-task wall-clock deadline after dispatch; 0 disables timeouts.  The
  /// simulator additionally derives a lower bound from the cost model (see
  /// `deadline_cost_factor`), so slow-but-alive workers are not killed.
  std::chrono::milliseconds task_deadline{0};
  /// Simulator: deadline >= factor * expected compute time for the grid.
  double deadline_cost_factor = 4.0;
  /// Dispatch attempts per work unit, including the first (0 acts as 1).
  std::size_t max_attempts = 3;
  /// Cap on re-dispatches shared by every unit of one ledger (one worker pool,
  /// one service job, one simulated run); once spent, further lost work is
  /// abandoned and its owner degrades instead of hanging.
  std::size_t respawn_budget = static_cast<std::size_t>(-1);
  std::chrono::milliseconds backoff_initial{10};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds backoff_cap{1000};

  /// Capped exponential backoff before re-dispatch number `attempt` (the
  /// first retry is attempt 1).
  std::chrono::milliseconds backoff_for(std::size_t attempt) const;

  /// Simulator: seconds after dispatch at which a silent loss is detected —
  /// `deadline_cost_factor` x the expected compute, floored by
  /// `task_deadline`, so slow-but-alive hosts are never declared lost.
  double deadline_seconds(double expected_compute_seconds) const;
};

/// Injection probabilities; all default to "no faults".
struct FaultPlanConfig {
  std::uint64_t seed = 2004;
  // Threaded-runtime worker faults (per incarnation, mutually exclusive).
  double crash = 0.0;
  double hang = 0.0;
  double corrupt = 0.0;
  // Simulator faults; net_drop/net_slow double as TCP frame faults (the real
  // transport drops or delays the master's Work frame for faulted ordinals).
  double host_crash = 0.0;   ///< host dies mid-compute (per attempt)
  double net_drop = 0.0;     ///< transfer lost, must be retransmitted
  double net_slow = 0.0;     ///< transfer degraded by `net_slow_factor`
  double net_slow_factor = 3.0;
  // TCP-transport-only fault: the frame is cut short mid-send and the
  // connection closed, exercising the receiver's CRC/truncation detection.
  double net_truncate = 0.0;
  /// Real-transport delay applied to a slowed (net_slow) transfer.
  std::chrono::milliseconds net_delay{50};

  bool any() const {
    return crash > 0 || hang > 0 || corrupt > 0 || host_crash > 0 || net_drop > 0 ||
           net_slow > 0 || net_truncate > 0;
  }
};

/// Parses a `--faults=` spec: comma-separated key=value pairs, e.g.
/// "seed=7,crash=0.25,hang=0.1,corrupt=0.05,host_crash=0.2,net_drop=0.1".
/// Unknown keys throw std::invalid_argument.
FaultPlanConfig parse_fault_spec(const std::string& spec);

/// The seeded adversary.  Every decision is a pure function of the seed and
/// an incarnation/transfer ordinal — independent of thread interleaving —
/// so the *set* of injected faults is identical across runs of one seed.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config) : config_(config) {}

  const FaultPlanConfig& config() const { return config_; }

  /// Fault (if any) injected into worker incarnation `incarnation`.
  WorkerFault worker_fault(std::uint64_t incarnation) const;

  /// Simulator: does the host executing attempt `incarnation` crash?
  bool host_crashes(std::uint64_t incarnation) const;
  /// Fraction of the compute interval elapsed when the host dies, in (0, 1).
  double host_crash_fraction(std::uint64_t incarnation) const;

  /// Simulator: is network transfer `ordinal` dropped / slowed?
  bool drops_transfer(std::uint64_t ordinal) const;
  double transfer_slowdown(std::uint64_t ordinal) const;

  /// TCP transport: is frame transfer `ordinal` truncated mid-send?
  bool truncates_transfer(std::uint64_t ordinal) const;

 private:
  double roll(std::uint64_t ordinal, std::uint64_t salt) const;

  FaultPlanConfig config_;
};

/// What the fault-tolerance layer did during one run — filled by the
/// threaded protocol and by the simulator, and emitted as the `faults`
/// section of `--report=` JSON.
struct FaultCounters {
  // Injection side (what the plan did).
  std::size_t crashes_injected = 0;
  std::size_t hangs_injected = 0;
  std::size_t corruptions_injected = 0;
  std::size_t host_crashes_injected = 0;
  std::size_t net_drops_injected = 0;
  std::size_t net_slowdowns_injected = 0;
  // Recovery side (what the protocol did about it).
  std::size_t crash_events = 0;     ///< crash_worker occurrences handled
  std::size_t timeouts = 0;         ///< per-task deadlines expired (kills)
  std::size_t retries = 0;          ///< work units re-enqueued
  std::size_t abandoned = 0;        ///< slots given up on (degradation)
  bool degraded = false;            ///< pool finished smaller than requested

  FaultCounters& operator+=(const FaultCounters& other);
  bool any() const;
};

/// Serialises the counters as one JSON object value (append after a key()).
void fault_counters_to_json(obs::JsonWriter& w, const FaultCounters& c);

/// The one lost-lease rule.  A lease is one dispatch of a work unit to one
/// worker.  When a lease is lost, its owner — the worker pool, a service job, a
/// simulated run; one ledger each — asks the ledger whether the unit goes
/// out again and after how long.  The ledger owns the attempt cap, the
/// shared respawn budget, the backoff schedule and the recovery counters.
/// It has no clock and no per-unit table: each owner keeps its units'
/// attempt counts, detects losses its own way, and adds the wait to its own
/// clock.  Not thread-safe; the owner serialises calls.
class LeaseLedger {
 public:
  explicit LeaseLedger(RetryPolicy policy) : policy_(policy) {}

  /// Dispatch `attempt` (1 = the first) of one unit was lost.  Returns the
  /// wait before the unit goes out again (zero after a graceful leave), or
  /// nullopt: the unit is abandoned and its owner computes it locally.
  std::optional<std::chrono::milliseconds> lost(std::size_t attempt, bool graceful);
  /// Abandons a unit that cannot go out again (no copy of it survived).
  void abandon();
  /// The recovery counters: retries, abandoned, degraded.
  const FaultCounters& counters() const { return counters_; }

 private:
  RetryPolicy policy_;
  FaultCounters counters_;
};

}  // namespace mg::fault
