#include "core/protocol.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "manifold/state_scope.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mg::mw {

namespace {
struct ProtocolMetrics {
  obs::Counter& pools_created = obs::registry().counter("mw.pools_created");
  obs::Counter& workers_created = obs::registry().counter("mw.workers_created");
  /// Workers created per pool (distribution over pools).
  obs::Histogram& pool_workers = obs::registry().histogram(
      "mw.pool_worker_count", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  /// Total time a pool's coordinator spent waiting at the rendezvous.
  obs::Histogram& rendezvous_wait =
      obs::registry().histogram("mw.rendezvous_wait_seconds");
  /// Latency of counting one death_worker event at the rendezvous.
  obs::Histogram& death_count_latency =
      obs::registry().histogram("mw.death_worker_count_latency_seconds");
};

ProtocolMetrics& protocol_metrics() {
  static ProtocolMetrics m;
  return m;
}

/// Registered on the first fault, so a fault-free run reports no
/// `mw.fault.*` names.
struct FaultMetrics {
  obs::Counter& crash_events = obs::registry().counter("mw.fault.crash_events");
  obs::Counter& timeouts = obs::registry().counter("mw.fault.timeouts");
  obs::Counter& retries = obs::registry().counter("mw.fault.retries");
  obs::Counter& respawns = obs::registry().counter("mw.fault.respawns");
  obs::Counter& abandoned = obs::registry().counter("mw.fault.slots_abandoned");
  /// Dispatches a slot consumed before resolving, for each slot that lost a
  /// lease (1 = abandoned without a retry).
  obs::Histogram& attempts_per_slot =
      obs::registry().histogram("mw.fault.attempts_per_slot", {1, 2, 3, 4, 6, 8, 12});
  obs::Histogram& backoff_seconds = obs::registry().histogram("mw.fault.backoff_seconds");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics m;
  return m;
}

/// Records a `fault`-category span on the global tracer (fault events show
/// up as their own lane in the Chrome trace).
void fault_span(const std::string& name, double start, double end) {
  obs::SpanTracer& t = obs::tracer();
  if (t.enabled()) t.record({name, "fault", "mw.fault", start, end});
}
}  // namespace

using iwim::EventMatcher;
using iwim::EventOccurrence;
using iwim::ProcessRef;
using iwim::StateScope;
using iwim::StreamType;
using iwim::Unit;

namespace {

using Clock = std::chrono::steady_clock;

/// One worker "slot" of the pool: a position created by one master
/// create_worker request, surviving crashes of the worker incarnations that
/// serve it.
struct Slot {
  enum class State { Running, AwaitingRespawn, Done, Abandoned };

  std::shared_ptr<iwim::Process> worker;
  iwim::Stream* result_stream = nullptr;  ///< worker.output -> master.dataport (KK)
  Unit work;                              ///< replayable copy from the tap
  bool work_captured = false;
  std::size_t attempts = 1;               ///< dispatches so far (first spawn = 1)
  State state = State::Running;
  bool has_deadline = false;
  Clock::time_point deadline{};
  Clock::time_point respawn_due{};
  double backoff_started = 0.0;           ///< tracer clock, for the fault span
};

bool resolved(const Slot& s) {
  return s.state == Slot::State::Done || s.state == Slot::State::Abandoned;
}

}  // namespace

PoolStats create_worker_pool(iwim::ProcessContext& coordinator, iwim::Process& master,
                             const WorkerFactory& factory, std::size_t& worker_counter,
                             const fault::RetryPolicy& retry, const fleet::ChurnPlan& churn) {
  iwim::Runtime& runtime = coordinator.runtime();
  PoolStats stats;

  // Lines 18-19 (`now`, `t`): slots.size() counts the created workers, and
  // the resolved slots the deaths counted.
  std::vector<Slot> slots;
  std::map<std::uint64_t, std::size_t> slot_by_worker;  // live incarnation id -> slot
  fault::LeaseLedger ledger(retry);
  std::size_t tap_assigned = 0;  // tap units handed to slots so far

  // The replay tap: master.output additionally feeds the coordinator's own
  // input port.  Attached before any worker stream, so the copy is pushed
  // before the worker can even read the original (Port::write replicates in
  // attachment order) — a faulted worker's unit is always replayable.
  iwim::Port& tap = coordinator.self().port("input");
  iwim::Stream& tap_stream = runtime.connect(master.port("output"), tap, StreamType::BK);

  auto drain_tap = [&] {
    while (tap_assigned < slots.size()) {
      std::optional<Unit> u = tap.try_read();
      if (!u) break;
      slots[tap_assigned].work = std::move(*u);
      slots[tap_assigned].work_captured = true;
      ++tap_assigned;
    }
  };

  auto abandon = [&](std::size_t idx) {
    Slot& s = slots[idx];
    s.state = Slot::State::Abandoned;
    fault_metrics().abandoned.add();
    fault_metrics().attempts_per_slot.observe(static_cast<double>(s.attempts));
    coordinator.trace("slot " + std::to_string(idx) + " abandoned after " +
                          std::to_string(s.attempts) + " attempt(s)",
                      "protocol.cpp", __LINE__);
    // Keep the master's collect count intact: it receives an abandonment
    // marker in place of the result and may fall back to local compute.
    runtime.send(master.port("dataport"), Unit::of(WorkAbandoned{idx, s.attempts}));
  };

  // A slot's incarnation failed (crashed, left, or was killed at its
  // deadline): the ledger says when to respawn it, or that it degrades.
  auto fail_slot = [&](std::size_t idx, bool timed_out, bool graceful) {
    Slot& s = slots[idx];
    FaultMetrics& fm = fault_metrics();
    const double now_t = obs::tracer().clock_now();
    if (timed_out) {
      stats.faults.timeouts += 1;
      fm.timeouts.add();
      // Cancellable kill: wake the hung incarnation out of any blocked
      // read/await; break its result stream so a late straggler result
      // cannot double-deliver into the dataport.
      s.worker->kill();
      fault_span("timeout:slot" + std::to_string(idx), now_t, now_t);
    } else {
      stats.faults.crash_events += 1;
      fm.crash_events.add();
      fault_span("crash:slot" + std::to_string(idx), now_t, now_t);
    }
    if (s.result_stream != nullptr) runtime.disconnect_source(*s.result_stream);
    slot_by_worker.erase(s.worker->id());
    drain_tap();
    std::optional<std::chrono::milliseconds> backoff;
    if (s.work_captured) {
      backoff = ledger.lost(s.attempts, graceful);
    } else {
      ledger.abandon();  // nothing to replay
    }
    if (!backoff) {
      abandon(idx);
      return;
    }
    s.state = Slot::State::AwaitingRespawn;
    s.respawn_due = Clock::now() + *backoff;
    s.backoff_started = now_t;
    fm.retries.add();
    fm.backoff_seconds.observe(static_cast<double>(backoff->count()) / 1e3);
    coordinator.trace("slot " + std::to_string(idx) + " lost its worker (" +
                          (timed_out ? "timeout" : "crash") + "); retry in " +
                          std::to_string(backoff->count()) + " ms",
                      "protocol.cpp", __LINE__);
  };

  auto respawn = [&](std::size_t idx) {
    Slot& s = slots[idx];
    const std::size_t incarnation = worker_counter++;
    std::shared_ptr<iwim::Process> worker = factory(runtime, incarnation);
    MG_REQUIRE_MSG(worker != nullptr, "WorkerFactory returned null");
    s.worker = worker;
    s.attempts += 1;
    s.state = Slot::State::Running;
    if (retry.task_deadline.count() > 0) {
      s.has_deadline = true;
      s.deadline = Clock::now() + retry.task_deadline;
    }
    fault_metrics().respawns.add();
    // The replacement gets the saved work unit straight from the
    // coordinator; only the KK result stream needs wiring.
    s.result_stream = &runtime.connect(worker->port("output"), master.port("dataport"),
                                       StreamType::KK);
    runtime.send(worker->port("input"), s.work);
    worker->activate();
    slot_by_worker[worker->id()] = idx;
    fault_span("respawn:slot" + std::to_string(idx), s.backoff_started,
               obs::tracer().clock_now());
    coordinator.trace("slot " + std::to_string(idx) + " respawned (attempt " +
                          std::to_string(s.attempts) + ")",
                      "protocol.cpp", __LINE__);
  };

  // Spot-instance churn: the seeded plan's Leave/Crash events pick a running
  // slot, kill its incarnation, and hand the lost unit to the ledger — a
  // graceful Leave re-leases immediately (no backoff), a Crash pays the
  // crash-detection backoff.  Joins are recorded: the threads pool cannot
  // grow past the master's create_worker requests, so respawned
  // incarnations are this substrate's joiners.
  const Clock::time_point churn_epoch = Clock::now();
  std::size_t churn_next = 0;

  auto churn_due_at = [&](std::size_t i) {
    return churn_epoch + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(churn.events()[i].at_seconds));
  };

  auto apply_churn = [&](const fleet::ChurnEvent& event) {
    if (event.kind == fleet::ChurnEventKind::Join) {
      stats.fleet.joins += 1;
      coordinator.trace("churn: join recorded", "protocol.cpp", __LINE__);
      return;
    }
    // Deterministic victim: the lowest-index running slot (each slot holds
    // exactly one unit, so "most-loaded" is a tie broken by creation order).
    std::size_t idx = slots.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].state == Slot::State::Running) {
        idx = i;
        break;
      }
    }
    if (idx == slots.size()) return;  // nobody left to take away
    const bool graceful = event.kind == fleet::ChurnEventKind::Leave;
    if (graceful) {
      stats.fleet.leaves += 1;
    } else {
      stats.fleet.crashes += 1;
    }
    coordinator.trace("churn: slot " + std::to_string(idx) +
                          (graceful ? " worker left" : " worker crashed"),
                      "protocol.cpp", __LINE__);
    slots[idx].worker->kill();
    fail_slot(idx, /*timed_out=*/false, graceful);
  };

  // Next timer to service: the earliest live deadline, due respawn, or
  // scheduled churn event.
  auto next_wake = [&]() -> std::optional<Clock::time_point> {
    std::optional<Clock::time_point> wake;
    for (const Slot& s : slots) {
      if (s.state == Slot::State::Running && s.has_deadline) {
        if (!wake || s.deadline < *wake) wake = s.deadline;
      } else if (s.state == Slot::State::AwaitingRespawn) {
        if (!wake || s.respawn_due < *wake) wake = s.respawn_due;
      }
    }
    if (churn_next < churn.events().size()) {
      const auto due = churn_due_at(churn_next);
      if (!wake || due < *wake) wake = due;
    }
    return wake;
  };

  auto service_timers = [&] {
    const auto now = Clock::now();
    while (churn_next < churn.events().size() && churn_due_at(churn_next) <= now) {
      apply_churn(churn.events()[churn_next]);
      ++churn_next;
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].state == Slot::State::Running && slots[i].has_deadline &&
          slots[i].deadline <= now) {
        fail_slot(i, /*timed_out=*/true, /*graceful=*/false);
      }
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].state == Slot::State::AwaitingRespawn && slots[i].respawn_due <= now) {
        respawn(i);
      }
    }
  };

  // The streams of the current create_worker state; replaced (dismantled) on
  // the next pre-empting event.  Only the BK work stream is state-scoped;
  // the KK result stream is slot-owned (it must survive, and may need to be
  // broken individually when its worker is killed).
  std::optional<StateScope> state_streams;

  // Lines 39-47, the rendezvous state: once the master asks for it, the
  // pool drains until every slot has resolved.
  bool rendezvous_requested = false;
  std::optional<obs::ScopedSpan> rendezvous_span;
  support::Stopwatch rendezvous_clock;
  support::Stopwatch death_clock;

  // Line 23: `priority create_worker > rendezvous.` — matcher order below.
  const std::vector<EventMatcher> begin_labels = {
      {ProtocolEvents::create_worker, master.id()},
      {ProtocolEvents::rendezvous, master.id()},
      {ProtocolEvents::crash_worker, std::nullopt},
      {ProtocolEvents::death_worker, std::nullopt},
      {iwim::kTerminatedEvent, master.id()},
  };
  const std::vector<EventMatcher> drain_labels = {
      {ProtocolEvents::crash_worker, std::nullopt},
      {ProtocolEvents::death_worker, std::nullopt},
      {iwim::kTerminatedEvent, master.id()},
  };

  coordinator.trace("begin", "protocol.cpp", __LINE__);  // line 25: MES("begin")
  for (;;) {
    service_timers();
    if (rendezvous_requested &&
        std::all_of(slots.begin(), slots.end(), [](const Slot& s) { return resolved(s); })) {
      break;
    }

    const auto& labels = rendezvous_requested ? drain_labels : begin_labels;
    std::optional<EventOccurrence> occurrence;
    if (const auto wake = next_wake()) {
      const auto now = Clock::now();
      // Ceil, not truncate: rounding the wait down wakes the coordinator a
      // fraction of a millisecond before the timer is due, and the re-check
      // finds nothing to service — a busy-spin until the timer really fires.
      const auto until = *wake > now
                             ? std::chrono::ceil<std::chrono::milliseconds>(*wake - now)
                             : std::chrono::milliseconds(0);
      occurrence = coordinator.await_for(labels, std::max(until, std::chrono::milliseconds(1)));
      if (!occurrence) continue;  // timer tick: loop services deadlines/respawns
    } else {
      // Line 25: the begin state IDLEs until a labelled event pre-empts it.
      occurrence = coordinator.await(labels);
    }
    // NOTE: only the protocol states (create_worker / rendezvous /
    // termination) dismantle the previous state's streams.  A crash or death
    // arriving between the worker-reference send and the master's send_work
    // must NOT break the freshly wired work stream — with the tap attached,
    // the master's output port always has a stream, so a dismantled work
    // stream would swallow the unit instead of letting it pend.

    if (occurrence->event == ProtocolEvents::create_worker) {
      // Lines 27-37: the create_worker state, plus slot supervision.
      state_streams.reset();  // pre-emption dismantles the previous state's streams
      coordinator.trace("create_worker: begin", "protocol.cpp", __LINE__);  // line 35
      const std::size_t incarnation = worker_counter++;
      std::shared_ptr<iwim::Process> worker = factory(runtime, incarnation);  // line 30
      MG_REQUIRE_MSG(worker != nullptr, "WorkerFactory returned null");

      Slot slot;
      slot.worker = worker;
      if (retry.task_deadline.count() > 0) {
        slot.has_deadline = true;
        slot.deadline = Clock::now() + retry.task_deadline;
      }
      // Line 32: worker.output -> master.dataport, type KK (slot-owned).
      slot.result_stream =
          &runtime.connect(worker->port("output"), master.port("dataport"), StreamType::KK);
      state_streams.emplace(runtime);
      // Line 36 second `->`: master.output -> worker.input (default BK).
      state_streams->connect(master.port("output"), worker->port("input"), StreamType::BK);
      // Line 36 first `->`: the worker reference `&worker` flows to master.
      runtime.send(master.port("input"), Unit::of(ProcessRef{worker}));
      slot_by_worker[worker->id()] = slots.size();
      slots.push_back(std::move(slot));  // line 34: `now = now + 1`
      protocol_metrics().workers_created.add();
    } else if (occurrence->event == ProtocolEvents::rendezvous) {
      state_streams.reset();
      rendezvous_requested = true;
      rendezvous_span.emplace(&obs::tracer(), "rendezvous", "mw",
                              coordinator.self().kind().c_str());
      rendezvous_clock.reset();
      death_clock.reset();
    } else if (occurrence->event == ProtocolEvents::crash_worker) {
      const auto it = slot_by_worker.find(occurrence->source);
      // Unknown sources are stale: a crash from a worker this pool already
      // resolved (or another pool's) must not corrupt the accounting.
      if (it != slot_by_worker.end() && slots[it->second].state == Slot::State::Running) {
        fail_slot(it->second, /*timed_out=*/false, /*graceful=*/false);
      }
    } else if (occurrence->event == ProtocolEvents::death_worker) {
      const auto it = slot_by_worker.find(occurrence->source);
      if (it != slot_by_worker.end() && slots[it->second].state == Slot::State::Running) {
        Slot& s = slots[it->second];
        s.state = Slot::State::Done;  // line 42: `t = t + 1`
        if (s.attempts > 1) {
          fault_metrics().attempts_per_slot.observe(static_cast<double>(s.attempts));
        }
        slot_by_worker.erase(it);
        // A death counted before the rendezvous cost it no wait.
        protocol_metrics().death_count_latency.observe(
            rendezvous_requested ? death_clock.elapsed_seconds() : 0.0);
        death_clock.reset();
      }
    } else {
      // The master terminated mid-pool: nobody is left to acknowledge the
      // rendezvous.  Kill what still runs and abort instead of waiting for
      // deaths forever.
      state_streams.reset();
      for (Slot& s : slots) {
        if (s.state == Slot::State::Running) s.worker->kill();
      }
      stats.faults += ledger.counters();
      stats.faults.degraded = true;
      stats.master_terminated = true;
      stats.workers_created = slots.size();
      coordinator.trace("master terminated mid-pool; aborting", "protocol.cpp", __LINE__);
      runtime.disconnect_source(tap_stream);
      return stats;
    }
  }

  const double waited = rendezvous_clock.elapsed_seconds();
  protocol_metrics().rendezvous_wait.observe(waited);
  protocol_metrics().pool_workers.observe(static_cast<double>(slots.size()));

  // The pool is over: break the tap and consume the copies of work units
  // that resolved without a replay, so the next pool starts a clean tap.
  runtime.disconnect_source(tap_stream);
  drain_tap();

  stats.faults += ledger.counters();
  stats.workers_created = slots.size();
  stats.rendezvous_wait_seconds = waited;
  // Line 50: MES + raise(a_rendezvous); the manner returns.
  coordinator.trace("rendezvous acknowledged", "protocol.cpp", __LINE__);
  coordinator.raise(ProtocolEvents::a_rendezvous);
  return stats;
}

ProtocolStats protocol_mw(iwim::ProcessContext& coordinator,
                          const std::shared_ptr<iwim::Process>& master, WorkerFactory factory,
                          const fault::RetryPolicy& retry, const fleet::ChurnPlan& churn) {
  MG_REQUIRE(master != nullptr);
  ProtocolStats stats;
  std::size_t worker_counter = 0;

  const std::vector<EventMatcher> labels = {
      {ProtocolEvents::create_pool, master->id()},
      {ProtocolEvents::finished, master->id()},
      {iwim::kTerminatedEvent, master->id()},
  };

  for (;;) {
    // Line 59: `begin: terminated(master).` — wait for events raised by the
    // master (or its termination).
    const EventOccurrence occurrence = coordinator.await(labels);
    if (occurrence.event == ProtocolEvents::create_pool) {
      // Line 61: the create_pool state calls Create_Worker_Pool, then posts
      // begin (the loop continues).
      const PoolStats pool =
          create_worker_pool(coordinator, *master, factory, worker_counter, retry, churn);
      stats.workers_created += pool.workers_created;
      stats.rendezvous_wait_seconds += pool.rendezvous_wait_seconds;
      stats.pools_created += 1;
      stats.faults += pool.faults;
      stats.fleet += pool.fleet;
      protocol_metrics().pools_created.add();
      // The pool saw the master terminate: it consumed the occurrence, so
      // returning here (not re-awaiting) is what ends the protocol.
      if (pool.master_terminated) return stats;
    } else {
      // Line 63 (`finished: halt.`) or the master terminated first.
      return stats;
    }
  }
}

ProtocolStats run_main_program(iwim::Runtime& runtime,
                               const std::shared_ptr<iwim::Process>& master,
                               WorkerFactory factory, RunOptions options) {
  MG_REQUIRE(master != nullptr);
  ProtocolStats stats;
  const fleet::ChurnPlan churn(options.churn.value_or(fleet::ChurnPlanConfig{}));
  // Every unit a leave or crash takes away is re-leased as one more attempt.
  options.retry.max_attempts = std::max(options.retry.max_attempts,
                                        1 + churn.config().leaves + churn.config().crashes);
  // §5 mainprog.m: Main's begin state is ProtocolMW(Master(argv), Worker).
  auto main = runtime.create_process(
      "Main", "main",
      [&stats, &churn, master, retry = options.retry,
       factory = std::move(factory)](iwim::ProcessContext& ctx) {
        stats = protocol_mw(ctx, master, factory, retry, churn);
      });
  // The master passed to ProtocolMW is "the already active process instance".
  master->activate();
  main->activate();
  bool timed_out = false;
  if (options.overall_deadline.count() > 0 &&
      !main->wait_terminated_for(options.overall_deadline)) {
    // The protocol outlived its deadline (a master that neither finishes
    // nor terminates).  Wake every blocked wait with ShutdownSignal so the
    // coordinator and master unwind, and report an error status instead of
    // hanging.
    timed_out = true;
    main->stop_blocking();
    master->stop_blocking();
  }
  main->wait_terminated();
  master->wait_terminated();
  if (timed_out) stats.timed_out = true;
  fleet::add_fleet_metrics(stats.fleet);
  return stats;
}

}  // namespace mg::mw
