#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <numeric>
#include <queue>

#include "grid/combination.hpp"
#include "manifold/task.hpp"
#include "obs/metrics.hpp"
#include "sim/timeline.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "transport/subsolve.hpp"

namespace mg::cluster {

namespace {
struct SimMetrics {
  obs::Counter& runs = obs::registry().counter("cluster.sim_runs");
  obs::Counter& workers = obs::registry().counter("cluster.sim_workers");
  obs::Counter& tasks_spawned = obs::registry().counter("cluster.sim_tasks_spawned");
  obs::Counter& network_bytes = obs::registry().counter("cluster.sim_network_bytes");
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}
}  // namespace

namespace {

iwim::HostMap host_map_from(const ClusterSpec& cluster) {
  iwim::HostMap map;
  map.startup_host = cluster.hosts.front().name;
  for (std::size_t i = 1; i < cluster.hosts.size(); ++i) {
    map.worker_hosts.push_back(cluster.hosts[i].name);
  }
  return map;
}

struct PendingRelease {
  double time;
  std::uint64_t task_id;
  bool operator>(const PendingRelease& other) const { return time > other.time; }
};

}  // namespace

SimRunResult simulate_run(int root, int level, double tol, const CostModel& cost,
                          const SimConfig& config, std::uint64_t seed) {
  MG_REQUIRE(level >= 0);
  support::Xoshiro256 rng(seed);
  const OverheadModel& oh = config.overhead;
  const double startup_mhz = config.cluster.startup().mhz;

  std::map<std::string, double> mhz_by_host;
  for (const auto& h : config.cluster.hosts) {
    double mhz = h.mhz;
    // Run-long background jobs (screen savers, runaway Netscape, §7).
    if (config.background_job_probability > 0.0 &&
        rng.uniform01() < config.background_job_probability) {
      mhz /= config.background_slowdown;
    }
    mhz_by_host[h.name] = mhz;
  }

  auto noise = [&]() { return 1.0 + config.noise_amplitude * rng.uniform01(); };

  // ---- sequential model (the baseline the paper times with /bin/time) ----
  double st = cost.init_seconds(startup_mhz);
  const auto terms = grid::combination_terms(root, level);
  for (const auto& term : terms) {
    st += cost.subsolve_seconds(term.grid, tol, startup_mhz) * noise();
  }
  st += cost.prolongation_seconds(root, level, startup_mhz) * noise();

  // ---- concurrent (distributed) model ----
  iwim::TaskCompositionSpec task_spec = iwim::TaskCompositionSpec::paper_distributed();
  task_spec.perpetual = config.perpetual_tasks;
  iwim::TaskManager tasks(task_spec, host_map_from(config.cluster));

  sim::Timeline spawner;                          // coordinator/CONFIG, serial
  sim::Timeline net;                              // the master's network link
  std::map<std::string, sim::Timeline> host_cpu;  // per-host compute

  std::priority_queue<PendingRelease, std::vector<PendingRelease>, std::greater<>> releases;
  auto apply_releases = [&](double up_to) {
    while (!releases.empty() && releases.top().time <= up_to) {
      tasks.release(releases.top().task_id, "Worker", releases.top().time);
      releases.pop();
    }
  };

  // Master's task instance occupies the start-up machine for the whole run.
  const std::uint64_t master_task = tasks.place("Master", 0.0);

  double master_clock = oh.startup_s + cost.init_seconds(startup_mhz);

  SimRunResult result;
  result.sequential_seconds = st;
  result.workers.reserve(terms.size());

  obs::SpanTracer* tracer = config.tracer;
  auto span = [&](std::string name, std::string track, double start, double end) {
    if (tracer != nullptr) tracer->record({std::move(name), "sim", std::move(track), start, end});
  };
  auto fault_span = [&](std::string name, std::string track, double start, double end) {
    if (tracer != nullptr) tracer->record({std::move(name), "fault", std::move(track), start, end});
  };

  // Fault injection: decisions come from their own hashed stream (never the
  // timing-noise RNG), so an all-zero fault config cannot perturb the
  // schedule.  Incarnation/transfer ordinals advance deterministically with
  // the dispatch order.
  const bool injecting = config.faults.any();
  const fault::FaultPlan plan(config.faults);
  fault::LeaseLedger ledger(config.retry);
  std::uint64_t incarnation = 0;
  std::uint64_t transfer_ordinal = 0;

  // Family grouping: single pool by default; one pool per lm when requested.
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // (first, count)
  if (config.pool_per_family && level >= 1) {
    groups.push_back({0, static_cast<std::size_t>(level)});
    groups.push_back({static_cast<std::size_t>(level), terms.size() - static_cast<std::size_t>(level)});
  } else {
    groups.push_back({0, terms.size()});
  }

  for (const auto& [first, count] : groups) {
    master_clock += oh.event_latency_s;  // raise create_pool
    std::vector<double> arrivals;
    std::vector<double> deaths;
    arrivals.reserve(count);
    deaths.reserve(count);
    double fallback_s = 0;  // degraded slots recomputed on the start-up machine

    // One dispatch = one worker incarnation: spawn, marshal (with drop /
    // slowdown injection), compute (with host-crash injection).  Returns the
    // arrival time of the result, or — on a crash — the time the master's
    // per-task deadline detects the silent loss.
    struct DispatchOutcome {
      bool success = false;
      double marshal_end = 0;
      double arrival = 0;  ///< result at master (success only)
      double detect = 0;   ///< loss detected at the deadline (failure only)
    };
    auto dispatch = [&](std::size_t k, WorkerTimeline& w, double gate) -> DispatchOutcome {
      DispatchOutcome out;
      const grid::Grid2D& g = terms[k].grid;
      const std::uint64_t inc = incarnation++;

      w.requested = gate + oh.event_latency_s;  // raise create_worker / respawn
      apply_releases(w.requested);
      const std::size_t created_before = tasks.stats().tasks_created;
      w.task_id = tasks.place("Worker", w.requested);
      w.new_task = tasks.stats().tasks_created > created_before;
      w.host = tasks.task(w.task_id).host;
      const double host_mhz = mhz_by_host.at(w.host);

      // Coordinator creates the worker (serial): forking a fresh task
      // instance on a new machine is expensive; handing the worker to an
      // idle perpetual task is cheap.
      const double create_cost = w.new_task ? oh.create_new_task_s : oh.reuse_task_s;
      const sim::Interval spawn = spawner.reserve(w.requested, create_cost);
      w.ready = spawn.end + oh.event_latency_s;  // &worker reference at master
      span(w.new_task ? "spawn:new" : "spawn:reuse", "spawner", spawn.start, spawn.end);

      // Master marshals the work data through its network link.  A dropped
      // transfer costs its full duration plus an ack-timeout hop before the
      // retransmission; a slowed transfer stretches by net_slow_factor.
      const std::size_t payload = transport::subsolve_payload_bytes(g);
      const double xfer = config.network.transfer_seconds(payload);
      double send_at = w.ready;
      int resends = 0;
      for (;;) {
        const std::uint64_t t = transfer_ordinal++;
        const double slow = injecting ? plan.transfer_slowdown(t) : 1.0;
        if (slow > 1.0) result.faults.net_slowdowns_injected += 1;
        const sim::Interval marshal = net.reserve(send_at, xfer * slow);
        result.network_bytes += payload;
        span("marshal:" + g.name(), "network", marshal.start, marshal.end);
        if (injecting && resends < 16 && plan.drops_transfer(t)) {
          result.faults.net_drops_injected += 1;
          ++resends;
          fault_span("net_drop:" + g.name(), "network", marshal.start, marshal.end);
          send_at = marshal.end + oh.event_latency_s;
          continue;
        }
        w.input_done = marshal.end + oh.event_latency_s;
        out.marshal_end = marshal.end;
        break;
      }

      // On-host setup happens in parallel with the marshalling.
      const double setup_done = w.ready + oh.worker_setup_s;
      const double compute_cost = cost.subsolve_seconds(g, tol, host_mhz) * noise();
      if (injecting && plan.host_crashes(inc)) {
        // The host dies partway through the compute.  The loss is silent —
        // no death_worker will ever arrive — so the master only learns of it
        // when the per-task deadline (cost-model floor, so slow-but-alive
        // hosts are never killed) expires.
        const double frac = plan.host_crash_fraction(inc);
        const sim::Interval part =
            host_cpu[w.host].reserve(std::max(w.input_done, setup_done), compute_cost * frac);
        w.compute_start = part.start;
        w.compute_end = part.end;
        w.result_done = 0;
        w.death = part.end;
        result.faults.host_crashes_injected += 1;
        fault_span("host_crash:" + g.name(), w.host, part.start, part.end);
        out.detect =
            w.input_done + config.retry.deadline_seconds(cost.subsolve_seconds(g, tol, host_mhz));
        result.faults.timeouts += 1;
        releases.push({out.detect, w.task_id});
        return out;
      }
      const sim::Interval comp =
          host_cpu[w.host].reserve(std::max(w.input_done, setup_done), compute_cost);
      w.compute_start = comp.start;
      w.compute_end = comp.end;

      // Result returns through the KK stream.  The switched Ethernet is
      // full duplex: results do not contend with the master's outbound
      // marshalling, and they are small relative to compute, so inbound
      // contention is neglected (reserving them on the shared timeline here
      // would violate causality — they complete far in the future relative
      // to the master's send loop).
      w.result_done = comp.end + config.network.transfer_seconds(payload);
      w.death = w.result_done + oh.death_tail_s;
      result.network_bytes += payload;  // the result returning over the KK stream
      span("compute:" + g.name(), w.host, comp.start, comp.end);
      span("result:" + g.name(), "network", comp.end, w.result_done);

      releases.push({w.death, w.task_id});
      out.success = true;
      out.arrival = w.result_done + oh.event_latency_s;
      return out;
    };

    // Failed attempt `attempt` of slot widx: the run's ledger either retries
    // it after its wait, or abandons it — the master receives the
    // abandonment at detection time and recomputes the grid itself on the
    // start-up machine.
    struct PendingRetry {
      std::size_t k = 0;
      std::size_t widx = 0;
      std::size_t attempt = 0;  ///< the attempt about to run
      double earliest = 0;
    };
    std::vector<PendingRetry> retry_queue;
    auto handle_failure = [&](std::size_t k, std::size_t widx, std::size_t attempt,
                              double detect) {
      if (const auto wait = ledger.lost(attempt, /*graceful=*/false)) {
        const double backoff = std::chrono::duration<double>(*wait).count();
        fault_span("backoff:" + terms[k].grid.name(), "spawner", detect, detect + backoff);
        retry_queue.push_back({k, widx, attempt + 1, detect + backoff});
      } else {
        arrivals.push_back(detect + oh.event_latency_s);  // the WorkAbandoned unit
        deaths.push_back(detect);
        fallback_s += cost.subsolve_seconds(terms[k].grid, tol, startup_mhz) * noise();
      }
    };

    for (std::size_t k = first; k < first + count; ++k) {
      WorkerTimeline w;
      w.index = k;
      w.grid = terms[k].grid;
      const std::size_t widx = result.workers.size();
      result.workers.push_back(w);

      const DispatchOutcome out = dispatch(k, result.workers[widx], master_clock);
      master_clock = out.marshal_end;  // master's loop proceeds to the next worker
      if (out.success) {
        arrivals.push_back(out.arrival);
        deaths.push_back(result.workers[widx].death);
      } else {
        handle_failure(k, widx, 1, out.detect);
      }
    }

    // Retry rounds: respawned incarnations run while the master sits in its
    // collect loop, so they gate only the rendezvous, not further sends.
    // The queue grows as retried attempts fail again; index iteration keeps
    // the order (and therefore the ordinals) deterministic.
    for (std::size_t i = 0; i < retry_queue.size(); ++i) {
      const PendingRetry p = retry_queue[i];
      const DispatchOutcome out = dispatch(p.k, result.workers[p.widx], p.earliest);
      if (out.success) {
        arrivals.push_back(out.arrival);
        deaths.push_back(result.workers[p.widx].death);
      } else {
        handle_failure(p.k, p.widx, p.attempt, out.detect);
      }
    }

    // Master collects the results in arrival order (step 3(f)), then
    // recomputes whatever the pool abandoned.
    std::sort(arrivals.begin(), arrivals.end());
    double collect = master_clock;
    for (double a : arrivals) collect = std::max(collect, a) + oh.result_handling_s;
    if (fallback_s > 0) {
      fault_span("local_fallback", config.cluster.startup().name, collect,
                 collect + fallback_s);
      collect += fallback_s;
    }

    // Rendezvous: the coordinator has counted every death_worker (3(g)/(h)).
    const double all_dead =
        deaths.empty() ? master_clock : *std::max_element(deaths.begin(), deaths.end());
    master_clock = std::max(collect, all_dead + oh.event_latency_s) + 2.0 * oh.event_latency_s;
    apply_releases(master_clock);
  }

  // finished + final sequential prolongation on the start-up machine.
  master_clock += oh.event_latency_s;
  master_clock += cost.prolongation_seconds(root, level, startup_mhz) * noise();
  apply_releases(master_clock);
  tasks.release(master_task, "Master", master_clock);

  result.faults += ledger.counters();
  result.concurrent_seconds = master_clock;
  result.ebb_flow = trace::build_ebb_flow(tasks.stats().machine_events, master_clock);
  result.weighted_machines = result.ebb_flow.weighted_average();
  result.peak_machines = result.ebb_flow.peak();
  result.tasks_spawned = tasks.stats().tasks_created;

  // Virtual busy/idle per workstation (busy = booked compute; the start-up
  // machine additionally hosts the master for the whole run).
  result.host_usage.reserve(config.cluster.hosts.size());
  for (const auto& h : config.cluster.hosts) {
    HostUsage usage;
    usage.host = h.name;
    const auto it = host_cpu.find(h.name);
    usage.busy_seconds = it != host_cpu.end() ? it->second.busy_time() : 0.0;
    usage.idle_seconds = std::max(0.0, master_clock - usage.busy_seconds);
    result.host_usage.push_back(std::move(usage));
  }
  span("master", config.cluster.startup().name, 0.0, master_clock);

  SimMetrics& metrics = sim_metrics();
  metrics.runs.add();
  metrics.workers.add(result.workers.size());
  metrics.tasks_spawned.add(result.tasks_spawned);
  metrics.network_bytes.add(result.network_bytes);
  return result;
}

// ---------------------------------------------------------------------------
// Elastic fleet under churn
// ---------------------------------------------------------------------------

namespace {

/// Hashed per-(term, attempt) timing noise — a pure function of the seed, so
/// churn-induced reordering of dispatches cannot perturb any unit's duration.
double churn_noise(std::uint64_t seed, std::size_t term, std::size_t attempt, double amp) {
  support::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(term) + 1) * 0x9e3779b97f4a7c15ULL ^
                         (static_cast<std::uint64_t>(attempt) + 1) * 0xbf58476d1ce4e5b9ULL);
  const double u = static_cast<double>(sm.next() >> 11) * (1.0 / 9007199254740992.0);
  return 1.0 + amp * u;
}

struct ElasticHost {
  double mhz = 0;
  bool active = false;  ///< a host that left or crashed never comes back
  bool busy = false;
  std::size_t current = 0;  ///< term in flight (valid while busy)
  double started = 0;
};

enum class ChurnEvKind {
  Complete,  ///< a host's lease delivers its result
  Churn,     ///< the plan's next join / leave / crash
  Lost,      ///< the master learns a lease was lost and asks the ledger
  Requeue,   ///< the ledger's wait is over: the unit goes back to the queue
};

struct ChurnEv {
  double time = 0;
  std::uint64_t seq = 0;  ///< insertion order — the deterministic tie-break
  ChurnEvKind kind = ChurnEvKind::Complete;
  std::size_t host = 0;       ///< Complete: the computing host
  std::size_t churn_idx = 0;  ///< Churn: index into the plan's event list
  std::size_t term = 0;       ///< Complete / Lost / Requeue
  bool graceful = false;      ///< Lost: the host left (no detection wait)
};

struct ChurnEvLater {
  bool operator()(const ChurnEv& a, const ChurnEv& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

ChurnSimResult simulate_churn_run(int root, int level, double tol, const CostModel& cost,
                                  const SimConfig& config, const fleet::ChurnPlanConfig& churn) {
  MG_REQUIRE(level >= 0);
  MG_REQUIRE(config.cluster.hosts.size() >= 2);
  const OverheadModel& oh = config.overhead;
  const fleet::ChurnPlan plan(churn);
  fault::LeaseLedger ledger(config.retry);

  const auto terms = grid::combination_terms(root, level);
  ChurnSimResult result;
  result.terms_total = terms.size();

  // Initial fleet: the cluster's worker hosts.  The start-up machine hosts
  // the master and stays out of the lease set.
  std::vector<ElasticHost> hosts;
  hosts.reserve(config.cluster.hosts.size() - 1 + churn.joins);
  for (std::size_t i = 1; i < config.cluster.hosts.size(); ++i) {
    ElasticHost h;
    h.mhz = config.cluster.hosts[i].mhz;
    h.active = true;
    hosts.push_back(h);
  }
  std::vector<trace::MachineEvent> machine_events;
  machine_events.reserve(hosts.size() + plan.events().size());
  for (std::size_t i = 0; i < hosts.size(); ++i) machine_events.push_back({0.0, +1});

  // One work queue, heaviest grid first — the pool's LPT dispatch order.
  std::vector<std::size_t> order(terms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&terms](std::size_t a, std::size_t b) {
    return transport::subsolve_payload_bytes(terms[a].grid) >
           transport::subsolve_payload_bytes(terms[b].grid);
  });
  std::deque<std::size_t> queue(order.begin(), order.end());

  std::vector<bool> done(terms.size(), false);
  std::vector<std::size_t> attempts(terms.size(), 0);
  std::vector<std::size_t> abandoned;  ///< recomputed by the master, in order
  std::size_t remaining = terms.size();

  std::priority_queue<ChurnEv, std::vector<ChurnEv>, ChurnEvLater> events;
  std::uint64_t seq = 0;
  auto push = [&](ChurnEv ev) {
    ev.seq = seq++;
    events.push(ev);
  };
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    ChurnEv ev;
    ev.time = plan.events()[i].at_seconds;
    ev.kind = ChurnEvKind::Churn;
    ev.churn_idx = i;
    push(ev);
  }

  auto expected_compute = [&](std::size_t term, double mhz) {
    return cost.subsolve_seconds(terms[term].grid, tol, mhz);
  };

  // Every idle active host takes the head of the queue, in index order.
  auto kick = [&](double now) {
    for (std::size_t i = 0; i < hosts.size() && !queue.empty(); ++i) {
      ElasticHost& h = hosts[i];
      if (!h.active || h.busy) continue;
      const std::size_t term = queue.front();
      queue.pop_front();
      h.busy = true;
      h.current = term;
      h.started = now;
      const std::size_t attempt = ++attempts[term];
      const double xfer =
          config.network.transfer_seconds(transport::subsolve_payload_bytes(terms[term].grid));
      ChurnEv ev;
      ev.time = now + oh.reuse_task_s + 2.0 * xfer +
                expected_compute(term, h.mhz) *
                    churn_noise(config.seed, term, attempt, config.noise_amplitude);
      ev.kind = ChurnEvKind::Complete;
      ev.host = i;
      ev.term = term;
      push(ev);
    }
  };
  kick(0.0);

  double last_result = 0.0;
  std::size_t joined = 0;
  while (remaining > 0 && !events.empty()) {
    const ChurnEv ev = events.top();
    events.pop();
    const double now = ev.time;
    switch (ev.kind) {
      case ChurnEvKind::Complete: {
        ElasticHost& h = hosts[ev.host];
        if (!h.active) break;  // the lease was lost with its host
        h.busy = false;
        MG_ASSERT(!done[ev.term]);  // exactly-once: a lost lease never completes
        done[ev.term] = true;
        result.completion_order.push_back(ev.term);
        remaining -= 1;
        last_result = now;
        kick(now);
        break;
      }
      case ChurnEvKind::Churn: {
        const fleet::ChurnEvent& ce = plan.events()[ev.churn_idx];
        if (ce.kind == fleet::ChurnEventKind::Join) {
          // Joiners clone the worker speeds round-robin, so the elastic
          // fleet stays as heterogeneous as the cluster it extends.
          ElasticHost h;
          h.mhz = config.cluster.hosts[1 + joined++ % (config.cluster.hosts.size() - 1)].mhz;
          h.active = true;
          hosts.push_back(h);
          machine_events.push_back({now, +1});
          result.fleet.joins += 1;
          kick(now);
          break;
        }
        // Leave / Crash: the pool's rule — the lowest-index busy host, else
        // the lowest-index active one, but never the last active host, or
        // the queue would strand.
        std::size_t victim = hosts.size();
        std::size_t active_count = 0;
        for (std::size_t i = 0; i < hosts.size(); ++i) {
          if (!hosts[i].active) continue;
          active_count += 1;
          if (victim == hosts.size() || (hosts[i].busy && !hosts[victim].busy)) victim = i;
        }
        if (active_count <= 1) break;
        ElasticHost& v = hosts[victim];
        const bool graceful = ce.kind == fleet::ChurnEventKind::Leave;
        v.active = false;
        machine_events.push_back({now, -1});
        result.fleet.leaves += graceful ? 1 : 0;
        result.fleet.crashes += graceful ? 0 : 1;
        if (v.busy) {
          // A leaver hands its lease back at once; a crash is silent, so
          // the master only learns of the loss at the cost-model deadline.
          ChurnEv lost;
          lost.time = now;
          if (!graceful) {
            lost.time = std::max(now, v.started + config.retry.deadline_seconds(
                                                      expected_compute(v.current, v.mhz)));
            result.faults.timeouts += 1;
          }
          lost.kind = ChurnEvKind::Lost;
          lost.term = v.current;
          lost.graceful = graceful;
          push(lost);
        }
        break;
      }
      case ChurnEvKind::Lost: {
        if (const auto wait = ledger.lost(attempts[ev.term], ev.graceful)) {
          ChurnEv requeue;
          requeue.time = now + std::chrono::duration<double>(*wait).count();
          requeue.kind = ChurnEvKind::Requeue;
          requeue.term = ev.term;
          push(requeue);
        } else {
          abandoned.push_back(ev.term);
          remaining -= 1;
          last_result = now;  // the abandonment reaches the master now
        }
        break;
      }
      case ChurnEvKind::Requeue:
        queue.push_front(ev.term);
        kick(now);
        break;
    }
  }
  MG_ASSERT(remaining == 0);

  // The master recomputes every abandoned unit on the start-up machine
  // after the last result, as simulate_run does.
  const double startup_mhz = config.cluster.startup().mhz;
  double fallback_s = 0;
  for (const std::size_t term : abandoned) {
    fallback_s += expected_compute(term, startup_mhz) *
                  churn_noise(config.seed, term, attempts[term] + 1, config.noise_amplitude);
    result.completion_order.push_back(term);
  }
  const double collect =
      last_result + oh.result_handling_s * static_cast<double>(terms.size()) + fallback_s;
  result.concurrent_seconds = oh.startup_s + cost.init_seconds(startup_mhz) + collect +
                              cost.prolongation_seconds(root, level, startup_mhz);
  result.machines = trace::build_ebb_flow(std::move(machine_events), collect);
  result.weighted_machines = result.machines.weighted_average();
  result.peak_machines = result.machines.peak();
  result.faults += ledger.counters();

  SimMetrics& metrics = sim_metrics();
  metrics.runs.add();
  metrics.workers.add(result.completion_order.size());
  fleet::add_fleet_metrics(result.fleet);
  return result;
}

TableRow simulate_table_row(int root, int level, double tol, const CostModel& cost,
                            const SimConfig& config) {
  MG_REQUIRE(config.runs >= 1);
  TableRow row;
  row.level = level;
  row.tol = tol;
  double st_sum = 0, ct_sum = 0, m_sum = 0;
  for (int r = 0; r < config.runs; ++r) {
    const SimRunResult run =
        simulate_run(root, level, tol, cost, config, config.seed + static_cast<std::uint64_t>(r));
    st_sum += run.sequential_seconds;
    ct_sum += run.concurrent_seconds;
    m_sum += run.weighted_machines;
  }
  row.st = st_sum / config.runs;
  row.ct = ct_sum / config.runs;
  row.m = m_sum / config.runs;
  row.su = row.ct > 0 ? row.st / row.ct : 0.0;
  return row;
}

std::vector<TableRow> simulate_table(int root, int max_level, double tol, const CostModel& cost,
                                     const SimConfig& config) {
  std::vector<TableRow> rows;
  rows.reserve(static_cast<std::size_t>(max_level) + 1);
  for (int level = 0; level <= max_level; ++level) {
    rows.push_back(simulate_table_row(root, level, tol, cost, config));
  }
  return rows;
}

}  // namespace mg::cluster
