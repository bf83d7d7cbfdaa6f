#include "core/concurrent_solver.hpp"

#include <algorithm>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/master.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "core/remote_worker.hpp"
#include "core/worker.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "transport/subsolve.hpp"

namespace mg::mw {

const char* to_string(DataPath p) {
  switch (p) {
    case DataPath::ThroughMaster: return "through-master";
    case DataPath::SharedGlobal: return "shared-global";
  }
  return "?";
}

std::vector<std::size_t> lpt_order(const std::vector<grid::CombinationTerm>& terms,
                                   std::size_t first, std::size_t count) {
  MG_REQUIRE(first + count <= terms.size());
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), first);
  std::stable_sort(order.begin(), order.end(), [&terms](std::size_t a, std::size_t b) {
    return transport::subsolve_payload_bytes(terms[a].grid) >
           transport::subsolve_payload_bytes(terms[b].grid);
  });
  return order;
}

ResultItem execute_work_item(const WorkItem& item) {
  const grid::Grid2D g(item.root, item.lx, item.ly);
  transport::SubsolveResult r = transport::subsolve(g, item.config);
  return ResultItem{item.index, std::move(r.solution.data()), r.stats, r.elapsed_seconds};
}

namespace {

/// Shared state for the DataPath::SharedGlobal ablation: workers store their
/// solutions straight into the global structure.  Slots are disjoint per
/// worker, but a mutex keeps the structure internally consistent anyway.
struct SharedGlobalState {
  std::mutex mutex;
  transport::GlobalData data;
  std::vector<transport::GridRunRecord> records;

  explicit SharedGlobalState(int root, int level) : data(root, level) {}
};

/// Runs one pool: creates `count` workers starting at term index `first`,
/// charges each with its grid in lpt_order, collects results (ThroughMaster
/// only) and hands each new one to `fold`, and holds the rendezvous.
void run_pool(MasterApi& api, const transport::SubsolveConfig& kernel,
              const std::vector<grid::CombinationTerm>& terms, std::size_t first,
              std::size_t count, DataPath path, transport::GlobalData& data,
              std::vector<transport::GridRunRecord>& records, grid::TermOrderFold& fold) {
  api.create_pool();  // master step 3(a)
  const std::vector<std::size_t> order = lpt_order(terms, first, count);
  for (std::size_t k : order) {
    api.create_worker();  // steps 3(b)+(c)
    const grid::Grid2D& g = terms[k].grid;
    api.send_work(iwim::Unit::of(WorkItem{k, g.root(), g.lx(), g.ly(), kernel}));  // step 3(d)
  }
  if (path == DataPath::ThroughMaster) {
    // Step 3(f): collect the results from the master's own input (dataport).
    // If an abandoned grid's local recompute throws, the rendezvous is still
    // held, so the pool drains its workers before the error propagates.
    try {
      // Collect until every term of this pool has landed — counted by
      // *distinct* index, not by unit.  Under churn a worker can be
      // victimised between sending its result and its death event being
      // processed; the respawned incarnation then re-delivers the same
      // index, and a unit-counted loop would stop one real result short.
      // First result wins; stragglers are discarded and never double-count.
      for (std::size_t collected = 0; collected < count;) {
        const iwim::Unit unit = api.collect_result();
        if (unit.is<WorkAbandoned>()) {
          // The pool gave up on this slot (attempt cap or respawn budget).
          // Degraded-pool fallback: the master subsolves the grid itself, so
          // the combined result is still bit-identical to the sequential
          // program.
          const auto& ab = unit.as<WorkAbandoned>();
          // pool_slot is the worker's creation order, i.e. a position in the
          // dispatch order — not a term offset (they differ under LPT).
          MG_ASSERT(ab.pool_slot < order.size());
          const std::size_t idx = order[ab.pool_slot];
          MG_ASSERT(idx < terms.size());
          if (data.solutions[idx].has_value()) continue;  // delivered, then churned
          support::Stopwatch local;
          transport::SubsolveResult r = transport::subsolve(terms[idx].grid, kernel);
          data.store(idx, std::move(r.solution));
          records[idx] = {terms[idx].grid, terms[idx].coefficient, r.stats,
                          local.elapsed_seconds()};
          fold.add(idx, *data.solutions[idx]);
          ++collected;
          api.context().trace("abandoned slot " + std::to_string(ab.pool_slot) +
                                  " recomputed locally",
                              "concurrent_solver.cpp", __LINE__);
          continue;
        }
        const auto& r = unit.as<ResultItem>();
        MG_ASSERT(r.index < terms.size());
        if (data.solutions[r.index].has_value()) {
          obs::registry().counter("fleet.duplicates").add();
          api.context().trace("duplicate result for term " + std::to_string(r.index) +
                                  " discarded (first result wins)",
                              "concurrent_solver.cpp", __LINE__);
          continue;
        }
        grid::Field field(terms[r.index].grid);
        field.data() = r.node_data;
        data.store(r.index, std::move(field));
        records[r.index] = {terms[r.index].grid, terms[r.index].coefficient, r.stats,
                            r.elapsed_seconds};
        // Fold the combination's term-order prefix while the pool still
        // computes, so only the terms behind the last result stay serial.
        fold.add(r.index, *data.solutions[r.index]);
        ++collected;
      }
    } catch (...) {
      api.rendezvous();
      throw;
    }
  }
  api.rendezvous();  // steps 3(g)+(h)
}

}  // namespace

ConcurrentResult solve_concurrent(const transport::ProgramConfig& program,
                                  const ConcurrentOptions& options) {
  MG_REQUIRE(program.level >= 0);

  RunOptions run_options;
  run_options.retry = options.retry;
  run_options.overall_deadline = options.overall_deadline;
  run_options.churn = options.churn;
  // Worker faults are injected only by the threads pool's workers; refuse a
  // plan that would be silently dropped or never end.
  const fault::FaultPlanConfig& faults = options.faults;
  if (faults.crash > 0 || faults.hang > 0 || faults.corrupt > 0) {
    if (options.remote != nullptr) {
      throw std::invalid_argument(
          "solve_concurrent: worker faults (crash/hang/corrupt) are not injected into remote "
          "workers; set RemoteEndpointConfig::faults for frame faults instead");
    }
    if (faults.hang > 0 && options.retry.task_deadline.count() == 0) {
      throw std::invalid_argument(
          "solve_concurrent: hang faults need retry.task_deadline to reap a hung worker");
    }
  }

  iwim::RuntimeConfig rt_config;
  rt_config.tasks = options.tasks;
  rt_config.hosts = options.hosts;
  rt_config.trace = options.trace;
  iwim::Runtime runtime(rt_config);

  const auto terms = grid::combination_terms(program.root, program.level);
  auto shared = options.data_path == DataPath::SharedGlobal
                    ? std::make_shared<SharedGlobalState>(program.root, program.level)
                    : nullptr;

  std::promise<transport::SolveResult> result_promise;
  std::future<transport::SolveResult> result_future = result_promise.get_future();

  // The master: the sequential program minus subsolve (§4: "the master
  // performs all the computation in the sequential source code except the
  // work embodied in subsolve, which is done by the workers").
  auto master = make_master(
      runtime, "master",
      [&program, &terms, &options, shared, &result_promise](MasterApi& api,
                                                            iwim::ProcessContext& ctx) {
        try {
        support::Stopwatch total;
        support::Stopwatch phase;
        const transport::SubsolveConfig kernel = program.kernel_config();
        transport::GlobalData local_data(program.root, program.level);
        transport::GlobalData& data = shared ? shared->data : local_data;
        std::vector<transport::GridRunRecord> records(
            terms.size(),
            transport::GridRunRecord{grid::Grid2D(program.root, 0, 0), 0.0, {}, 0.0});
        // The fold references the components `data` holds; a slot is stored
        // once (duplicates are discarded first) and never moves, so every
        // waiting component outlives its addition.
        grid::TermOrderFold fold(terms, grid::finest_grid(program.root, program.level));
        const double init_seconds = phase.elapsed_seconds();

        // The concurrent region: one pool over all grids, or one per family.
        phase.reset();
        if (options.pool_per_family && program.level >= 1) {
          // Family lm = level-1 occupies terms [0, level); lm = level the rest.
          const std::size_t lower = static_cast<std::size_t>(program.level);
          run_pool(api, kernel, terms, 0, lower, options.data_path, data, records, fold);
          run_pool(api, kernel, terms, lower, terms.size() - lower, options.data_path, data,
                   records, fold);
        } else {
          run_pool(api, kernel, terms, 0, terms.size(), options.data_path, data, records, fold);
        }
        api.finished();  // master step 4
        const double subsolve_seconds = phase.elapsed_seconds();

        if (shared) {
          std::lock_guard<std::mutex> lock(shared->mutex);
          records = shared->records;
        }

        // Step 5: the final sequential computation — the prolongation and
        // combine work the collect loop could not fold yet: the terms from
        // the last-landing result on (every term under SharedGlobal).
        phase.reset();
        MG_ASSERT(data.complete());
        for (std::size_t k = 0; k < terms.size(); ++k) {
          if (!fold.has(k)) fold.add(k, *data.solutions[k]);
        }
        grid::Field combined = fold.take();
        const double prolongation_seconds = phase.elapsed_seconds();

        ctx.trace("prolongation done", "concurrent_solver.cpp", __LINE__);
        result_promise.set_value(transport::SolveResult{
            std::move(combined), std::move(records), init_seconds, subsolve_seconds,
            prolongation_seconds, total.elapsed_seconds()});
        } catch (...) {
          // Propagate the failure to the caller blocked on the future; the
          // master still terminates so the protocol can unwind.
          result_promise.set_exception(std::current_exception());
          api.finished();
        }
      });

  // The worker: a wrapper around subsolve (§5).
  WorkFn work;
  if (options.data_path == DataPath::ThroughMaster) {
    work = [](const iwim::Unit& unit) {
      return iwim::Unit::of(execute_work_item(unit.as<WorkItem>()));
    };
  } else {
    work = [shared, &terms](const iwim::Unit& unit) {
      const auto& item = unit.as<WorkItem>();
      const grid::Grid2D g(item.root, item.lx, item.ly);
      transport::SubsolveResult r = transport::subsolve(g, item.config);
      {
        std::lock_guard<std::mutex> lock(shared->mutex);
        if (shared->records.size() != terms.size()) {
          shared->records.assign(terms.size(), transport::GridRunRecord{g, 0.0, {}, 0.0});
        }
        shared->records[item.index] = {terms[item.index].grid, terms[item.index].coefficient,
                                       r.stats, r.elapsed_seconds};
        shared->data.store(item.index, std::move(r.solution));
      }
      return iwim::Unit::of(ResultItem{item.index, {}, r.stats, r.elapsed_seconds});
    };
  }

  ConcurrentResult result{transport::SolveResult{grid::Field(grid::Grid2D(program.root, 0, 0)),
                                                 {}, 0, 0, 0, 0},
                          {}, {}};
  WorkerFactory factory;
  auto injections = std::make_shared<InjectionStats>();
  if (options.remote != nullptr) {
    MG_REQUIRE(options.data_path == DataPath::ThroughMaster);
    factory = make_remote_worker_factory(*options.remote);
  } else {
    auto plan = options.faults.any()
                    ? std::make_shared<const fault::FaultPlan>(options.faults)
                    : nullptr;
    factory = make_worker_factory(std::move(work), std::move(plan), injections);
  }
  result.protocol = run_main_program(runtime, master, std::move(factory), run_options);
  injections->merge_into(result.protocol.faults);
  try {
    // After a deadline abort the master may have unwound without ever
    // setting the promise — surface an error instead of blocking on it.
    if (result.protocol.timed_out &&
        result_future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      runtime.shutdown();
      throw std::runtime_error("solve_concurrent: overall deadline expired");
    }
    result.solve = result_future.get();
  } catch (const iwim::ShutdownSignal&) {
    runtime.shutdown();
    throw std::runtime_error("solve_concurrent: run aborted at the overall deadline");
  }
  result.tasks = runtime.tasks().stats();
  runtime.shutdown();
  return result;
}

}  // namespace mg::mw
