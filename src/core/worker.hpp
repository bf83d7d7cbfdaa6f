// The worker's behaviour interface (§4.3) as a factory.
//
//   1. Read the information you need to do your job from your own input port.
//   2. Do the computational job.
//   3. Write the computed results to your own output port.
//   4. Raise death_worker: you are done and going to die.
//
// make_worker_factory wraps any Unit -> Unit computation in a
// protocol-compliant worker process ("the master and worker manifolds are
// easy to write as C wrappers around the original C subroutines", §5).  A
// worker that cannot deliver its result skips steps 3 and 4 and raises
// crash_worker, which the supervised Create_Worker_Pool answers with a
// re-dispatch.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/protocol.hpp"
#include "fault/fault_plan.hpp"

namespace mg::mw {

/// The worker's computational job: consumes the work unit, returns the
/// result unit.  Must not touch shared state (the IWIM black-box rule).
using WorkFn = std::function<iwim::Unit(const iwim::Unit&)>;

/// What the workers actually injected (atomics: workers run on their own
/// threads).  Shared by every incarnation a factory creates.
struct InjectionStats {
  std::atomic<std::size_t> crashes{0};
  std::atomic<std::size_t> hangs{0};
  std::atomic<std::size_t> corruptions{0};

  void merge_into(fault::FaultCounters& c) const {
    c.crashes_injected += crashes.load(std::memory_order_relaxed);
    c.hangs_injected += hangs.load(std::memory_order_relaxed);
    c.corruptions_injected += corruptions.load(std::memory_order_relaxed);
  }
};

/// Produces a WorkerFactory for protocol_mw / run_main_program.  Each
/// created worker has kind `kind` (task weights key off it) and name
/// "<kind><index>".  A worker whose work throws reports the error on its
/// error port and raises `crash_worker` instead of `death_worker`, with no
/// result: the pool re-dispatches its unit.
///
/// `plan`, when non-null, injects seeded faults per *incarnation index*
/// (deterministic in the seed, regardless of thread interleaving):
///
///  - Crash:   the worker reads its work unit, then dies raising
///             `crash_worker` — no result, no death_worker.
///  - Hang:    the worker reads its work unit and blocks forever; only the
///             coordinator's deadline kill releases it.
///  - Corrupt: the worker computes but its result is "corrupted in
///             transport": discarded, and crash_worker raised instead.
///
/// `stats`, when non-null, accumulates the injections actually performed.
WorkerFactory make_worker_factory(WorkFn work,
                                  std::shared_ptr<const fault::FaultPlan> plan = nullptr,
                                  std::shared_ptr<InjectionStats> stats = nullptr,
                                  std::string kind = "Worker");

}  // namespace mg::mw
