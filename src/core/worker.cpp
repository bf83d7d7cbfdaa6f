#include "core/worker.hpp"

namespace mg::mw {

WorkerFactory make_worker_factory(WorkFn work, std::shared_ptr<const fault::FaultPlan> plan,
                                  std::shared_ptr<InjectionStats> stats, std::string kind) {
  return [work = std::move(work), plan = std::move(plan), stats = std::move(stats),
          kind = std::move(kind)](iwim::Runtime& runtime,
                                  std::size_t index) -> std::shared_ptr<iwim::Process> {
    const fault::WorkerFault fate =
        plan != nullptr ? plan->worker_fault(index) : fault::WorkerFault::None;
    return runtime.create_process(
        kind, kind + std::to_string(index), [work, stats, fate](iwim::ProcessContext& ctx) {
          const iwim::Unit job = ctx.read("input");  // worker step 1
          switch (fate) {
            case fault::WorkerFault::Crash:
              if (stats) stats->crashes.fetch_add(1, std::memory_order_relaxed);
              ctx.trace("injected crash", "worker.cpp", __LINE__);
              ctx.raise(ProtocolEvents::crash_worker);
              return;
            case fault::WorkerFault::Hang:
              if (stats) stats->hangs.fetch_add(1, std::memory_order_relaxed);
              ctx.trace("injected hang", "worker.cpp", __LINE__);
              // Await an event nobody raises: blocked until the coordinator's
              // deadline kill throws ShutdownSignal through this wait.
              ctx.await({{".never", std::nullopt}});
              return;
            case fault::WorkerFault::Corrupt: {
              // Compute for real, then lose the result at the transport
              // boundary — the coordinator sees the same thing as a crash.
              (void)work(job);
              if (stats) stats->corruptions.fetch_add(1, std::memory_order_relaxed);
              ctx.trace("injected result corruption", "worker.cpp", __LINE__);
              ctx.raise(ProtocolEvents::crash_worker);
              return;
            }
            case fault::WorkerFault::None:
              break;
          }
          try {
            iwim::Unit result = work(job);           // worker step 2
            ctx.write(std::move(result), "output");  // worker step 3
          } catch (const std::exception& e) {
            // A failure is reported honestly: crash_worker, no fake result —
            // the coordinator retries it.
            ctx.trace(std::string("worker failed: ") + e.what(), "worker.cpp", __LINE__);
            ctx.write(iwim::Unit{}, "error");
            ctx.raise(ProtocolEvents::crash_worker);
            return;
          }
          ctx.raise(ProtocolEvents::death_worker);   // worker step 4
        });
  };
}

}  // namespace mg::mw
