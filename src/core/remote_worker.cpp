#include "core/remote_worker.hpp"

#include <utility>

#include "core/marshal.hpp"
#include "net/remote.hpp"
#include "transport/subsolve.hpp"

namespace mg::mw {

WorkerFactory make_remote_worker_factory(net::RemoteEndpoint& endpoint, std::string kind) {
  net::RemoteEndpoint* ep = &endpoint;
  return [ep, kind = std::move(kind)](iwim::Runtime& runtime,
                                      std::size_t index) -> std::shared_ptr<iwim::Process> {
    return runtime.create_process(
        kind, kind + std::to_string(index), [ep](iwim::ProcessContext& ctx) {
          const iwim::Unit job = ctx.read("input");  // worker step 1
          const auto& item = job.as<WorkItem>();

          // Worker step 2, delegated across the wire.  The cancellation hook
          // lets a deadline kill() release the proxy mid-trip; the endpoint
          // then retires the lease, so a late result is dropped, never read.
          iwim::Process& self = ctx.self();
          net::RemoteEndpoint::RoundTrip trip =
              ep->round_trip(encode_work_item(item), [&self] { return self.killed(); });

          if (self.killed()) return;  // killed workers unwind silently

          if (!trip.ok) {
            // Peer disconnect / timeout / corrupt stream == worker crash.
            ctx.trace("remote round trip failed: " + trip.error, "remote_worker.cpp", __LINE__);
            ctx.raise(ProtocolEvents::crash_worker);
            return;
          }

          try {
            ResultItem result = decode_result_item(trip.payload);
            ctx.write(iwim::Unit::of(std::move(result)), "output");  // worker step 3
          } catch (const std::exception& e) {
            // A reply that decodes wrong is transport corruption: same
            // observable as a crash, never a fake result.
            ctx.trace(std::string("remote result rejected: ") + e.what(), "remote_worker.cpp",
                      __LINE__);
            ctx.raise(ProtocolEvents::crash_worker);
            return;
          }
          ctx.raise(ProtocolEvents::death_worker);  // worker step 4
        });
  };
}

int run_subsolve_worker(const std::string& host, std::uint16_t port) {
  return net::run_worker_loop(host, port, [](const std::vector<std::uint8_t>& work) {
    return encode_result_item(execute_work_item(decode_work_item(work)));
  });
}

}  // namespace mg::mw
