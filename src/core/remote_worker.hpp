// The TCP substrate's entry points into the unchanged protocol.
//
// make_remote_worker_factory produces §4.3-shaped proxy workers: each one
// reads its WorkItem from its own input port like any other worker, but the
// computation happens in a remote process — the proxy marshals the item over
// a RemoteEndpoint round trip and reports the decoded ResultItem.  From the
// coordinator's point of view nothing changed; a failed round trip or a reply
// that does not decode surfaces as crash_worker, so peer disconnects,
// timeouts, and corrupt streams flow into the same retry/respawn/abandon
// machinery that supervises in-process workers.  The endpoint never retries
// on its own: the pool's respawn is the one retry.
//
// run_subsolve_worker is the matching worker-process main: a blocking serve
// loop that decodes WorkItems, subsolves, and returns encoded ResultItems.
#pragma once

#include <cstdint>
#include <string>

#include "core/protocol.hpp"

namespace mg::net {
class RemoteEndpoint;
}

namespace mg::mw {

/// Worker factory whose compute step is a RemoteEndpoint::round_trip.
/// Failures raise crash_worker, which the pool re-dispatches under its
/// RetryPolicy.  The endpoint must outlive the run.
WorkerFactory make_remote_worker_factory(net::RemoteEndpoint& endpoint,
                                         std::string kind = "Worker");

/// Worker-process main loop: serves subsolve work from the master at
/// host:port until the master goes away.  Returns the process exit status.
int run_subsolve_worker(const std::string& host, std::uint16_t port);

}  // namespace mg::mw
