// RemoteEndpoint — the master-side network substrate that carries marshalled
// work units to worker processes over TCP and brings their results back.
//
// The paper's point is that the coordination protocol does not change when
// the transport does: ProtocolMW ran shared-memory and distributed by
// swapping the MLINK/CONFIG mapping.  This file is that swap for the
// reproduction.  The endpoint accepts connections from worker processes
// (local forks or remote joins), keeps up to `pipeline_depth` seq-tagged
// work units in flight on each channel, and exposes a blocking round_trip()
// that the remote-proxy workers of core/remote_worker.cpp and the service
// lanes of svc/engine.cpp call.
//
// The endpoint is a transport that never retries.  A lease ends in one of
// three ways: its Result or Error arrives, its caller cancels it, or its
// channel dies — and then the round trip fails back to the caller, whose own
// retry (the worker pool's respawn, the service's attempt loop)
// re-submits it.  So the coordinator keeps the one policy that matters, who
// retries a lost unit, exactly as it supervised threads.
//
// Frame-level fault injection (drop / delay / truncate on the master's TX
// path) reuses the seeded fault::FaultPlan: every work-frame send consumes a
// transfer ordinal, so the set of injected faults is a pure function of the
// seed, independent of scheduling.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/counter_ledger.hpp"

namespace mg::net {

struct RemoteEndpointConfig {
  /// Hard cap on one lease-dispatch-collect cycle; 0 = wait forever.  This
  /// bounds a dropped frame even when no RetryPolicy deadline is armed.
  std::chrono::milliseconds round_trip_deadline{10'000};
  /// Frame-level fault injection on the work path (drop / delay / truncate,
  /// probabilities from the plan's net_* knobs).  Not owned; may be null.
  const fault::FaultPlan* faults = nullptr;
  /// Cross-process telemetry: prepend a trace context to every Work payload
  /// and merge the worker's piggybacked counter/span batch from the Result.
  /// A pure observer either way — result bytes are delivered verbatim.
  bool telemetry = true;
  /// Seq-tagged work units a channel may have on the wire at once, completed
  /// out of order — the pipelining that overlaps wire latency with worker
  /// compute.  Clamped to [1, 64] and fixed at construction.
  std::size_t pipeline_depth = 4;
};

/// Point-in-time copy of the endpoint's counters (also mirrored into the
/// global obs registry under net.* and fleet.*; see kRemoteCounterRows).
struct RemoteCounters {
  std::uint64_t accepts = 0;          ///< handshakes completed
  std::uint64_t reconnects = 0;       ///< handshakes with connect attempt > 0
  std::uint64_t disconnects = 0;      ///< channels closed for any reason
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t crc_errors = 0;       ///< decoder-fatal streams (CRC, magic)
  std::uint64_t round_trips_ok = 0;
  std::uint64_t round_trips_failed = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_truncated = 0;
  std::uint64_t telemetry_batches = 0;   ///< worker batches merged
  std::uint64_t telemetry_spans = 0;     ///< worker spans re-timed + merged
  std::uint64_t telemetry_rejected = 0;  ///< malformed batches dropped (job unaffected)
  /// Microseconds trips spent queued before their first dispatch — the
  /// dispatch-stall time pipelining exists to shrink (net_bench reads this).
  std::uint64_t dispatch_stall_micros = 0;
  // Fleet churn, in the fleet.* names every substrate writes.
  std::uint64_t fleet_joins = 0;       ///< handshakes accepted into the lease set
  std::uint64_t fleet_leaves = 0;      ///< graceful departures (disrupt)
  std::uint64_t fleet_crashes = 0;     ///< abrupt departures (disrupt)
  std::uint64_t fleet_duplicates = 0;  ///< late replies for retired seqs, dropped

  /// The fleet_* fields as the one fleet ledger every substrate fills.
  fleet::FleetCounters fleet() const {
    return {fleet_joins, fleet_leaves, fleet_crashes, fleet_duplicates};
  }
};

/// One row per RemoteCounters field: its registry mirror.
inline constexpr obs::CounterRow<RemoteCounters> kRemoteCounterRows[] = {
    {&RemoteCounters::accepts, "net.accepts"},
    {&RemoteCounters::reconnects, "net.reconnects"},
    {&RemoteCounters::disconnects, "net.disconnects"},
    {&RemoteCounters::frames_sent, "net.frames_sent"},
    {&RemoteCounters::frames_received, "net.frames_received"},
    {&RemoteCounters::bytes_sent, "net.bytes_sent"},
    {&RemoteCounters::bytes_received, "net.bytes_received"},
    {&RemoteCounters::crc_errors, "net.crc_errors"},
    {&RemoteCounters::round_trips_ok, "net.round_trips_ok"},
    {&RemoteCounters::round_trips_failed, "net.round_trips_failed"},
    {&RemoteCounters::faults_dropped, "net.faults_dropped"},
    {&RemoteCounters::faults_delayed, "net.faults_delayed"},
    {&RemoteCounters::faults_truncated, "net.faults_truncated"},
    {&RemoteCounters::telemetry_batches, "net.telemetry_batches"},
    {&RemoteCounters::telemetry_spans, "net.telemetry_spans"},
    {&RemoteCounters::telemetry_rejected, "net.telemetry_rejected"},
    {&RemoteCounters::dispatch_stall_micros, "net.dispatch_stall_micros"},
    {&RemoteCounters::fleet_joins, "fleet.joins"},
    {&RemoteCounters::fleet_leaves, "fleet.leaves"},
    {&RemoteCounters::fleet_crashes, "fleet.crashes"},
    {&RemoteCounters::fleet_duplicates, "fleet.duplicates"},
};

class RemoteEndpoint {
 public:
  struct RoundTrip {
    bool ok = false;
    std::vector<std::uint8_t> payload;  ///< result payload when ok
    std::string error;                  ///< failure reason otherwise
  };

  /// Adopts a bound listener (created before any worker fork; see
  /// TcpListener) and starts the event loop.
  explicit RemoteEndpoint(TcpListener listener, RemoteEndpointConfig config = {});
  ~RemoteEndpoint();

  RemoteEndpoint(const RemoteEndpoint&) = delete;
  RemoteEndpoint& operator=(const RemoteEndpoint&) = delete;

  std::uint16_t port() const { return port_; }

  /// Channels that have completed the Hello handshake and are usable.
  std::size_t connected() const { return connected_.load(std::memory_order_acquire); }

  /// Blocks until at least n workers are connected; false on timeout.
  bool wait_for_workers(std::size_t n, std::chrono::milliseconds timeout);

  /// Leases the channel with the most spare window, sends `work` as one
  /// frame, and blocks until the matching Result/Error frame arrives or the
  /// channel dies; the endpoint never re-sends it.  `cancelled` (optional)
  /// is polled while waiting so a killed proxy process can abandon the
  /// wait: a cancelled lease is retired and its channel lives on, while a
  /// timed-out one closes its channel (the worker will reconnect fresh).
  /// Thread-safe.  `job_id` (optional) tags the dispatch's trace context so
  /// worker spans can be attributed to a service job.
  RoundTrip round_trip(std::vector<std::uint8_t> work,
                       const std::function<bool()>& cancelled = {},
                       std::uint64_t job_id = 0);

  /// Fleet churn hook: closes the most-loaded connected channel, as a spot
  /// instance leaving (`graceful`) or crashing.  The channel's round trips
  /// fail back to their callers and the worker reconnects fresh; a no-op
  /// when no channel is connected.  Thread-safe.
  void disrupt(bool graceful);

  /// Stops accepting, closes every channel (workers see EOF and eventually
  /// give up reconnecting), fails pending trips, and joins the loop thread.
  /// Idempotent; also run by the destructor.
  void shutdown();

  RemoteCounters counters() const { return counters_.snapshot(); }

  /// The clamped per-channel window this endpoint was built with.
  std::size_t pipeline_depth() const { return config_.pipeline_depth; }

  /// Readiness backend the endpoint's loop resolved to ("epoll" / "poll").
  const char* poller_name() const;

 private:
  struct Channel;
  struct Trip;

  void setup_on_loop();
  void on_acceptable();
  void on_channel_io(std::uint64_t id, short revents);
  void handle_frame(Channel& ch, Frame frame);
  void close_channel(std::uint64_t id, const std::string& reason);
  void try_dispatch();
  void dispatch(Channel& ch, std::shared_ptr<Trip> trip);
  void enqueue_frame(Channel& ch, std::vector<std::uint8_t> header,
                     std::vector<std::uint8_t> payload);
  void fail_trip(const std::shared_ptr<Trip>& trip, const std::string& error);
  void complete_trip(const std::shared_ptr<Trip>& trip, std::vector<std::uint8_t> payload);
  void retire_seq(std::uint64_t seq);
  bool seq_retired(std::uint64_t seq) const;

  RemoteEndpointConfig config_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  EventLoop loop_;

  // ---- loop-thread state ----
  std::map<std::uint64_t, std::unique_ptr<Channel>> channels_;
  std::deque<std::shared_ptr<Trip>> pending_trips_;
  std::uint64_t next_channel_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t transfer_ordinal_ = 0;  ///< work-frame sends, for the fault plan
  std::uint64_t trace_id_ = 0;          ///< one per endpoint (pid + ordinal)
  std::uint64_t next_span_id_ = 1;      ///< dispatch span ids within the trace
  /// Ring of recently completed lease seqs: a Result or Error bearing one of
  /// these is a cancelled lease's (or a repeated reply's) late echo, dropped
  /// without closing the channel.  Any other unexpected seq is a protocol
  /// violation.
  std::vector<std::uint64_t> retired_seqs_;
  std::size_t retired_next_ = 0;

  // ---- shared state ----
  std::atomic<std::size_t> connected_{0};
  std::atomic<bool> down_{false};
  mutable std::mutex workers_mutex_;
  std::condition_variable workers_cv_;
  obs::CounterLedger<kRemoteCounterRows> counters_;
};

/// Computes a worker's reply to one work payload.  Runs on the worker
/// process; a thrown exception becomes an Error frame (the master retries).
using WorkHandler =
    std::function<std::vector<std::uint8_t>(const std::vector<std::uint8_t>& work)>;

/// Blocking worker-process main loop: connect to the master, announce with
/// Hello, serve Work frames until the stream breaks, reconnect 20 ms later
/// (counting attempts in the Hello so the master can tally reconnects), and
/// exit 0 once 15 connects in a row fail to reach an answering master.
/// Returns a process exit status.
int run_worker_loop(const std::string& host, std::uint16_t port, const WorkHandler& handler);

/// Forks n worker processes running child_main; each child _exits with its
/// return value and never returns here.  Must be called while the calling
/// process is still single-threaded (i.e. before any Runtime or
/// RemoteEndpoint exists) — the canonical order is: bind the TcpListener,
/// fork the workers, then construct the RemoteEndpoint.  child_main must
/// close the inherited listener first: a child that keeps the master's
/// listening fd open holds the port alive after the master closes it, so
/// worker reconnects would connect to a socket nobody accepts on.
std::vector<int> fork_worker_processes(std::size_t n, const std::function<int()>& child_main);

/// Reaps the forked workers; returns the maximum exit status observed.
int wait_worker_processes(const std::vector<int>& pids);

/// Spot-instance churn driver: replays a ChurnPlan's Leave/Crash events
/// against a live endpoint in wall time (event offsets are seconds from the
/// call).  Join events are not the master's to make — late workers connect on
/// their own schedule — so they are skipped here.  Blocks until the last
/// event fired or `stop` became true; poll-sleeps so a finished run returns
/// promptly.
void drive_churn(RemoteEndpoint& endpoint, const fleet::ChurnPlan& plan,
                 const std::atomic<bool>& stop);

}  // namespace mg::net
