// JobServer — the network face of the solve service.
//
// Serves the job API frames (SubmitJob / JobStatus / JobResult / CancelJob /
// GetStats, plus Ping keepalives) on the CRC-framed codec of the worker
// transport.  The listener and every session are watches on one
// net::EventLoop thread, each session a net::FramedChannel like
// RemoteEndpoint's worker channels, so the thread count does not grow with
// the clients.  A request's engine calls take short locks and never wait.
//
// Protocol rules a session enforces:
//  * every request frame gets exactly one reply frame with the same seq;
//  * a FrameError (bad magic/CRC) or an undecodable payload is connection-
//    fatal — framing cannot resynchronise, so the session closes;
//  * a SubmitJob whose combined field does not fit in one frame (256 MiB)
//    is rejected before the engine sees it: it could not be delivered;
//  * a connection idle longer than `idle_timeout` is closed by the server
//    (any frame refreshes the clock; a submitted job until it is terminal,
//    or a reply still leaving, counts as activity);
//  * Bye closes the session after an acknowledging Bye reply.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/counter_ledger.hpp"
#include "svc/engine.hpp"

namespace mg::svc {

struct JobServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  EngineConfig engine;
  /// Close connections with no inbound frame for this long; 0 disables.
  std::chrono::milliseconds idle_timeout{0};
};

struct JobServerCounters {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t idle_closed = 0;      ///< closed by the idle timeout
  std::uint64_t protocol_errors = 0;  ///< connection-fatal frames/payloads
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t pings = 0;
};

/// One row per JobServerCounters field: registry mirror, StatsReport JSON
/// key, Prometheus family and HELP text.
inline constexpr obs::CounterRow<JobServerCounters> kJobServerCounterRows[] = {
    {&JobServerCounters::sessions_opened, "svc.server.sessions_opened", "opened",
     "svc_sessions_opened", "Client sessions opened."},
    {&JobServerCounters::sessions_closed, "svc.server.sessions_closed", "closed",
     "svc_sessions_closed", "Client sessions closed."},
    {&JobServerCounters::idle_closed, "svc.server.idle_closed", "idle_closed",
     "svc_sessions_idle_closed", "Sessions closed by the idle timeout."},
    {&JobServerCounters::protocol_errors, "svc.server.protocol_errors", "protocol_errors",
     "svc_protocol_errors", "Connection-fatal protocol errors."},
    {&JobServerCounters::frames_received, "svc.server.frames_received", "frames_received",
     "svc_frames_received", "Frames received on client sessions."},
    {&JobServerCounters::frames_sent, "svc.server.frames_sent", "frames_sent",
     "svc_frames_sent", "Frames sent on client sessions."},
    {&JobServerCounters::pings, "svc.server.pings", "pings", "svc_pings",
     "Ping keepalives served."},
};

struct ServiceStats;

class JobServer {
 public:
  /// Binds and starts serving immediately.  Throws net::SocketError when the
  /// address cannot be bound.
  explicit JobServer(JobServerConfig config = {});
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// The multi-tenant engine behind the wire API (for in-process tests and
  /// for embedding the service without a socket in front).
  SolveEngine& engine() { return engine_; }

  JobServerCounters counters() const { return counters_.snapshot(); }

  /// Point-in-time service view (also served over the wire as GetStats ->
  /// StatsReport).  Safe to call concurrently with everything else.
  ServiceStats stats() const;

  /// Closes the listener and every session on the loop thread, stops the
  /// loop and shuts the engine down.  Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Session;

  // ---- loop thread ----
  void watch_listener();
  void on_acceptable();
  void on_session_io(std::uint64_t id, short revents);
  /// Serves one request frame; false = stop reading (Bye, or closed).
  bool serve_frame(Session& session, net::Frame frame);
  /// Queues one reply; throws net::SocketError when the peer is gone.
  void reply(Session& session, net::FrameType type, std::uint64_t seq,
             std::vector<std::uint8_t> payload);
  /// Fires at the session's idle deadline, last_frame_at + idle_timeout.
  void arm_idle_timer(Session& session);
  void on_idle_timer(std::uint64_t id);
  /// Drops the session; a non-empty `protocol_error` is logged and counted.
  void close_session(std::uint64_t id, const std::string& protocol_error = {});

  JobServerConfig config_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  SolveEngine engine_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> down_{false};
  obs::CounterLedger<kJobServerCounterRows> counters_;

  // ---- loop-thread state ----
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  /// Declared last: its thread runs callbacks that use every member above.
  net::EventLoop loop_;
};

}  // namespace mg::svc
