#include "svc/job_server.hpp"

#include <poll.h>

#include <utility>

#include "net/framed_channel.hpp"
#include "obs/metrics.hpp"
#include "support/log.hpp"
#include "svc/job.hpp"
#include "svc/stats.hpp"

namespace mg::svc {

namespace {

// Fleet-wide mirrors of every server's JobServerCounters.
struct ServerMetrics {
  obs::Counter& sessions_opened = obs::registry().counter("svc.server.sessions_opened");
  obs::Counter& sessions_closed = obs::registry().counter("svc.server.sessions_closed");
  obs::Counter& idle_closed = obs::registry().counter("svc.server.idle_closed");
  obs::Counter& protocol_errors = obs::registry().counter("svc.server.protocol_errors");
  obs::Counter& frames_received = obs::registry().counter("svc.server.frames_received");
  obs::Counter& frames_sent = obs::registry().counter("svc.server.frames_sent");
  obs::Counter& pings = obs::registry().counter("svc.server.pings");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

}  // namespace

struct JobServer::Session {
  std::uint64_t id = 0;
  net::FramedChannel link;
  /// Submitted jobs not yet seen terminal: while any is live the idle timer
  /// spares the session, so a client may go quiet until its job is done.
  std::vector<std::uint64_t> jobs;
  std::chrono::steady_clock::time_point last_frame_at = std::chrono::steady_clock::now();
  std::uint64_t idle_timer = 0;
  bool closing = false;  ///< Bye answered; closes once the reply has left

  Session(std::uint64_t id_, net::EventLoop& loop, net::Socket sock)
      : id(id_), link(loop, std::move(sock)) {}
};

JobServer::JobServer(JobServerConfig config)
    : config_(std::move(config)),
      engine_(config_.engine),
      listener_(config_.host, config_.port),
      port_(listener_.port()) {
  listener_.set_nonblocking(true);
  loop_.start();
  loop_.post([this] { watch_listener(); });
}

JobServer::~JobServer() { shutdown(); }

void JobServer::watch_listener() {
  if (listener_.valid()) loop_.watch(listener_.fd(), POLLIN, [this](short) { on_acceptable(); });
}

void JobServer::on_acceptable() {
  for (;;) {
    net::Socket s;
    try {
      s = listener_.accept();  // non-blocking, TCP_NODELAY
    } catch (const net::SocketError& e) {
      // Out of fds or buffers: pause rather than spin on a readable listener.
      support::log_warn("svc: accept failed: ", e.what());
      loop_.unwatch(listener_.fd());
      loop_.post_after(std::chrono::milliseconds(100), [this] { watch_listener(); });
      return;
    }
    if (!s.valid()) return;
    const std::uint64_t id = next_session_id_++;
    const int fd = s.fd();
    auto session = std::make_unique<Session>(id, loop_, std::move(s));
    if (config_.idle_timeout.count() > 0) arm_idle_timer(*session);
    sessions_.emplace(id, std::move(session));
    loop_.watch(fd, POLLIN, [this, id](short revents) { on_session_io(id, revents); });
    bump(&JobServerCounters::sessions_opened, server_metrics().sessions_opened);
  }
}

void JobServer::on_session_io(std::uint64_t id, short revents) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  const net::FramedChannel::Served served = session.link.serve(
      revents, [this, &session](net::Frame frame) { return serve_frame(session, std::move(frame)); });
  if (served.close_reason) {
    close_session(id, served.corrupt ? *served.close_reason : std::string());
  } else if (sessions_.count(id) != 0 && session.closing && session.link.flushed()) {
    close_session(id);
  }
}

bool JobServer::serve_frame(Session& session, net::Frame frame) {
  using net::FrameType;
  if (session.closing) return false;  // nothing after a Bye is served
  session.last_frame_at = std::chrono::steady_clock::now();
  bump(&JobServerCounters::frames_received, server_metrics().frames_received);
  const std::uint64_t seq = frame.header.seq;
  try {
    switch (frame.header.type) {
      case FrameType::SubmitJob: {
        const JobSpec spec = decode_job_spec(frame.payload);
        JobTicket ticket;
        if (const std::uint64_t bytes = combined_field_bytes(spec.root, spec.level);
            bytes > net::FrameDecoder::kDefaultMaxPayload) {
          ticket.reason = "result too large: " + std::to_string(bytes) + " bytes, over the " +
                          std::to_string(net::FrameDecoder::kDefaultMaxPayload) + "-byte frame cap";
        } else {
          ticket = engine_.submit(spec);
          if (ticket.accepted) session.jobs.push_back(ticket.job_id);
        }
        reply(session, FrameType::JobAccepted, seq, encode_job_ticket(ticket));
        break;
      }
      case FrameType::JobStatus:
        reply(session, FrameType::JobStatus, seq,
              encode_job_status(engine_.status(decode_job_ref(frame.payload))));
        break;
      case FrameType::JobResult:
        reply(session, FrameType::JobResult, seq,
              encode_job_result(engine_.result(decode_job_ref(frame.payload))));
        break;
      case FrameType::CancelJob:
        reply(session, FrameType::JobStatus, seq,
              encode_job_status(engine_.cancel(decode_job_ref(frame.payload))));
        break;
      case FrameType::GetStats:
        reply(session, FrameType::StatsReport, seq, encode_service_stats(stats()));
        break;
      case FrameType::Ping:
        bump(&JobServerCounters::pings, server_metrics().pings);
        reply(session, FrameType::Pong, seq, std::move(frame.payload));
        break;
      case FrameType::Bye:
        reply(session, FrameType::Bye, seq, {});
        session.closing = true;  // on_session_io closes once the ack has left
        return false;
      default:
        // Worker-transport types or a stray Pong: a protocol violation.
        close_session(session.id, std::string("unexpected ") + net::to_string(frame.header.type));
        return false;
    }
  } catch (const net::SocketError&) {
    close_session(session.id);  // the peer left before its reply went out
    return false;
  } catch (const std::exception& e) {
    close_session(session.id, e.what());  // undecodable payload
    return false;
  }
  return true;
}

void JobServer::reply(Session& session, net::FrameType type, std::uint64_t seq,
                      std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> header =
      net::encode_frame_header(type, seq, payload.data(), payload.size());
  session.link.send(std::move(header), std::move(payload));
  bump(&JobServerCounters::frames_sent, server_metrics().frames_sent);
}

void JobServer::arm_idle_timer(Session& session) {
  const auto left = session.last_frame_at + config_.idle_timeout - std::chrono::steady_clock::now();
  const std::uint64_t id = session.id;
  session.idle_timer = loop_.post_after(std::chrono::ceil<std::chrono::milliseconds>(left),
                                        [this, id] { on_idle_timer(id); });
}

void JobServer::on_idle_timer(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  const auto now = std::chrono::steady_clock::now();
  if (now - session.last_frame_at >= config_.idle_timeout) {
    std::erase_if(session.jobs, [this](std::uint64_t job) {
      const JobStatusInfo info = engine_.status(job);
      return !info.known || is_terminal(info.state);
    });
    if (session.jobs.empty() && session.link.flushed()) {
      bump(&JobServerCounters::idle_closed, server_metrics().idle_closed);
      close_session(id);
      return;
    }
    session.last_frame_at = now;  // a live job or a reply still leaving is activity
  }
  arm_idle_timer(session);
}

void JobServer::close_session(std::uint64_t id, const std::string& protocol_error) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (!protocol_error.empty()) {
    support::log_warn("svc: session ", id, " protocol error: ", protocol_error);
    bump(&JobServerCounters::protocol_errors, server_metrics().protocol_errors);
  }
  loop_.unwatch(it->second->link.fd());
  loop_.cancel_timer(it->second->idle_timer);
  sessions_.erase(it);  // closes the socket
  bump(&JobServerCounters::sessions_closed, server_metrics().sessions_closed);
}

void JobServer::bump(std::uint64_t JobServerCounters::*field, obs::Counter& mirror) {
  mirror.add();
  std::lock_guard<std::mutex> lock(counters_mutex_);
  ++(counters_.*field);
}

JobServerCounters JobServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

ServiceStats JobServer::stats() const {
  ServiceStats stats;
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_)
          .count();
  stats.lanes = engine_.lanes();
  stats.busy_lanes = engine_.busy_lanes();
  stats.running_jobs = engine_.running_jobs();
  stats.queued_jobs = engine_.queued_jobs();
  stats.terminal_jobs = engine_.terminal_jobs();
  stats.scheduler = engine_.scheduler_counters();
  stats.engine = engine_.counters();
  stats.server = counters();
  stats.fleet = engine_.fleet_counters();
  stats.tenants = engine_.active_statuses();
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const auto task_it = snap.histograms.find("svc.task_seconds");
  if (task_it != snap.histograms.end()) stats.task_seconds = task_it->second;
  const auto job_it = snap.histograms.find("svc.job_seconds");
  if (job_it != snap.histograms.end()) stats.job_seconds = job_it->second;
  return stats;
}

void JobServer::shutdown() {
  if (!down_.exchange(true, std::memory_order_acq_rel)) {
    loop_.post([this] {
      loop_.unwatch(listener_.fd());
      listener_.close();
      while (!sessions_.empty()) close_session(sessions_.begin()->first);
    });
    loop_.stop();  // runs the close-all above before the loop thread exits
  }
  engine_.shutdown();
}

}  // namespace mg::svc
