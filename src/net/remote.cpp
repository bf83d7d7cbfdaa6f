#include "net/remote.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "net/framed_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace mg::net {

namespace {

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// The endpoint's histograms and gauge; its counters are the ledger's rows
// (kRemoteCounterRows).
struct NetMetrics {
  obs::Gauge& clock_offset_seconds;
  obs::Histogram& round_trip_seconds;
  obs::Histogram& dispatch_stall_seconds;
};

NetMetrics& net_metrics() {
  static NetMetrics m{
      obs::registry().gauge("net.clock_offset_seconds"),
      obs::registry().histogram("net.round_trip_seconds", obs::default_latency_buckets()),
      obs::registry().histogram("net.dispatch_stall_seconds", obs::default_latency_buckets()),
  };
  return m;
}

}  // namespace

struct RemoteEndpoint::Trip {
  std::vector<std::uint8_t> work;
  std::uint64_t job_id = 0;  ///< caller-supplied trace attribution
  // Loop thread: the one lease carrying this trip (channel 0 = still queued).
  std::uint64_t carrier = 0;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point queued_at{};  ///< round_trip submission time

  // Telemetry (loop thread): set when a trace context was prepended to the
  // Work payload — the Result is then a telemetry envelope.
  bool context_sent = false;
  obs::TraceContext context;

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  RoundTrip result;
};

struct RemoteEndpoint::Channel {
  std::uint64_t id = 0;
  FramedChannel link;
  bool hello_seen = false;
  std::uint64_t worker_pid = 0;
  /// Leases on the wire, keyed by seq (ascending = dispatch order).  Up to
  /// pipeline_depth entries; completion is matched per seq, in any order.
  std::map<std::uint64_t, std::shared_ptr<Trip>> in_flight;

  // Telemetry: per-connection clock alignment + the trace track all of this
  // channel's dispatch and worker spans land on.
  obs::ClockOffsetEstimator offset;
  std::string track;

  Channel(std::uint64_t id_, EventLoop& loop, Socket sock)
      : id(id_), link(loop, std::move(sock)), track("tcp.ch" + std::to_string(id_)) {}
};

RemoteEndpoint::RemoteEndpoint(TcpListener listener, RemoteEndpointConfig config)
    : config_(config), listener_(std::move(listener)) {
  MG_REQUIRE(listener_.valid());
  net_metrics();  // reports list the gauge and histograms from the first endpoint on
  port_ = listener_.port();
  config_.pipeline_depth = std::clamp<std::size_t>(config_.pipeline_depth, 1, 64);
  static std::atomic<std::uint64_t> endpoint_ordinal{0};
  trace_id_ = (static_cast<std::uint64_t>(::getpid()) << 16) ^
              endpoint_ordinal.fetch_add(1, std::memory_order_relaxed);
  loop_.start();
  loop_.post([this] { setup_on_loop(); });
}

RemoteEndpoint::~RemoteEndpoint() { shutdown(); }

const char* RemoteEndpoint::poller_name() const { return loop_.poller_name(); }

void RemoteEndpoint::setup_on_loop() {
  // Blocking while single-threaded (fork-friendly), non-blocking once polled:
  // a connection that aborts between poll() and accept() must not park the
  // loop inside accept().
  listener_.set_nonblocking(true);
  loop_.watch(listener_.fd(), POLLIN, [this](short) { on_acceptable(); });
}

void RemoteEndpoint::on_acceptable() {
  for (;;) {
    Socket s = listener_.accept();
    if (!s.valid()) return;
    const std::uint64_t id = next_channel_id_++;
    const int fd = s.fd();
    channels_.emplace(id, std::make_unique<Channel>(id, loop_, std::move(s)));
    loop_.watch(fd, POLLIN, [this, id](short revents) { on_channel_io(id, revents); });
  }
}

void RemoteEndpoint::on_channel_io(std::uint64_t id, short revents) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return;
  Channel& ch = *it->second;
  const FramedChannel::Served served = ch.link.serve(revents, [this, &ch, id](Frame frame) {
    counters_.bump(&RemoteCounters::frames_received);
    handle_frame(ch, std::move(frame));
    return channels_.count(id) != 0;  // false: the handler closed the channel
  });
  counters_.bump(&RemoteCounters::bytes_received, served.bytes_read);
  if (served.corrupt) counters_.bump(&RemoteCounters::crc_errors);
  if (served.close_reason) close_channel(id, *served.close_reason);
}

void RemoteEndpoint::handle_frame(Channel& ch, Frame frame) {
  switch (frame.header.type) {
    case FrameType::Hello: {
      // pid, connect attempt, f64 wall-clock sample (24 bytes).
      if (ch.hello_seen || frame.payload.size() != 24) {
        close_channel(ch.id, "protocol violation: bad Hello");
        return;
      }
      ch.hello_seen = true;
      ch.worker_pid = get_u64(frame.payload.data());
      const std::uint64_t attempt = get_u64(frame.payload.data() + 8);
      // Coarse one-way seed: refined by the first round trip's NTP-style
      // two-sided sample, but good enough to align spans immediately.
      const std::uint64_t bits = get_u64(frame.payload.data() + 16);
      double sample = 0.0;
      std::memcpy(&sample, &bits, sizeof sample);
      ch.offset.seed(obs::wall_clock_seconds(), sample);
      counters_.bump(&RemoteCounters::accepts);
      if (attempt > 0) counters_.bump(&RemoteCounters::reconnects);
      counters_.bump(&RemoteCounters::fleet_joins);
      connected_.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lk(workers_mutex_);
      }
      workers_cv_.notify_all();
      try_dispatch();
      return;
    }
    case FrameType::Result:
    case FrameType::Error: {
      const auto lease = ch.in_flight.find(frame.header.seq);
      if (lease == ch.in_flight.end()) {
        if (seq_retired(frame.header.seq)) {
          // Late echo of a lease that already ended (cancelled, or answered
          // twice), not a protocol violation.
          counters_.bump(&RemoteCounters::fleet_duplicates);
          return;
        }
        close_channel(ch.id, std::string("protocol violation: unexpected ") +
                                 to_string(frame.header.type) + " seq");
        return;
      }
      auto trip = std::move(lease->second);
      ch.in_flight.erase(lease);
      retire_seq(frame.header.seq);
      if (frame.header.type == FrameType::Error) {
        // The worker is healthy — its computation failed.  Fail the trip but
        // keep the channel; the caller decides whether to retry.
        fail_trip(trip, "worker error: " +
                            std::string(frame.payload.begin(), frame.payload.end()));
        try_dispatch();
        return;
      }
      if (!trip->context_sent) {
        complete_trip(trip, std::move(frame.payload));
        try_dispatch();
        return;
      }
      // Context was sent, so the Result is a telemetry envelope.  The
      // envelope framing itself must be sound (else the stream is suspect),
      // but a malformed telemetry *blob* inside it only costs us the
      // telemetry: the result bytes are delivered and the job proceeds on
      // local-only metrics.
      obs::ResultEnvelope env;
      try {
        env = obs::unwrap_result(frame.payload);
      } catch (const support::DecodeError& e) {
        const std::string reason = std::string("protocol violation: ") + e.what();
        fail_trip(trip, reason);  // its lease is already off the channel
        close_channel(ch.id, reason);
        return;
      }
      const double t3 = obs::wall_clock_seconds();
      if (!env.telemetry.empty()) {
        try {
          const obs::TelemetryBatch batch = obs::decode_telemetry_batch(env.telemetry);
          ch.offset.update(trip->context.master_send_seconds, batch.worker_recv_seconds,
                           batch.worker_send_seconds, t3);
          net_metrics().clock_offset_seconds.set(ch.offset.offset_seconds());
          // The master-side dispatch span and the worker's re-timed spans
          // share this channel's track, so the worker spans nest under the
          // dispatch on the merged timeline.
          obs::tracer().record({"dispatch", "net", ch.track,
                                trip->context.master_send_seconds, t3});
          obs::merge_telemetry_batch(batch, ch.offset, ch.track,
                                     trip->context.master_send_seconds, t3,
                                     obs::registry(), obs::tracer());
          counters_.bump(&RemoteCounters::telemetry_batches);
          counters_.bump(&RemoteCounters::telemetry_spans, batch.spans.size());
        } catch (const support::DecodeError&) {
          counters_.bump(&RemoteCounters::telemetry_rejected);
        }
      }
      complete_trip(trip, std::move(env.result));
      try_dispatch();
      return;
    }
    case FrameType::Bye:
      close_channel(ch.id, "worker said Bye");
      return;
    case FrameType::Work:
      close_channel(ch.id, "protocol violation: Work frame from worker");
      return;
    default:
      break;  // job-API / stats frames have no business on a worker channel
  }
  close_channel(ch.id, "protocol violation: unknown frame type");
}

void RemoteEndpoint::close_channel(std::uint64_t id, const std::string& reason) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return;
  Channel& ch = *it->second;
  loop_.unwatch(ch.link.fd());
  if (ch.hello_seen) {
    connected_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(workers_mutex_);
    }
    workers_cv_.notify_all();
  }
  counters_.bump(&RemoteCounters::disconnects);
  // The endpoint never re-sends: every lease on a dead channel fails back to
  // its caller, whose own retry owns the unit from here.
  for (auto& [seq, trip] : ch.in_flight) fail_trip(trip, "channel closed: " + reason);
  channels_.erase(it);
}

void RemoteEndpoint::try_dispatch() {
  // Place each queued trip on the channel with the most spare window, so
  // trips spread before they stack.
  while (!pending_trips_.empty()) {
    Channel* target = nullptr;
    for (auto& [id, ch] : channels_) {
      if (!ch->hello_seen || ch->in_flight.size() >= config_.pipeline_depth) continue;
      if (target == nullptr || ch->in_flight.size() < target->in_flight.size()) {
        target = ch.get();
      }
    }
    if (target == nullptr) return;
    auto trip = std::move(pending_trips_.front());
    pending_trips_.pop_front();
    {
      std::lock_guard<std::mutex> lk(trip->m);
      if (trip->done) continue;  // aborted while queued
    }
    dispatch(*target, std::move(trip));
  }
}

void RemoteEndpoint::dispatch(Channel& ch, std::shared_ptr<Trip> trip) {
  const std::uint64_t seq = next_seq_++;
  trip->carrier = ch.id;
  trip->seq = seq;
  ch.in_flight[seq] = trip;
  // Dispatch stall: queue-entry to placement.  This is the wait pipelining
  // exists to shrink — with a wide enough window it is the post() hop, with
  // a saturated one it is a full round trip.
  const auto stall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - trip->queued_at);
  const std::uint64_t micros = stall.count() > 0 ? static_cast<std::uint64_t>(stall.count()) : 0;
  counters_.bump(&RemoteCounters::dispatch_stall_micros, micros);
  net_metrics().dispatch_stall_seconds.observe(static_cast<double>(micros) * 1e-6);
  const std::uint64_t ordinal = transfer_ordinal_++;
  std::vector<std::uint8_t> payload;
  if (config_.telemetry) {
    trip->context.trace_id = trace_id_;
    trip->context.span_id = next_span_id_++;
    trip->context.job_id = trip->job_id;
    trip->context.master_send_seconds = obs::wall_clock_seconds();
    trip->context_sent = true;
    payload = obs::prepend_context(trip->context, trip->work);
  } else {
    payload = std::move(trip->work);  // a trip is sent at most once
  }
  std::vector<std::uint8_t> header =
      encode_frame_header(FrameType::Work, seq, payload.data(), payload.size());

  const fault::FaultPlan* plan = config_.faults;
  if (plan != nullptr) {
    if (plan->drops_transfer(ordinal)) {
      // Vanish the frame: the trip rides to its deadline, which closes the
      // channel — exactly what a blackholed packet looks like from above.
      counters_.bump(&RemoteCounters::faults_dropped);
      return;
    }
    if (plan->truncates_transfer(ordinal)) {
      // Send a prefix and cut the connection: the worker's decoder sees a
      // short stream, the trip fails fast, the worker reconnects.  Rare
      // path, so materialising the contiguous frame to halve it is fine.
      counters_.bump(&RemoteCounters::faults_truncated);
      std::vector<std::uint8_t> bytes = std::move(header);
      bytes.insert(bytes.end(), payload.begin(), payload.end());
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2));
      try {
        enqueue_frame(ch, std::move(prefix), {});
      } catch (const SocketError&) {
      }
      close_channel(ch.id, "injected truncation");
      return;
    }
    if (plan->transfer_slowdown(ordinal) > 1.0) {
      counters_.bump(&RemoteCounters::faults_delayed);
      const std::uint64_t channel_id = ch.id;
      loop_.post_after(plan->config().net_delay,
                       [this, channel_id, seq, trip, header = std::move(header),
                        payload = std::move(payload)]() mutable {
                         const auto it = channels_.find(channel_id);
                         if (it == channels_.end()) return;
                         const auto lease = it->second->in_flight.find(seq);
                         if (lease == it->second->in_flight.end() || lease->second != trip) {
                           return;  // lease completed/cancelled while delayed
                         }
                         try {
                           enqueue_frame(*it->second, std::move(header), std::move(payload));
                         } catch (const SocketError& e) {
                           close_channel(channel_id, e.what());
                         }
                       });
      return;
    }
  }

  try {
    enqueue_frame(ch, std::move(header), std::move(payload));
  } catch (const SocketError& e) {
    close_channel(ch.id, e.what());
  }
}

void RemoteEndpoint::enqueue_frame(Channel& ch, std::vector<std::uint8_t> header,
                                   std::vector<std::uint8_t> payload) {
  counters_.bump(&RemoteCounters::frames_sent);
  counters_.bump(&RemoteCounters::bytes_sent, header.size() + payload.size());
  ch.link.send(std::move(header), std::move(payload));
}

void RemoteEndpoint::fail_trip(const std::shared_ptr<Trip>& trip, const std::string& error) {
  {
    std::lock_guard<std::mutex> lk(trip->m);
    if (trip->done) return;
    trip->done = true;
    trip->result.ok = false;
    trip->result.error = error;
  }
  trip->cv.notify_all();
}

void RemoteEndpoint::complete_trip(const std::shared_ptr<Trip>& trip,
                                   std::vector<std::uint8_t> payload) {
  {
    std::lock_guard<std::mutex> lk(trip->m);
    if (trip->done) return;
    trip->done = true;
    trip->result.ok = true;
    trip->result.payload = std::move(payload);
  }
  trip->cv.notify_all();
}

void RemoteEndpoint::retire_seq(std::uint64_t seq) {
  constexpr std::size_t kRetiredRing = 256;
  if (retired_seqs_.size() < kRetiredRing) {
    retired_seqs_.push_back(seq);
  } else {
    retired_seqs_[retired_next_] = seq;
    retired_next_ = (retired_next_ + 1) % kRetiredRing;
  }
}

bool RemoteEndpoint::seq_retired(std::uint64_t seq) const {
  return std::find(retired_seqs_.begin(), retired_seqs_.end(), seq) != retired_seqs_.end();
}

bool RemoteEndpoint::wait_for_workers(std::size_t n, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(workers_mutex_);
  workers_cv_.wait_for(lk, timeout, [&] {
    return connected_.load(std::memory_order_acquire) >= n ||
           down_.load(std::memory_order_acquire);
  });
  return connected_.load(std::memory_order_acquire) >= n;
}

RemoteEndpoint::RoundTrip RemoteEndpoint::round_trip(std::vector<std::uint8_t> work,
                                                     const std::function<bool()>& cancelled,
                                                     std::uint64_t job_id) {
  using clock = std::chrono::steady_clock;
  if (down_.load(std::memory_order_acquire)) {
    return RoundTrip{false, {}, "endpoint is shut down"};
  }

  auto trip = std::make_shared<Trip>();
  trip->work = std::move(work);
  trip->job_id = job_id;
  const auto start = clock::now();
  trip->queued_at = start;
  const bool has_deadline = config_.round_trip_deadline.count() > 0;
  const auto deadline = start + config_.round_trip_deadline;

  loop_.post([this, trip] {
    if (down_.load(std::memory_order_acquire)) {
      fail_trip(trip, "endpoint is shut down");
      return;
    }
    pending_trips_.push_back(trip);
    try_dispatch();
  });

  // Wait in short slices so a killed proxy process (cancelled()) or the trip
  // deadline can break in; both abort paths run on the loop thread so every
  // completion is serialised there.
  std::unique_lock<std::mutex> lk(trip->m);
  while (!trip->done) {
    trip->cv.wait_for(lk, std::chrono::milliseconds(50), [&] { return trip->done; });
    if (trip->done) break;
    const bool want_cancel = cancelled && cancelled();
    const bool timed_out = has_deadline && clock::now() >= deadline;
    const bool went_down = down_.load(std::memory_order_acquire) && !loop_.running();
    if (!want_cancel && !timed_out && !went_down) continue;
    lk.unlock();
    if (went_down) {
      // Loop thread is gone; nobody else can touch this trip.
      fail_trip(trip, "endpoint is shut down");
    } else {
      const std::string reason = timed_out ? "round trip deadline exceeded" : "cancelled";
      // A timeout means the frame (or its Result) is lost or the worker is
      // stuck — the channel must die so the worker reconnects with a fresh
      // stream.  A cancellation is the master's own choice: the lease is
      // retired and the channel lives; the late Result is recognised by its
      // retired seq and dropped.
      loop_.post([this, trip, reason, timed_out] {
        {
          std::lock_guard<std::mutex> inner(trip->m);
          if (trip->done) return;
        }
        fail_trip(trip, reason);
        if (trip->carrier == 0) {
          const auto it = std::find(pending_trips_.begin(), pending_trips_.end(), trip);
          if (it != pending_trips_.end()) pending_trips_.erase(it);
        } else if (timed_out) {
          close_channel(trip->carrier, reason);
        } else {
          const auto it = channels_.find(trip->carrier);
          if (it != channels_.end()) it->second->in_flight.erase(trip->seq);
          retire_seq(trip->seq);
          try_dispatch();  // the freed wire slot can take queued work
        }
      });
    }
    lk.lock();
    trip->cv.wait(lk, [&] { return trip->done; });
    break;
  }

  RoundTrip result = std::move(trip->result);
  lk.unlock();
  if (result.ok) {
    counters_.bump(&RemoteCounters::round_trips_ok);
    net_metrics().round_trip_seconds.observe(
        std::chrono::duration<double>(clock::now() - start).count());
  } else {
    counters_.bump(&RemoteCounters::round_trips_failed);
  }
  return result;
}

void RemoteEndpoint::shutdown() {
  const bool first = !down_.exchange(true, std::memory_order_acq_rel);
  if (first && loop_.running()) {
    loop_.post([this] {
      for (auto& trip : pending_trips_) fail_trip(trip, "endpoint shut down");
      pending_trips_.clear();
      while (!channels_.empty()) close_channel(channels_.begin()->first, "endpoint shut down");
      if (listener_.valid()) {
        loop_.unwatch(listener_.fd());
        listener_.close();
      }
    });
  }
  loop_.stop();
  {
    std::lock_guard<std::mutex> lk(workers_mutex_);
  }
  workers_cv_.notify_all();
}

void RemoteEndpoint::disrupt(bool graceful) {
  loop_.post([this, graceful] {
    if (down_.load(std::memory_order_acquire)) return;
    Channel* busiest = nullptr;
    for (auto& [id, ch] : channels_) {
      if (!ch->hello_seen) continue;
      if (busiest == nullptr || ch->in_flight.size() > busiest->in_flight.size()) {
        busiest = ch.get();
      }
    }
    if (busiest == nullptr) return;
    if (graceful) {
      counters_.bump(&RemoteCounters::fleet_leaves);
    } else {
      counters_.bump(&RemoteCounters::fleet_crashes);
    }
    close_channel(busiest->id, graceful ? "churn: worker left" : "churn: worker crashed");
  });
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

namespace {

// Worker-process metrics.  Bumped inside the telemetry capture window so
// they ship to the master as worker-tagged deltas (worker.pid<N>.net.*).
struct WorkerMetrics {
  obs::Counter& works_handled;
  obs::Counter& work_bytes;
  obs::Counter& result_bytes;
};

WorkerMetrics& worker_metrics() {
  static WorkerMetrics m{
      obs::registry().counter("net.worker.works_handled"),
      obs::registry().counter("net.worker.work_bytes"),
      obs::registry().counter("net.worker.result_bytes"),
  };
  return m;
}

/// Serves frames on one established connection.  Returns true for an orderly
/// Bye (exit the worker), false to reconnect.  `engaged` is set once the
/// master sends any well-formed frame — the only proof that the handshake
/// reached a live master rather than a bare TCP accept.
bool serve_connection(Socket& sock, const WorkHandler& handler, bool& engaged) {
  FrameDecoder decoder;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    std::ptrdiff_t r;
    try {
      r = sock.recv_some(buf, sizeof buf);
    } catch (const SocketError&) {
      return false;
    }
    if (r <= 0) return false;  // EOF (blocking socket never yields -1 here)
    decoder.feed(buf, static_cast<std::size_t>(r));
    try {
      while (auto frame = decoder.next()) {
        engaged = true;
        switch (frame->header.type) {
          case FrameType::Work: {
            std::vector<std::uint8_t> out;
            try {
              // A trace-context prefix turns this trip into a telemetry
              // capture: everything the handler adds to the process-global
              // registry or tracer between begin() and end() ships back
              // piggybacked on the Result.
              const obs::SplitWork split = obs::split_context(frame->payload);
              if (split.context) {
                // The master asked for telemetry: make sure handler spans are
                // recorded.  Each session drains the tracer, so a serving
                // worker never accumulates spans across trips.
                if (!obs::tracer().enabled()) obs::enable_wall_clock(obs::tracer());
                obs::WorkerTelemetrySession session;
                session.begin();
                worker_metrics().works_handled.add();
                worker_metrics().work_bytes.add(split.work.size());
                std::vector<std::uint8_t> reply = handler(split.work);
                worker_metrics().result_bytes.add(reply.size());
                obs::TelemetryBatch batch = session.end(*split.context);
                batch.worker_pid = static_cast<std::uint64_t>(::getpid());
                out = encode_frame(FrameType::Result, frame->header.seq,
                                   obs::wrap_result(encode_telemetry_batch(batch), reply));
              } else {
                std::vector<std::uint8_t> reply = handler(split.work);
                out = encode_frame(FrameType::Result, frame->header.seq, reply);
              }
            } catch (const std::exception& e) {
              const std::string what = e.what();
              out = encode_frame(FrameType::Error, frame->header.seq,
                                 reinterpret_cast<const std::uint8_t*>(what.data()),
                                 what.size());
            }
            if (!send_all(sock, out.data(), out.size())) return false;
            break;
          }
          case FrameType::Bye:
            return true;
          default:
            return false;  // protocol violation: drop and reconnect
        }
      }
    } catch (const FrameError&) {
      return false;  // corrupt / truncated stream
    }
  }
}

}  // namespace

int run_worker_loop(const std::string& host, std::uint16_t port, const WorkHandler& handler) {
  constexpr std::chrono::milliseconds kReconnectBackoff{20};
  constexpr int kMaxConnectFailures = 15;  // in a row: the master is gone
  std::uint64_t attempt = 0;
  int consecutive_failures = 0;
  for (;;) {
    bool engaged = false;
    Socket sock = connect_tcp(host, port, std::chrono::seconds(2));
    if (sock.valid()) {
      std::uint8_t hello[24];
      put_u64(hello, static_cast<std::uint64_t>(::getpid()));
      put_u64(hello + 8, attempt);
      // Wall-clock sample for the master's coarse clock-offset seed (v2).
      const double sample = obs::wall_clock_seconds();
      std::uint64_t sample_bits = 0;
      std::memcpy(&sample_bits, &sample, sizeof sample_bits);
      put_u64(hello + 16, sample_bits);
      ++attempt;
      const std::vector<std::uint8_t> frame =
          encode_frame(FrameType::Hello, 0, hello, sizeof hello);
      // An orderly shutdown by the master ends the loop.
      if (send_all(sock, frame.data(), frame.size()) && serve_connection(sock, handler, engaged)) {
        return 0;
      }
    }
    // A bare TCP accept — even one that swallows the Hello bytes — proves
    // nothing about the master: a listener that accepts and then drops the
    // connection must burn the failure budget and back off, not hot-loop.
    // The budget resets only once the master *answers* the handshake with a
    // well-formed frame.
    if (engaged) {
      consecutive_failures = 0;
    } else if (++consecutive_failures >= kMaxConnectFailures) {
      return 0;  // master gone (or never really there)
    }
    std::this_thread::sleep_for(kReconnectBackoff);
  }
}

std::vector<int> fork_worker_processes(std::size_t n, const std::function<int()>& child_main) {
  std::vector<int> pids;
  pids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    MG_REQUIRE(pid >= 0);
    if (pid == 0) {
      int rc = 1;
      try {
        rc = child_main();
      } catch (...) {
        rc = 1;
      }
      // _exit, not exit: the child shares the parent's atexit handlers, gtest
      // state, and (under ASan) leak-check hooks — none of which should run
      // in a forked worker.
      ::_exit(rc);
    }
    pids.push_back(static_cast<int>(pid));
  }
  return pids;
}

void drive_churn(RemoteEndpoint& endpoint, const fleet::ChurnPlan& plan,
                 const std::atomic<bool>& stop) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  for (const auto& event : plan.events()) {
    // Joins are the workers' business (late connects); the master only
    // takes machines away.
    if (event.kind == fleet::ChurnEventKind::Join) continue;
    const auto due = start + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double>(event.at_seconds));
    while (clock::now() < due) {
      if (stop.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (stop.load(std::memory_order_acquire)) return;
    endpoint.disrupt(event.kind == fleet::ChurnEventKind::Leave);
  }
}

int wait_worker_processes(const std::vector<int>& pids) {
  int worst = 0;
  for (const int pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      worst = std::max(worst, 1);
      continue;
    }
    if (WIFEXITED(status)) {
      worst = std::max(worst, WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
      worst = std::max(worst, 128 + WTERMSIG(status));
    }
  }
  return worst;
}

}  // namespace mg::net
