#include "svc/client.hpp"

#include <poll.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "svc/stats.hpp"

namespace mg::svc {

using steady = std::chrono::steady_clock;

constexpr std::chrono::milliseconds kConnectTimeout{2'000};
constexpr std::chrono::milliseconds kRequestTimeout{30'000};

JobClient::JobClient(const std::string& host, std::uint16_t port) {
  socket_ = net::connect_tcp(host, port, kConnectTimeout);
  if (!socket_.valid()) {
    throw ClientError("svc client: cannot connect to " + host + ":" + std::to_string(port));
  }
  socket_.set_nodelay(true);
}

JobClient::~JobClient() {
  try {
    close();
  } catch (...) {
    // Destructor close is best-effort; the server handles an abrupt EOF.
  }
}

void JobClient::close() {
  if (!socket_.valid()) return;
  const std::vector<std::uint8_t> bye = net::encode_frame(net::FrameType::Bye, next_seq_++, {});
  (void)net::send_all(socket_, bye.data(), bye.size());
  socket_.close();
}

net::Frame JobClient::request(net::FrameType type, const std::vector<std::uint8_t>& payload,
                              net::FrameType expect_type) {
  if (!socket_.valid()) throw ClientError("svc client: connection closed");
  const std::uint64_t seq = next_seq_++;
  const std::vector<std::uint8_t> bytes = net::encode_frame(type, seq, payload);
  if (!net::send_all(socket_, bytes.data(), bytes.size())) {
    socket_.close();
    throw ClientError("svc client: server went away on send");
  }

  const auto deadline = steady::now() + kRequestTimeout;
  std::vector<std::uint8_t> buf(64 * 1024);
  for (;;) {
    if (auto frame = decoder_.next()) {
      if (frame->header.seq != seq || frame->header.type != expect_type) {
        socket_.close();
        throw ClientError(std::string("svc client: unexpected reply frame ") +
                          net::to_string(frame->header.type));
      }
      return std::move(*frame);
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - steady::now());
    if (left.count() <= 0) {
      socket_.close();
      throw ClientError("svc client: request timed out");
    }
    const int wait_ms = static_cast<int>(std::min<std::int64_t>(left.count(), 200));
    pollfd pfd{socket_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      socket_.close();
      throw ClientError("svc client: poll failed");
    }
    if (rc == 0) continue;
    const std::ptrdiff_t n = socket_.recv_some(buf.data(), buf.size());
    if (n == 0) {
      socket_.close();
      throw ClientError("svc client: server closed the connection");
    }
    if (n < 0) continue;
    try {
      decoder_.feed(buf.data(), static_cast<std::size_t>(n));
    } catch (const net::FrameError& e) {
      socket_.close();
      throw ClientError(std::string("svc client: corrupt stream: ") + e.what());
    }
  }
}

JobTicket JobClient::submit(const JobSpec& spec) {
  return decode_job_ticket(
      request(net::FrameType::SubmitJob, encode_job_spec(spec), net::FrameType::JobAccepted)
          .payload);
}

JobStatusInfo JobClient::status(std::uint64_t job_id) {
  return decode_job_status(
      request(net::FrameType::JobStatus, encode_job_ref(job_id), net::FrameType::JobStatus)
          .payload);
}

JobResultData JobClient::result(std::uint64_t job_id) {
  return decode_job_result(
      request(net::FrameType::JobResult, encode_job_ref(job_id), net::FrameType::JobResult)
          .payload);
}

JobStatusInfo JobClient::cancel(std::uint64_t job_id) {
  return decode_job_status(
      request(net::FrameType::CancelJob, encode_job_ref(job_id), net::FrameType::JobStatus)
          .payload);
}

std::chrono::microseconds JobClient::ping() {
  const std::vector<std::uint8_t> echo = {0x6d, 0x67, 0x70, 0x69};  // "mgpi"
  const auto start = steady::now();
  const net::Frame pong = request(net::FrameType::Ping, echo, net::FrameType::Pong);
  if (pong.payload != echo) {
    socket_.close();
    throw ClientError("svc client: Pong payload mismatch");
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(steady::now() - start);
}

ServiceStats JobClient::stats() {
  return decode_service_stats(
      request(net::FrameType::GetStats, {}, net::FrameType::StatsReport).payload);
}

JobStatusInfo JobClient::wait_terminal(std::uint64_t job_id, std::chrono::milliseconds timeout,
                                       std::chrono::milliseconds poll_interval) {
  const auto deadline = steady::now() + timeout;
  for (;;) {
    const JobStatusInfo info = status(job_id);
    if (!info.known) throw ClientError("svc client: job vanished while waiting");
    if (is_terminal(info.state)) return info;
    if (steady::now() >= deadline) {
      throw ClientError("svc client: job did not finish before the deadline");
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

}  // namespace mg::svc
