// JobClient — a blocking client for the solve-service wire API.
//
// One connection, one request in flight: every call sends a frame with a
// fresh sequence number and blocks until the reply with the same seq comes
// back (or the deadline passes).  Any framing violation — corrupt stream,
// reply with an unexpected seq or type — is connection-fatal and surfaces as
// ClientError, mirroring the server's drop-the-connection discipline.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "svc/job.hpp"

namespace mg::svc {

struct ServiceStats;

class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JobClientConfig {
  std::chrono::milliseconds connect_timeout{2'000};
  /// Per-request reply deadline; 0 = wait forever.
  std::chrono::milliseconds request_timeout{30'000};
  std::size_t max_payload = net::FrameDecoder::kDefaultMaxPayload;
};

class JobClient {
 public:
  /// Connects immediately; throws ClientError when the server is
  /// unreachable.
  JobClient(const std::string& host, std::uint16_t port, JobClientConfig config = {});
  ~JobClient();

  JobClient(const JobClient&) = delete;
  JobClient& operator=(const JobClient&) = delete;

  JobTicket submit(const JobSpec& spec);
  JobStatusInfo status(std::uint64_t job_id);
  /// A finished job's field and report come back on the first fetch only
  /// (SolveEngine::result); later fetches carry an "already delivered" error.
  JobResultData result(std::uint64_t job_id);
  JobStatusInfo cancel(std::uint64_t job_id);

  /// Round-trips a Ping (payload echoed in the Pong); refreshes the server's
  /// idle clock.  Returns the measured round-trip time.
  std::chrono::microseconds ping();

  /// Fetches the server's live ServiceStats (GetStats -> StatsReport).
  ServiceStats stats();

  /// Polls status until the job is terminal; throws ClientError on timeout
  /// or when the job vanishes.
  JobStatusInfo wait_terminal(std::uint64_t job_id, std::chrono::milliseconds timeout,
                              std::chrono::milliseconds poll_interval =
                                  std::chrono::milliseconds(20));

  /// Sends Bye and closes.  Implied by the destructor.
  void close();

 private:
  net::Frame request(net::FrameType type, const std::vector<std::uint8_t>& payload,
                     net::FrameType expect_type);

  JobClientConfig config_;
  net::Socket socket_;
  net::FrameDecoder decoder_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace mg::svc
