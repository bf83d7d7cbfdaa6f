// Solve-service job model and its wire codec.
//
// A job is one complete sparse-grid solve (the paper's argv triple plus
// multi-tenant knobs: priority, fair-share weight, an optional job-scoped
// fault spec).  These structs are the payloads of the SubmitJob /
// JobAccepted / JobStatus / JobResult / CancelJob frames (net/frame.hpp);
// the codec uses the same ByteWriter/ByteReader layout as core/marshal so a
// corrupt payload is rejected with DecodeError, never half-trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mg::svc {

/// Lifecycle: Queued -> Running -> one of the three terminal states.  A
/// cancel of a queued job skips Running entirely.
enum class JobState : std::uint8_t {
  Queued = 0,     ///< admitted, waiting for a running slot
  Running = 1,    ///< tasks being dispatched over the shared fleet
  Done = 2,       ///< combined result available
  Failed = 3,     ///< a task failed irrecoverably; see error
  Cancelled = 4,  ///< cancelled before completion; partial work discarded
};

const char* to_string(JobState s);
bool is_terminal(JobState s);

/// What a client submits: the solve parameters plus tenancy knobs.
struct JobSpec {
  int root = 2;
  int level = 3;
  double le_tol = 1e-3;
  /// Strict priority class: higher runs first.  Within one class the
  /// scheduler is weighted-fair.
  std::int32_t priority = 0;
  /// Fair-share weight within a priority class (> 0).
  double weight = 1.0;
  /// Optional job-scoped fault spec (fault::parse_fault_spec syntax): task
  /// crash/hang/corrupt injection seeded per job, invisible to other jobs.
  std::string fault_spec;
  /// Free-form client label, echoed in status and the per-job report.
  std::string tag;
};

/// The server's reply to SubmitJob: admission verdict.  A rejection carries
/// the reason (queue full, bad spec) — explicit backpressure, not a hang.
struct JobTicket {
  bool accepted = false;
  std::uint64_t job_id = 0;
  std::string reason;  ///< set when rejected
};

/// Point-in-time view of one job, the JobStatus reply.
struct JobStatusInfo {
  std::uint64_t job_id = 0;
  bool known = false;  ///< false: the server has no such job id
  JobState state = JobState::Queued;
  std::int32_t priority = 0;
  double weight = 1.0;
  std::uint64_t terms_total = 0;
  std::uint64_t terms_done = 0;
  std::uint64_t retries = 0;         ///< task re-dispatches (faults, transport)
  double queue_wait_seconds = 0.0;   ///< admission -> first dispatch
  double run_seconds = 0.0;          ///< first dispatch -> now / terminal
  std::string tag;
  std::string error;  ///< set for Failed
};

/// The JobResult reply.  `ready` is false until the job is terminal; for a
/// Done job the combined field travels as raw nodes (bit-exact — the client
/// can diff against a standalone run) plus the self-contained per-job report
/// JSON (config echo, per-job metrics, fault ledger).
struct JobResultData {
  std::uint64_t job_id = 0;
  bool known = false;
  bool ready = false;
  JobState state = JobState::Queued;
  int root = 0;
  int level = 0;
  std::vector<double> combined_nodes;  ///< finest-grid nodal data (Done only)
  std::string report_json;             ///< per-job run report (terminal states)
  std::string error;
};

/// Bytes of the combined field a spec's result carries: (2^(root+level)+1)^2
/// doubles.  Saturates at UINT64_MAX; 0 when root + level is negative.
std::uint64_t combined_field_bytes(int root, int level);

// ---- wire codec (payloads of the svc frames) ----

std::vector<std::uint8_t> encode_job_spec(const JobSpec& spec);
JobSpec decode_job_spec(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_job_ticket(const JobTicket& ticket);
JobTicket decode_job_ticket(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_job_status(const JobStatusInfo& info);
JobStatusInfo decode_job_status(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_job_result(const JobResultData& result);
JobResultData decode_job_result(const std::vector<std::uint8_t>& bytes);

/// JobStatus / JobResult / CancelJob requests carry just the job id.
std::vector<std::uint8_t> encode_job_ref(std::uint64_t job_id);
std::uint64_t decode_job_ref(const std::vector<std::uint8_t>& bytes);

}  // namespace mg::svc
