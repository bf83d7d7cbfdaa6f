#include "svc/job.hpp"

#include <limits>

#include "support/bytes.hpp"

namespace mg::svc {

using support::ByteReader;
using support::ByteWriter;
using support::DecodeError;

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

bool is_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed || s == JobState::Cancelled;
}

std::uint64_t combined_field_bytes(int root, int level) {
  const long long n = static_cast<long long>(root) + level;
  if (n < 0) return 0;
  if (n > 30) return std::numeric_limits<std::uint64_t>::max();  // 2^62 * 8 overflows
  const std::uint64_t side = (std::uint64_t{1} << n) + 1;
  return side * side * sizeof(double);
}

namespace {

JobState read_state(ByteReader& r) {
  const std::int32_t v = r.read_i32();
  if (v < 0 || v > static_cast<std::int32_t>(JobState::Cancelled)) {
    throw DecodeError("svc: job state out of range");
  }
  return static_cast<JobState>(v);
}

void check_exhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) throw DecodeError(std::string(what) + ": trailing bytes");
}

}  // namespace

std::vector<std::uint8_t> encode_job_spec(const JobSpec& spec) {
  ByteWriter w;
  w.write_i32(spec.root);
  w.write_i32(spec.level);
  w.write_f64(spec.le_tol);
  w.write_i32(spec.priority);
  w.write_f64(spec.weight);
  w.write_string(spec.fault_spec);
  w.write_string(spec.tag);
  return w.take();
}

JobSpec decode_job_spec(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  JobSpec spec;
  spec.root = r.read_i32();
  spec.level = r.read_i32();
  spec.le_tol = r.read_f64();
  spec.priority = r.read_i32();
  spec.weight = r.read_f64();
  spec.fault_spec = r.read_string();
  spec.tag = r.read_string();
  check_exhausted(r, "decode_job_spec");
  return spec;
}

std::vector<std::uint8_t> encode_job_ticket(const JobTicket& ticket) {
  ByteWriter w;
  w.write_i32(ticket.accepted ? 1 : 0);
  w.write_u64(ticket.job_id);
  w.write_string(ticket.reason);
  return w.take();
}

JobTicket decode_job_ticket(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  JobTicket ticket;
  ticket.accepted = r.read_i32() != 0;
  ticket.job_id = r.read_u64();
  ticket.reason = r.read_string();
  check_exhausted(r, "decode_job_ticket");
  return ticket;
}

std::vector<std::uint8_t> encode_job_status(const JobStatusInfo& info) {
  ByteWriter w;
  w.write_u64(info.job_id);
  w.write_i32(info.known ? 1 : 0);
  w.write_i32(static_cast<std::int32_t>(info.state));
  w.write_i32(info.priority);
  w.write_f64(info.weight);
  w.write_u64(info.terms_total);
  w.write_u64(info.terms_done);
  w.write_u64(info.retries);
  w.write_f64(info.queue_wait_seconds);
  w.write_f64(info.run_seconds);
  w.write_string(info.tag);
  w.write_string(info.error);
  return w.take();
}

JobStatusInfo decode_job_status(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  JobStatusInfo info;
  info.job_id = r.read_u64();
  info.known = r.read_i32() != 0;
  info.state = read_state(r);
  info.priority = r.read_i32();
  info.weight = r.read_f64();
  info.terms_total = r.read_u64();
  info.terms_done = r.read_u64();
  info.retries = r.read_u64();
  info.queue_wait_seconds = r.read_f64();
  info.run_seconds = r.read_f64();
  info.tag = r.read_string();
  info.error = r.read_string();
  check_exhausted(r, "decode_job_status");
  return info;
}

std::vector<std::uint8_t> encode_job_result(const JobResultData& result) {
  ByteWriter w;
  w.write_u64(result.job_id);
  w.write_i32(result.known ? 1 : 0);
  w.write_i32(result.ready ? 1 : 0);
  w.write_i32(static_cast<std::int32_t>(result.state));
  w.write_i32(result.root);
  w.write_i32(result.level);
  w.write_doubles(result.combined_nodes);
  w.write_string(result.report_json);
  w.write_string(result.error);
  return w.take();
}

JobResultData decode_job_result(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  JobResultData result;
  result.job_id = r.read_u64();
  result.known = r.read_i32() != 0;
  result.ready = r.read_i32() != 0;
  result.state = read_state(r);
  result.root = r.read_i32();
  result.level = r.read_i32();
  result.combined_nodes = r.read_doubles();
  result.report_json = r.read_string();
  result.error = r.read_string();
  check_exhausted(r, "decode_job_result");
  return result;
}

std::vector<std::uint8_t> encode_job_ref(std::uint64_t job_id) {
  ByteWriter w;
  w.write_u64(job_id);
  return w.take();
}

std::uint64_t decode_job_ref(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint64_t id = r.read_u64();
  check_exhausted(r, "decode_job_ref");
  return id;
}

}  // namespace mg::svc
