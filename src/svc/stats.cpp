#include "svc/stats.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/json_writer.hpp"
#include "support/bytes.hpp"

namespace mg::svc {

using support::ByteReader;
using support::ByteWriter;
using support::DecodeError;

namespace {

void write_histogram(ByteWriter& w, const obs::HistogramSnapshot& h) {
  w.write_doubles(h.upper_bounds);
  w.write_u64(h.buckets.size());
  for (const std::uint64_t b : h.buckets) w.write_u64(b);
  w.write_u64(h.count);
  w.write_f64(h.sum);
}

obs::HistogramSnapshot read_histogram(ByteReader& r, std::size_t wire_size) {
  obs::HistogramSnapshot h;
  h.upper_bounds = r.read_doubles();
  const std::uint64_t n = r.read_u64();
  if (n > wire_size) throw DecodeError("svc stats: histogram bucket count");
  h.buckets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) h.buckets.push_back(r.read_u64());
  h.count = r.read_u64();
  h.sum = r.read_f64();
  return h;
}

JobState read_state(ByteReader& r) {
  const std::int32_t v = r.read_i32();
  if (v < 0 || v > static_cast<std::int32_t>(JobState::Cancelled)) {
    throw DecodeError("svc stats: job state out of range");
  }
  return static_cast<JobState>(v);
}

// Prometheus exposition helpers: metric names use underscores, label values
// need quote/backslash escaping, and floats must never localise.
std::string prom_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void prom_counter(std::string& out, const char* name, const char* help, std::uint64_t v) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64 "\n",
                name, help, name, name, v);
  out += buf;
}

void prom_gauge(std::string& out, const char* name, const char* help, double v) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " gauge\n";
  out += name;
  out += " ";
  out += prom_number(v);
  out += "\n";
}

void prom_histogram(std::string& out, const char* name, const char* help,
                    const obs::HistogramSnapshot& h) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    const std::string le =
        i < h.upper_bounds.size() ? prom_number(h.upper_bounds[i]) : std::string("+Inf");
    out += name;
    out += "_bucket{le=\"";
    out += le;
    out += "\"} ";
    out += std::to_string(cumulative);
    out += "\n";
  }
  out += name;
  out += "_sum ";
  out += prom_number(h.sum);
  out += "\n";
  out += name;
  out += "_count ";
  out += std::to_string(h.count);
  out += "\n";
}

void histogram_json(obs::JsonWriter& w, const obs::HistogramSnapshot& h) {
  w.begin_object();
  w.kv("count", h.count).kv("sum", h.sum);
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    w.begin_object();
    if (i < h.upper_bounds.size()) {
      w.kv("le", h.upper_bounds[i]);
    } else {
      w.kv("le", "+Inf");
    }
    w.kv("n", h.buckets[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::vector<std::uint8_t> encode_service_stats(const ServiceStats& s) {
  ByteWriter w;
  w.write_f64(s.uptime_seconds);
  w.write_u64(s.lanes);
  w.write_u64(s.busy_lanes);
  w.write_u64(s.running_jobs);
  w.write_u64(s.queued_jobs);
  w.write_u64(s.terminal_jobs);

  w.write_u64(s.scheduler.admitted);
  w.write_u64(s.scheduler.rejected);
  w.write_u64(s.scheduler.activated);
  w.write_u64(s.scheduler.tasks_picked);
  w.write_u64(s.scheduler.tasks_dropped);

  w.write_u64(s.engine.submitted);
  w.write_u64(s.engine.accepted);
  w.write_u64(s.engine.rejected);
  w.write_u64(s.engine.completed);
  w.write_u64(s.engine.failed);
  w.write_u64(s.engine.cancelled);
  w.write_u64(s.engine.tasks_executed);
  w.write_u64(s.engine.task_retries);
  w.write_u64(s.engine.faults_injected);
  w.write_u64(s.engine.remote_fallbacks);

  w.write_u64(s.server.sessions_opened);
  w.write_u64(s.server.sessions_closed);
  w.write_u64(s.server.idle_closed);
  w.write_u64(s.server.protocol_errors);
  w.write_u64(s.server.frames_received);
  w.write_u64(s.server.frames_sent);
  w.write_u64(s.server.pings);

  w.write_u64(s.fleet.joins);
  w.write_u64(s.fleet.leaves);
  w.write_u64(s.fleet.crashes);
  w.write_u64(s.fleet.duplicates);

  w.write_u64(s.tenants.size());
  for (const JobStatusInfo& t : s.tenants) {
    w.write_u64(t.job_id);
    w.write_i32(static_cast<std::int32_t>(t.state));
    w.write_i32(t.priority);
    w.write_f64(t.weight);
    w.write_u64(t.terms_total);
    w.write_u64(t.terms_done);
    w.write_u64(t.retries);
    w.write_f64(t.queue_wait_seconds);
    w.write_f64(t.run_seconds);
    w.write_string(t.tag);
  }

  write_histogram(w, s.task_seconds);
  write_histogram(w, s.job_seconds);
  return w.take();
}

ServiceStats decode_service_stats(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  ServiceStats s;
  s.uptime_seconds = r.read_f64();
  s.lanes = r.read_u64();
  s.busy_lanes = r.read_u64();
  s.running_jobs = r.read_u64();
  s.queued_jobs = r.read_u64();
  s.terminal_jobs = r.read_u64();

  s.scheduler.admitted = r.read_u64();
  s.scheduler.rejected = r.read_u64();
  s.scheduler.activated = r.read_u64();
  s.scheduler.tasks_picked = r.read_u64();
  s.scheduler.tasks_dropped = r.read_u64();

  s.engine.submitted = r.read_u64();
  s.engine.accepted = r.read_u64();
  s.engine.rejected = r.read_u64();
  s.engine.completed = r.read_u64();
  s.engine.failed = r.read_u64();
  s.engine.cancelled = r.read_u64();
  s.engine.tasks_executed = r.read_u64();
  s.engine.task_retries = r.read_u64();
  s.engine.faults_injected = r.read_u64();
  s.engine.remote_fallbacks = r.read_u64();

  s.server.sessions_opened = r.read_u64();
  s.server.sessions_closed = r.read_u64();
  s.server.idle_closed = r.read_u64();
  s.server.protocol_errors = r.read_u64();
  s.server.frames_received = r.read_u64();
  s.server.frames_sent = r.read_u64();
  s.server.pings = r.read_u64();

  s.fleet.joins = r.read_u64();
  s.fleet.leaves = r.read_u64();
  s.fleet.crashes = r.read_u64();
  s.fleet.duplicates = r.read_u64();

  const std::uint64_t n_tenants = r.read_u64();
  if (n_tenants > bytes.size()) throw DecodeError("svc stats: tenant count");
  s.tenants.reserve(n_tenants);
  for (std::uint64_t i = 0; i < n_tenants; ++i) {
    JobStatusInfo t;
    t.known = true;
    t.job_id = r.read_u64();
    t.state = read_state(r);
    t.priority = r.read_i32();
    t.weight = r.read_f64();
    t.terms_total = r.read_u64();
    t.terms_done = r.read_u64();
    t.retries = r.read_u64();
    t.queue_wait_seconds = r.read_f64();
    t.run_seconds = r.read_f64();
    t.tag = r.read_string();
    s.tenants.push_back(std::move(t));
  }

  s.task_seconds = read_histogram(r, bytes.size());
  s.job_seconds = read_histogram(r, bytes.size());
  if (!r.exhausted()) throw DecodeError("svc stats: trailing bytes");
  return s;
}

std::string service_stats_json(const ServiceStats& s) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "svc_stats").kv("schema_version", std::uint64_t{1});
  w.kv("uptime_s", s.uptime_seconds);

  w.key("fleet").begin_object();
  w.kv("lanes", s.lanes).kv("busy_lanes", s.busy_lanes);
  w.kv("joins", static_cast<std::uint64_t>(s.fleet.joins));
  w.kv("leaves", static_cast<std::uint64_t>(s.fleet.leaves));
  w.kv("crashes", static_cast<std::uint64_t>(s.fleet.crashes));
  w.kv("duplicates", static_cast<std::uint64_t>(s.fleet.duplicates));
  w.end_object();

  w.key("jobs").begin_object();
  w.kv("running", s.running_jobs).kv("queued", s.queued_jobs);
  w.kv("terminal", s.terminal_jobs);
  w.end_object();

  w.key("scheduler").begin_object();
  w.kv("admitted", s.scheduler.admitted).kv("rejected", s.scheduler.rejected);
  w.kv("activated", s.scheduler.activated);
  w.kv("tasks_picked", s.scheduler.tasks_picked);
  w.kv("tasks_dropped", s.scheduler.tasks_dropped);
  w.end_object();

  w.key("engine").begin_object();
  w.kv("submitted", s.engine.submitted).kv("accepted", s.engine.accepted);
  w.kv("rejected", s.engine.rejected).kv("completed", s.engine.completed);
  w.kv("failed", s.engine.failed).kv("cancelled", s.engine.cancelled);
  w.kv("tasks_executed", s.engine.tasks_executed);
  w.kv("task_retries", s.engine.task_retries);
  w.kv("faults_injected", s.engine.faults_injected);
  w.kv("remote_fallbacks", s.engine.remote_fallbacks);
  w.end_object();

  w.key("sessions").begin_object();
  w.kv("opened", s.server.sessions_opened).kv("closed", s.server.sessions_closed);
  w.kv("idle_closed", s.server.idle_closed);
  w.kv("protocol_errors", s.server.protocol_errors);
  w.kv("frames_received", s.server.frames_received);
  w.kv("frames_sent", s.server.frames_sent);
  w.kv("pings", s.server.pings);
  w.end_object();

  w.key("tenants").begin_array();
  for (const JobStatusInfo& t : s.tenants) {
    w.begin_object();
    w.kv("job_id", t.job_id).kv("state", to_string(t.state));
    w.kv("priority", static_cast<std::int64_t>(t.priority)).kv("weight", t.weight);
    w.kv("terms_done", t.terms_done).kv("terms_total", t.terms_total);
    w.kv("retries", t.retries);
    w.kv("queue_wait_s", t.queue_wait_seconds).kv("run_s", t.run_seconds);
    if (!t.tag.empty()) w.kv("tag", t.tag);
    w.end_object();
  }
  w.end_array();

  w.key("latency").begin_object();
  w.key("task_seconds");
  histogram_json(w, s.task_seconds);
  w.key("job_seconds");
  histogram_json(w, s.job_seconds);
  w.end_object();

  w.end_object();
  return w.str();
}

std::string service_stats_prometheus(const ServiceStats& s) {
  std::string out;
  out.reserve(4096);
  prom_gauge(out, "svc_uptime_seconds", "Server process uptime.", s.uptime_seconds);
  prom_gauge(out, "svc_lanes", "Worker-fleet lane count.", static_cast<double>(s.lanes));
  prom_gauge(out, "svc_busy_lanes", "Lanes currently executing a task.",
             static_cast<double>(s.busy_lanes));
  prom_gauge(out, "svc_running_jobs", "Jobs holding a running slot.",
             static_cast<double>(s.running_jobs));
  prom_gauge(out, "svc_queued_jobs", "Admitted jobs waiting for a slot.",
             static_cast<double>(s.queued_jobs));
  prom_counter(out, "svc_terminal_jobs", "Jobs finished since server start.", s.terminal_jobs);

  prom_counter(out, "svc_scheduler_admitted", "Jobs admitted by the scheduler.",
               s.scheduler.admitted);
  prom_counter(out, "svc_scheduler_rejected", "Jobs rejected at admission.",
               s.scheduler.rejected);
  prom_counter(out, "svc_scheduler_activated", "Queued-to-running promotions.",
               s.scheduler.activated);
  prom_counter(out, "svc_scheduler_tasks_picked", "Tasks dispatched to lanes.",
               s.scheduler.tasks_picked);
  prom_counter(out, "svc_scheduler_tasks_dropped", "Pending tasks dropped by cancel.",
               s.scheduler.tasks_dropped);

  prom_counter(out, "svc_jobs_submitted", "SubmitJob requests seen.", s.engine.submitted);
  prom_counter(out, "svc_jobs_accepted", "Jobs accepted.", s.engine.accepted);
  prom_counter(out, "svc_jobs_rejected", "Jobs rejected (spec or admission).",
               s.engine.rejected);
  prom_counter(out, "svc_jobs_completed", "Jobs finished Done.", s.engine.completed);
  prom_counter(out, "svc_jobs_failed", "Jobs finished Failed.", s.engine.failed);
  prom_counter(out, "svc_jobs_cancelled", "Jobs finished Cancelled.", s.engine.cancelled);
  prom_counter(out, "svc_tasks_executed", "Tasks executed on the fleet.",
               s.engine.tasks_executed);
  prom_counter(out, "svc_task_retries", "Task re-dispatches.", s.engine.task_retries);
  prom_counter(out, "svc_faults_injected", "Job-scoped injected faults.",
               s.engine.faults_injected);
  prom_counter(out, "svc_remote_fallbacks", "Terms computed locally after lease failures.",
               s.engine.remote_fallbacks);

  prom_counter(out, "svc_sessions_opened", "Client sessions opened.",
               s.server.sessions_opened);
  prom_counter(out, "svc_sessions_closed", "Client sessions closed.",
               s.server.sessions_closed);
  prom_counter(out, "svc_sessions_idle_closed", "Sessions closed by the idle timeout.",
               s.server.idle_closed);
  prom_counter(out, "svc_protocol_errors", "Connection-fatal protocol errors.",
               s.server.protocol_errors);
  prom_counter(out, "svc_frames_received", "Frames received on client sessions.",
               s.server.frames_received);
  prom_counter(out, "svc_frames_sent", "Frames sent on client sessions.",
               s.server.frames_sent);
  prom_counter(out, "svc_pings", "Ping keepalives served.", s.server.pings);

  prom_counter(out, "svc_fleet_joins", "Workers/lanes that joined the fleet.",
               s.fleet.joins);
  prom_counter(out, "svc_fleet_leaves", "Graceful fleet departures.", s.fleet.leaves);
  prom_counter(out, "svc_fleet_crashes", "Abrupt fleet deaths handled.", s.fleet.crashes);
  prom_counter(out, "svc_fleet_duplicates",
               "Late or repeated Results dropped by retired-seq dedup.", s.fleet.duplicates);

  // Per-tenant gauges, labelled by job id (+ tag when the client set one).
  out += "# HELP svc_tenant_terms_done Terms delivered for a live job.\n";
  out += "# TYPE svc_tenant_terms_done gauge\n";
  for (const JobStatusInfo& t : s.tenants) {
    out += "svc_tenant_terms_done{job=\"" + std::to_string(t.job_id) + "\"";
    if (!t.tag.empty()) out += ",tag=\"" + prom_escape(t.tag) + "\"";
    out += ",state=\"" + std::string(to_string(t.state)) + "\"} ";
    out += std::to_string(t.terms_done) + "\n";
  }

  prom_histogram(out, "svc_task_seconds", "Per-task latency.", s.task_seconds);
  prom_histogram(out, "svc_job_seconds", "Per-job latency.", s.job_seconds);
  return out;
}

}  // namespace mg::svc
