#include "svc/stats.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/counter_ledger.hpp"
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

// Calls f(counters, rows) for the four counter ledgers a StatsReport carries,
// in payload order (also the Prometheus order).
template <class Stats, class F>
void for_each_ledger(Stats& s, F&& f) {
  f(s.scheduler, kSchedulerCounterRows);
  f(s.engine, kEngineCounterRows);
  f(s.server, kJobServerCounterRows);
  f(s.fleet, fleet::kFleetCounterRows);
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

  for_each_ledger(s, [&w](const auto& counters, const auto& rows) {
    for (const auto& row : rows) w.write_u64(counters.*row.field);
  });

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

  for_each_ledger(s, [&r](auto& counters, const auto& rows) {
    for (const auto& row : rows) counters.*row.field = r.read_u64();
  });

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
  obs::counters_json(w, s.fleet, fleet::kFleetCounterRows);
  w.end_object();

  w.key("jobs").begin_object();
  w.kv("running", s.running_jobs).kv("queued", s.queued_jobs);
  w.kv("terminal", s.terminal_jobs);
  w.end_object();

  w.key("scheduler").begin_object();
  obs::counters_json(w, s.scheduler, kSchedulerCounterRows);
  w.end_object();
  w.key("engine").begin_object();
  obs::counters_json(w, s.engine, kEngineCounterRows);
  w.end_object();
  w.key("sessions").begin_object();
  obs::counters_json(w, s.server, kJobServerCounterRows);
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

  for_each_ledger(s, [&out](const auto& counters, const auto& rows) {
    for (const auto& row : rows) prom_counter(out, row.prom, row.help, counters.*row.field);
  });

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
