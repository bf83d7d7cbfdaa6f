// End-to-end solve benchmark: runs one workload per process.
//
// The workloads drive the public APIs the way their users do:
// transport::solve_sequential and mw::solve_concurrent on threads or over
// forked TCP workers (the paper's Table 1 st / ct / su), and the solve service
// through svc::JobServer + svc::JobClient.  Every caller waits for its reply
// before it sends the next request (closed loop).  Every solve and every
// fetched job result is compared bitwise with a solve_sequential reference of
// its spec, and each reference's error against the analytic solution is
// checked against the value recorded in kRecordedErrors.
//
// A traced run measures half of its time untraced and half traced.  The traced
// half records spans around every call the bench makes into a layer, and a
// layer pass afterwards times each layer of the headline spec in isolation:
// transport::subsolve per term (metrics registry reset in between), the work
// and result codecs, and grid::combine.  The fastest of kLayerPasses passes,
// each pinned to another CPU, is reported.
//
// Usage:
//   e2e_bench --workload solve-threads|solve-tcp|svc-small|svc-mixed
//             --seed N --seconds S [--smoke] [--trace-dir DIR]
//
// --smoke shrinks every spec to level 3; with --seconds 0 each workload then
// runs only its minimum sample counts.  The result is one JSON object on
// stdout; bench/e2e/run.py builds this program, runs it and checks the result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "core/remote_worker.hpp"
#include "grid/combination.hpp"
#include "net/remote.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/rng.hpp"
#include "svc/client.hpp"
#include "svc/job_server.hpp"
#include "transport/seq_solver.hpp"
#include "transport/subsolve.hpp"

namespace {

using namespace mg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload shape ---------------------------------------------------------

enum class Kind { SolveThreads, SolveTcp, SvcSmall, SvcMixed };

constexpr std::size_t kWorkers = 4;       // forked TCP workers = service lanes
constexpr std::size_t kCallers = 4;       // service client connections
constexpr int kSetupCycles = 5;           // set-up is repeated, its median reported
constexpr double kSeqShare = 0.25;        // svc-*: share of --seconds timing solve_sequential
constexpr int kMinReps = 2;               // solve-*: seq/concurrent pairs
constexpr int kMinJobsPerClient = 20;     // svc-small
constexpr int kMinHeavyJobs = 2;          // svc-mixed
constexpr int kLayerPasses = 3;           // traced: the fastest layer pass is reported

struct Spec {
  static constexpr int kRoot = 2;
  int level = 6;
  double le_tol = 1e-3;

  transport::ProgramConfig program() const {
    transport::ProgramConfig p;
    p.root = kRoot;
    p.level = level;
    p.le_tol = le_tol;
    return p;
  }
  svc::JobSpec job() const {
    svc::JobSpec j;
    j.root = kRoot;
    j.level = level;
    j.le_tol = le_tol;
    return j;
  }
  std::string name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "G(%d;%d) tol %g", kRoot, level, le_tol);
    return buf;
  }
  bool operator<(const Spec& o) const {
    return level != o.level ? level < o.level : le_tol < o.le_tol;
  }
  bool operator==(const Spec& o) const = default;
};

/// Max-norm error of solve_sequential against the analytic solution at t1 on
/// the unchanged program.  A reference more than 1.25x worse fails the run.
struct RecordedError {
  int level;
  double le_tol;
  double max_error;
};
constexpr RecordedError kRecordedErrors[] = {
    {0, 1e-3, 3.066e-1}, {3, 1e-3, 2.081e-2}, {3, 1e-4, 2.034e-2},
    {4, 1e-3, 1.075e-2}, {4, 1e-4, 7.900e-3}, {5, 1e-3, 8.832e-3},
    {5, 1e-4, 2.601e-3}, {6, 1e-3, 8.351e-3},
};

struct Plan {
  Kind kind;
  Spec headline;          ///< heaviest spec: solve_s, seq_s and the layer pass
  std::vector<Spec> mix;  ///< the small-job mix of the service workloads
};

Plan make_plan(Kind kind, bool smoke) {
  const int top = smoke ? 3 : 6;
  std::vector<Spec> mix;
  for (const int level : smoke ? std::vector<int>{3} : std::vector<int>{3, 4, 5}) {
    mix.push_back({level, 1e-3});
    mix.push_back({level, 1e-4});
  }
  switch (kind) {
    case Kind::SolveThreads:
    case Kind::SolveTcp: return {kind, {top, 1e-3}, {}};
    case Kind::SvcSmall: return {kind, mix.back(), mix};
    case Kind::SvcMixed: return {kind, {top, 1e-3}, mix};
  }
  throw std::logic_error("unknown workload");
}

// ---- outcome ledger ---------------------------------------------------------

class Ledger {
 public:
  void record(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(m_);
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
  std::uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(m_);
    return attempted_;
  }
  std::uint64_t failed() const {
    std::lock_guard<std::mutex> lock(m_);
    return failed_;
  }
  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(m_);
    return failures_;
  }

 private:
  mutable std::mutex m_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log for the traced half: one span around every call the
/// bench makes into a layer, with its parent and request id.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, const char* layer, std::uint64_t request)
        : log_(log.enabled_.load(std::memory_order_acquire) ? &log : nullptr) {
      if (log_ != nullptr) id_ = log_->open(std::move(name), layer, request);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t id_ = 0;
  };

  void enable() { enabled_.store(true, std::memory_order_release); }

  /// Chrome trace_event JSON ("X" events, microseconds, one tid per thread).
  std::string chrome_json() const {
    std::lock_guard<std::mutex> lock(m_);
    obs::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.kv("name", s.name).kv("cat", s.layer).kv("ph", "X");
      w.kv("ts", s.start * 1e6).kv("dur", (s.end - s.start) * 1e6);
      w.kv("pid", 1).kv("tid", s.tid);
      w.key("args").begin_object();
      w.kv("layer", s.layer).kv("request", s.request).kv("span", static_cast<std::uint64_t>(i));
      w.kv("parent", s.parent);
      w.end_object().end_object();
    }
    w.end_array().kv("displayTimeUnit", "ms").end_object();
    return w.str();
  }

  /// Per layer: summed span time minus the part covered by child spans.
  std::map<std::string, double> self_seconds() const {
    std::lock_guard<std::mutex> lock(m_);
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - covered[i];
    }
    return self;
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t request;
    int tid;
  };

  std::size_t open(std::string name, const char* layer, std::uint64_t request) {
    const double now = obs::wall_clock_seconds();
    std::lock_guard<std::mutex> lock(m_);
    const auto tid = tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size())).first;
    const std::int64_t parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({std::move(name), layer, now, now, parent, request, tid->second});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    const double now = obs::wall_clock_seconds();
    std::lock_guard<std::mutex> lock(m_);
    spans_[id].end = now;
    open_.pop_back();
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
  /// Open spans of the calling thread; one thread per stack, so the stack is
  /// thread-local and needs no lock of its own.
  static thread_local std::vector<std::size_t> open_;
};

thread_local std::vector<std::size_t> SpanLog::open_;

SpanLog g_spans;
std::atomic<std::uint64_t> g_next_request{1};

// ---- process hygiene --------------------------------------------------------

std::size_t entries_in(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}
std::size_t open_fds() { return entries_in("/proc/self/fd"); }
std::size_t live_threads() { return entries_in("/proc/self/task"); }

/// True once the process is back to the `baseline` threads it started with.
/// A joined thread can stay listed in /proc for a moment after pthread_join
/// returns, so poll.
bool threads_back_to(std::size_t baseline) {
  for (int i = 0; i < 1000; ++i) {
    if (live_threads() <= baseline) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

double max_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Pins the calling thread to the next CPU of its affinity set, round robin,
/// and restores the set on destruction.  Sequential solves rotate over the
/// CPUs so that their best-of-N finds an uncontended one: on a shared host
/// one vCPU can stay slow for a whole run, and an unpinned thread tends to
/// stay on it.
class PinnedToNextCpu {
 public:
  PinnedToNextCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int skip = next_++ % CPU_COUNT(&saved_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~PinnedToNextCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedToNextCpu(const PinnedToNextCpu&) = delete;
  PinnedToNextCpu& operator=(const PinnedToNextCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
  static inline int next_ = 0;  // only the main thread runs sequential solves
};

// ---- substrate --------------------------------------------------------------

struct Reply {
  std::uint64_t id = 0;  ///< request id shared by the request's spans
  std::vector<double> nodes;
  double latency = 0.0;
  double queue_wait = 0.0;  ///< service jobs: admission -> first dispatch
  double run = 0.0;         ///< service jobs: first dispatch -> terminal
  double rendezvous = 0.0;  ///< solve_concurrent: coordinator rendezvous wait
  std::string error;
};

/// What serves the workload's requests: nothing but threads, a forked TCP
/// fleet, or the solve service (over the TCP fleet or local lanes) with one
/// client connection per caller.
class Substrate {
 public:
  explicit Substrate(Kind kind) : kind_(kind) {}
  ~Substrate() { stop(); }
  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  bool forks() const { return kind_ == Kind::SolveTcp || kind_ == Kind::SvcSmall; }

  /// Bring-up: bind, fork the workers and wait for them, start the server,
  /// connect the clients.  Must run while the process is single-threaded
  /// when it forks.
  void start() {
    if (forks()) {
      net::TcpListener listener("127.0.0.1", 0);
      std::fflush(stdout);
      std::fflush(stderr);
      const std::string host = listener.host();
      const std::uint16_t port = listener.port();
      worker_pids_ = net::fork_worker_processes(kWorkers, [&listener, host, port] {
        listener.close();
        return mw::run_subsolve_worker(host, port);
      });
      endpoint_ = std::make_unique<net::RemoteEndpoint>(std::move(listener));
      if (!endpoint_->wait_for_workers(kWorkers, std::chrono::seconds(15))) {
        throw std::runtime_error("tcp workers did not connect");
      }
    }
    if (kind_ == Kind::SvcSmall || kind_ == Kind::SvcMixed) {
      svc::JobServerConfig config;
      config.engine.lanes = kWorkers;
      config.engine.admission.max_running = 8;
      config.engine.admission.max_queued = 8;
      config.engine.remote = endpoint_.get();
      server_ = std::make_unique<svc::JobServer>(config);
      for (std::size_t c = 0; c < kCallers; ++c) {
        clients_.push_back(std::make_unique<svc::JobClient>("127.0.0.1", server_->port()));
      }
    }
  }

  /// Tear-down and reaping; returns an error unless every worker exited 0.
  std::string stop() {
    clients_.clear();
    server_.reset();
    endpoint_.reset();
    if (worker_pids_.empty()) return {};
    const int rc = net::wait_worker_processes(worker_pids_);
    worker_pids_.clear();
    return rc == 0 ? std::string() : "tcp worker exit status " + std::to_string(rc);
  }

  void ping_clients() {
    for (const auto& client : clients_) client->ping();
  }

  net::RemoteEndpoint* endpoint() const { return endpoint_.get(); }
  svc::JobServer* server() const { return server_.get(); }

  /// One request, call -> combined field in hand.  Throws on transport or
  /// client errors; the caller counts them as failed operations.
  Reply request(const Spec& spec, std::size_t caller) {
    const std::uint64_t id = g_next_request.fetch_add(1, std::memory_order_relaxed);
    const SpanLog::Scope request_span(g_spans, spec.name(), "e2e", id);
    Reply reply;
    reply.id = id;
    const auto t0 = Clock::now();
    if (clients_.empty()) {
      mw::ConcurrentOptions options;
      if (endpoint_) {
        options.remote = endpoint_.get();
        options.retry = fault::RetryPolicy{};
      }
      mw::ConcurrentResult r = [&] {
        const SpanLog::Scope span(g_spans, "solve_concurrent", "core", id);
        return mw::solve_concurrent(spec.program(), options);
      }();
      reply.latency = seconds_since(t0);
      reply.rendezvous = r.protocol.rendezvous_wait_seconds;
      if (r.protocol.timed_out) reply.error = "solve_concurrent timed out";
      reply.nodes = std::move(r.solve.combined.data());
      return reply;
    }
    svc::JobClient& client = *clients_.at(caller);
    svc::JobTicket ticket;
    {
      const SpanLog::Scope span(g_spans, "submit", "svc", id);
      ticket = client.submit(spec.job());
    }
    if (!ticket.accepted) {
      reply.error = "job rejected: " + ticket.reason;
      return reply;
    }
    svc::JobStatusInfo status;
    {
      const SpanLog::Scope span(g_spans, "wait_terminal", "svc", id);
      status = client.wait_terminal(ticket.job_id, std::chrono::seconds(120));
    }
    svc::JobResultData result;
    {
      const SpanLog::Scope span(g_spans, "result", "svc", id);
      result = client.result(ticket.job_id);
    }
    reply.latency = seconds_since(t0);
    reply.queue_wait = status.queue_wait_seconds;
    reply.run = status.run_seconds;
    if (status.state != svc::JobState::Done || !result.ready) {
      reply.error = std::string("job ") + svc::to_string(status.state) + ": " + status.error;
    }
    reply.nodes = std::move(result.combined_nodes);
    return reply;
  }

 private:
  Kind kind_;
  std::vector<int> worker_pids_;
  std::unique_ptr<net::RemoteEndpoint> endpoint_;  // outlives the server's lanes
  std::unique_ptr<svc::JobServer> server_;
  std::vector<std::unique_ptr<svc::JobClient>> clients_;
};

// ---- references -------------------------------------------------------------

class References {
 public:
  explicit References(Ledger& ledger) : ledger_(ledger) {}

  /// Computes (once) the solve_sequential reference of `spec` and checks its
  /// error against the recorded one; returns its wall time.
  double add(const Spec& spec) {
    const transport::ProgramConfig program = spec.program();
    const auto t0 = Clock::now();
    transport::SolveResult r = [&] {
      const PinnedToNextCpu pin;
      return transport::solve_sequential(program);
    }();
    const double wall = seconds_since(t0);
    const auto found = refs_.find(spec);
    if (found != refs_.end()) {
      ledger_.record(same_bits(r.combined.data(), found->second),
                     "solve_sequential not repeatable on " + spec.name());
      return wall;
    }
    const transport::TransportProblem& p = program.kernel.problem;
    const double t1 = program.kernel.t1;
    const double error = r.combined.max_error([&](double x, double y) { return p.exact(x, y, t1); });
    double recorded = 0.0;
    for (const RecordedError& e : kRecordedErrors) {
      if (e.level == spec.level && e.le_tol == spec.le_tol) recorded = e.max_error;
    }
    ledger_.record(recorded > 0.0 && error <= 1.25 * recorded,
                   "reference error " + std::to_string(error) + " on " + spec.name() +
                       " exceeds 1.25x the recorded " + std::to_string(recorded));
    refs_.emplace(spec, std::move(r.combined.data()));
    return wall;
  }

  const std::vector<double>& at(const Spec& spec) const { return refs_.at(spec); }

 private:
  Ledger& ledger_;
  std::map<Spec, std::vector<double>> refs_;
};

/// Checks one reply against the reference of its spec.
void verify(const Reply& reply, const Spec& spec, const References& refs, Ledger& ledger) {
  const SpanLog::Scope span(g_spans, "verify", "bench", reply.id);
  if (!reply.error.empty()) {
    ledger.record(false, reply.error + " on " + spec.name());
  } else {
    ledger.record(same_bits(reply.nodes, refs.at(spec)),
                  "output differs from solve_sequential on " + spec.name());
  }
}

// ---- measurement ------------------------------------------------------------

struct Sample {
  double latency;  ///< call -> combined field in hand, as the caller sees it
  /// The solve_s quantity: the latency on solve-*; on svc-* the server-side
  /// queue wait + run, which the client's 20 ms status polling does not
  /// quantise.
  double solve;
  bool headline;
  double queue_wait;
  double run;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<double> seq;  ///< solve-*: timed solve_sequential walls
  double busy_wall = 0.0;   ///< wall with at least one request outstanding
  double rendezvous = 0.0;  ///< summed over solve_concurrent calls
  double lane_busy = 0.0;   ///< svc: mean busy lanes / lanes (sampled)

  std::vector<double> headline_solves() const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.headline) v.push_back(s.solve);
    }
    return v;
  }
  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency);
    return v;
  }
};

/// Seeded stream over a spec mix: shuffled blocks holding each spec once, so
/// every seed runs the same mix in a different order.
class MixStream {
 public:
  MixStream(std::vector<Spec> mix, support::Xoshiro256 rng)
      : mix_(std::move(mix)), rng_(rng), pos_(mix_.size()) {}

  Spec next() {
    if (pos_ == mix_.size()) {
      for (std::size_t i = mix_.size(); i > 1; --i) std::swap(mix_[i - 1], mix_[rng_.below(i)]);
      pos_ = 0;
    }
    return mix_[pos_++];
  }

 private:
  std::vector<Spec> mix_;
  support::Xoshiro256 rng_;
  std::size_t pos_;
};

/// One caller alternating solve_sequential and solve_concurrent on the same
/// spec, in an order drawn from the seed per rep.
Phase measure_solve(Substrate& sub, const Plan& plan, const References& refs,
                    support::Xoshiro256& rng, double seconds, Ledger& ledger) {
  Phase phase;
  const Spec& spec = plan.headline;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kMinReps || seconds_since(t0) < seconds; ++rep) {
    const bool seq_first = rng.below(2) == 0;
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == seq_first) {
        const auto ts = Clock::now();
        const transport::SolveResult r = [&] {
          const PinnedToNextCpu pin;
          const SpanLog::Scope span(g_spans, "solve_sequential", "transport",
                                    g_next_request.fetch_add(1, std::memory_order_relaxed));
          return transport::solve_sequential(spec.program());
        }();
        phase.seq.push_back(seconds_since(ts));
        ledger.record(same_bits(r.combined.data(), refs.at(spec)),
                      "solve_sequential differs from its reference");
        continue;
      }
      try {
        const Reply reply = sub.request(spec, 0);
        verify(reply, spec, refs, ledger);
        phase.samples.push_back({reply.latency, reply.latency, true, 0.0, 0.0});
        phase.busy_wall += reply.latency;
        phase.rendezvous += reply.rendezvous;
      } catch (const std::exception& e) {
        ledger.record(false, std::string("solve_concurrent: ") + e.what());
      }
    }
  }
  return phase;
}

/// Service clients in closed loops.  svc-small: every client runs the seeded
/// mix.  svc-mixed: client 0 runs heavy jobs back to back, the others run the
/// mix until client 0 is done.
Phase measure_svc(Substrate& sub, const Plan& plan, const References& refs,
                  support::Xoshiro256& rng, double seconds, bool sample_lanes, Ledger& ledger) {
  std::vector<MixStream> streams;
  for (std::size_t c = 0; c < kCallers; ++c) streams.emplace_back(plan.mix, rng.split());
  std::vector<std::vector<Sample>> per_caller(kCallers);
  std::atomic<bool> heavy_done{false};
  const bool mixed = plan.kind == Kind::SvcMixed;
  const auto t0 = Clock::now();

  auto caller_main = [&](std::size_t c) {
    const bool heavy = mixed && c == 0;
    for (int n = 0;; ++n) {
      if (heavy || !mixed) {
        const int min_jobs = heavy ? kMinHeavyJobs : kMinJobsPerClient;
        if (n >= min_jobs && seconds_since(t0) >= seconds) break;
      } else if (n > 0 && heavy_done.load(std::memory_order_acquire)) {
        break;
      }
      const Spec spec = heavy ? plan.headline : streams[c].next();
      try {
        const Reply reply = sub.request(spec, c);
        verify(reply, spec, refs, ledger);
        per_caller[c].push_back(
            {reply.latency, reply.queue_wait + reply.run, spec == plan.headline, reply.queue_wait,
             reply.run});
      } catch (const std::exception& e) {
        ledger.record(false, std::string("job on ") + spec.name() + ": " + e.what());
      }
    }
    if (heavy) heavy_done.store(true, std::memory_order_release);
  };

  std::atomic<bool> sampling{sample_lanes};
  double busy_sum = 0.0;
  std::size_t busy_samples = 0;
  std::thread sampler;
  if (sample_lanes) {
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_acquire)) {
        busy_sum += static_cast<double>(sub.server()->engine().busy_lanes());
        ++busy_samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) callers.emplace_back(caller_main, c);
  for (std::thread& t : callers) t.join();

  Phase phase;
  phase.busy_wall = seconds_since(t0);
  sampling.store(false, std::memory_order_release);
  if (sampler.joinable()) sampler.join();
  if (busy_samples > 0) phase.lane_busy = busy_sum / static_cast<double>(busy_samples * kWorkers);
  for (const auto& samples : per_caller) {
    phase.samples.insert(phase.samples.end(), samples.begin(), samples.end());
  }
  return phase;
}

Phase measure(Substrate& sub, const Plan& plan, const References& refs, support::Xoshiro256& rng,
              double seconds, bool traced, Ledger& ledger) {
  if (plan.kind == Kind::SolveThreads || plan.kind == Kind::SolveTcp) {
    return measure_solve(sub, plan, refs, rng, seconds, ledger);
  }
  return measure_svc(sub, plan, refs, rng, seconds, traced, ledger);
}

// ---- layer pass -------------------------------------------------------------

struct LayerPass {
  double subsolve_sum = 0.0;
  double subsolve_max = 0.0;
  double factor_s = 0.0;
  double assemble_s = 0.0;
  double stage_solve_s = 0.0;
  std::uint64_t factorizations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  std::uint64_t stage_solves = 0;
  double factor_flops = 0.0;  ///< computed: 2 n hb^2 per factorization
  double band_bytes = 0.0;    ///< computed: n (2 hb + 1) 8 per factorization
  double marshal_s = 0.0;
  std::uint64_t marshal_bytes = 0;
  double combine_s = 0.0;
};

double histogram_sum(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

std::uint64_t histogram_count(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

/// Each layer of `spec` timed on its own: every term's subsolve with the
/// registry reset in between, the work/result codecs, and the combination.
LayerPass layer_pass(const Spec& spec, const References& refs, Ledger& ledger) {
  LayerPass pass;
  const transport::ProgramConfig program = spec.program();
  const transport::SubsolveConfig kernel = program.kernel_config();
  const std::vector<grid::CombinationTerm> terms = grid::combination_terms(program.root, program.level);
  std::vector<grid::Field> fields;
  for (std::size_t k = 0; k < terms.size(); ++k) {
    const grid::Grid2D& g = terms[k].grid;
    obs::registry().reset();
    auto t0 = Clock::now();
    transport::SubsolveResult r = [&] {
      const SpanLog::Scope span(g_spans, g.name(), "transport", 0);
      return transport::subsolve(g, kernel);
    }();
    const double wall = seconds_since(t0);
    pass.subsolve_sum += wall;
    pass.subsolve_max = std::max(pass.subsolve_max, wall);

    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    const std::uint64_t factorizations = histogram_count(snap, "linalg.stage_factor_seconds");
    pass.factorizations += factorizations;
    pass.factor_s += histogram_sum(snap, "linalg.stage_factor_seconds");
    pass.assemble_s += histogram_sum(snap, "linalg.stage_assemble_seconds");
    pass.stage_solve_s += histogram_sum(snap, "linalg.stage_solve_seconds");
    pass.cache_hits += snap.counter_or("linalg.stage_cache.hits");
    pass.cache_lookups += snap.counter_or("linalg.stage_cache.hits") +
                          snap.counter_or("linalg.stage_cache.misses") +
                          snap.counter_or("linalg.stage_cache.refreshes");
    pass.steps_accepted += snap.counter_or("transport.steps_accepted");
    pass.steps_rejected += snap.counter_or("transport.steps_rejected");
    pass.stage_solves += snap.counter_or("transport.stage_solves");
    const double n = static_cast<double>(g.interior_count());
    const double hb = static_cast<double>(g.interior_x());
    pass.factor_flops += static_cast<double>(factorizations) * 2.0 * n * hb * hb;
    pass.band_bytes += static_cast<double>(factorizations) * n * (2.0 * hb + 1.0) * 8.0;

    const mw::WorkItem work{k, g.root(), g.lx(), g.ly(), kernel};
    const mw::ResultItem result{k, r.solution.data(), r.stats, r.elapsed_seconds};
    mw::WorkItem work_back{};
    mw::ResultItem result_back{};
    {
      const SpanLog::Scope span(g_spans, "marshal " + g.name(), "core", 0);
      t0 = Clock::now();
      const std::vector<std::uint8_t> work_bytes = mw::encode_work_item(work);
      work_back = mw::decode_work_item(work_bytes);
      const std::vector<std::uint8_t> result_bytes = mw::encode_result_item(result);
      result_back = mw::decode_result_item(result_bytes);
      pass.marshal_s += seconds_since(t0);
      pass.marshal_bytes += work_bytes.size() + result_bytes.size();
    }
    ledger.record(work_back.index == k && work_back.lx == g.lx() && work_back.ly == g.ly(),
                  "work item codec round trip on " + g.name());
    ledger.record(same_bits(result_back.node_data, r.solution.data()),
                  "result item codec round trip on " + g.name());
    fields.push_back(std::move(r.solution));
  }
  const auto t0 = Clock::now();
  grid::Field combined = [&] {
    const SpanLog::Scope span(g_spans, "combine", "grid", 0);
    return grid::combine(terms, fields, grid::finest_grid(program.root, program.level));
  }();
  pass.combine_s = seconds_since(t0);
  ledger.record(same_bits(combined.data(), refs.at(spec)),
                "layer-pass combination differs from solve_sequential");
  return pass;
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile p (0..100) of v.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest of p99/p95/p90/p75 that leaves at least ten samples beyond
/// it; 0 when none does.
double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) - std::ceil(p / 100.0 * static_cast<double>(n)) >= 10.0) return p;
  }
  return 0.0;
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- the run ----------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  double value;
  std::size_t samples;
};

struct Args {
  Kind kind = Kind::SolveThreads;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool smoke = false;
  std::string trace_dir;  ///< non-empty: traced run
};

struct Counters {
  obs::MetricsSnapshot registry;
  net::RemoteCounters net;
  svc::JobServerCounters server;
  svc::EngineCounters engine;
};

Counters read_counters(const Substrate& sub) {
  Counters c;
  c.registry = obs::registry().snapshot();
  if (sub.endpoint() != nullptr) c.net = sub.endpoint()->counters();
  if (sub.server() != nullptr) {
    c.server = sub.server()->counters();
    c.engine = sub.server()->engine().counters();
  }
  return c;
}

int run(const Args& args) {
  const Plan plan = make_plan(args.kind, args.smoke);
  const bool traced = !args.trace_dir.empty();
  Ledger ledger;
  References refs(ledger);
  support::Xoshiro256 rng(args.seed);
  const std::size_t fds_before = open_fds();
  const std::size_t threads_before = live_threads();
  const auto run_start = Clock::now();

  // Set-up, kSetupCycles times (all but the last bring-up are torn down
  // again): bring the substrate up until it has served something — a
  // level-0 solve_concurrent on the solve workloads, one Ping per client on
  // the service workloads.  The level-0 reference is the only solve before
  // the first fork.
  const bool service = !plan.mix.empty();
  const Spec probe{0, 1e-3};
  if (!service) refs.add(probe);
  Substrate sub(plan.kind);
  std::vector<double> setups;
  for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
    if (cycle > 0) {
      const std::string error = sub.stop();
      ledger.record(error.empty(), error);
    }
    if (sub.forks()) ledger.record(threads_back_to(threads_before), "threads alive at fork");
    const auto t0 = Clock::now();
    sub.start();
    if (service) {
      sub.ping_clients();
      setups.push_back(seconds_since(t0));
    } else {
      const Reply reply = sub.request(probe, 0);
      setups.push_back(seconds_since(t0));
      verify(reply, probe, refs, ledger);
    }
  }

  // References for every spec (untimed for set-up).  The service workloads
  // spend kSeqShare of --seconds timing sequential solves of the headline
  // spec for seq_s, half before and half after the service phases so that
  // they span the run; the solve workloads time one per rep instead.
  std::vector<double> seq_walls;
  seq_walls.push_back(refs.add(plan.headline));
  for (const Spec& spec : plan.mix) {
    if (spec != plan.headline) refs.add(spec);
  }
  const double seq_seconds = service ? args.seconds * kSeqShare / 2.0 : 0.0;
  auto sample_sequential = [&] {
    const auto t0 = Clock::now();
    do {
      seq_walls.push_back(refs.add(plan.headline));
    } while (seconds_since(t0) < seq_seconds);
  };
  if (service) sample_sequential();

  // Warm-up rep, untimed: one request per caller (the reference above was
  // the sequential half of the solve workloads' warm-up).
  for (std::size_t c = 0; c < (service ? kCallers : 1); ++c) {
    const bool heavy = !service || (plan.kind == Kind::SvcMixed && c == 0);
    const Spec spec = heavy ? plan.headline : plan.mix[c % plan.mix.size()];
    try {
      verify(sub.request(spec, c), spec, refs, ledger);
    } catch (const std::exception& e) {
      ledger.record(false, std::string("warm-up: ") + e.what());
    }
  }

  const double measured_seconds = args.seconds - 2.0 * seq_seconds;
  const double untraced_seconds = traced ? measured_seconds / 2.0 : measured_seconds;
  const Phase untraced = measure(sub, plan, refs, rng, untraced_seconds, false, ledger);
  const double peak_rss = max_rss_mb(RUSAGE_SELF);

  Phase tr;
  Counters before;
  Counters after;
  if (traced) {
    obs::enable_wall_clock(obs::tracer());
    g_spans.enable();
    before = read_counters(sub);
    tr = measure(sub, plan, refs, rng, measured_seconds / 2.0, true, ledger);
    after = read_counters(sub);
  }
  if (service) sample_sequential();
  const Counters at_end = read_counters(sub);

  const std::string stop_error = sub.stop();
  ledger.record(stop_error.empty(), stop_error);
  ledger.record(open_fds() == fds_before, "open fd count differs from before the workload");
  ledger.record(threads_back_to(threads_before), "threads still alive after tear-down");
  const double worker_rss = max_rss_mb(RUSAGE_CHILDREN);
  const double run_wall = seconds_since(run_start);

  std::optional<LayerPass> pass;
  for (int i = 0; traced && i < kLayerPasses; ++i) {
    const PinnedToNextCpu pin;
    LayerPass candidate = layer_pass(plan.headline, refs, ledger);
    if (!pass || candidate.subsolve_sum < pass->subsolve_sum) pass = candidate;
  }

  // ---- metrics ----
  // The gated timings are best-of-N: co-tenant contention on the host only
  // ever adds time, and it comes and goes over seconds, so a run's median
  // depends on how much of the run was contended while its fastest sample
  // does not.  Medians, throughput and tails are reported as info.
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  const std::vector<double> headline = untraced.headline_solves();
  const std::vector<double> all = untraced.latencies();
  const std::vector<double>& seq = service ? seq_walls : untraced.seq;
  const double solve_s = best(headline);
  const double seq_s = best(seq);
  metrics.push_back({"solve_s", "s", solve_s, headline.size()});
  metrics.push_back({"seq_s", "s", seq_s, seq.size()});
  metrics.push_back({"speedup", "x", safe_ratio(seq_s, solve_s), headline.size()});
  metrics.push_back({"setup_s", "s", median(setups), setups.size()});
  metrics.push_back({"peak_rss_mb", "MB", peak_rss, 1});
  info.push_back({"solve_p50_s", "s", median(headline), headline.size()});
  info.push_back({"seq_p50_s", "s", median(seq), seq.size()});
  info.push_back({"job_p50_s", "s", median(all), all.size()});
  const double tail = tail_percentile(all.size());
  if (tail > 0.0) {
    char name[32];
    std::snprintf(name, sizeof name, "job_p%g_s", tail);
    info.push_back({name, "s", percentile(all, tail), all.size()});
  }
  info.push_back({"jobs_per_s", "1/s", safe_ratio(static_cast<double>(all.size()), untraced.busy_wall),
                  all.size()});

  if (pass) {
    const std::vector<double> tr_headline = tr.headline_solves();
    const std::vector<double> tr_all = tr.latencies();
    const double requests = static_cast<double>(std::max<std::size_t>(1, tr_all.size()));
    auto delta = [&](const std::string& name) {
      return static_cast<double>(after.registry.counter_or(name) - before.registry.counter_or(name));
    };
    auto hist_delta = [&](const std::string& name) {
      return histogram_sum(after.registry, name) - histogram_sum(before.registry, name);
    };
    double latency_sum = 0.0, queue_sum = 0.0, run_sum = 0.0;
    std::vector<double> queue_share;
    for (const Sample& s : tr.samples) {
      latency_sum += s.latency;
      queue_sum += s.queue_wait;
      run_sum += s.run;
      if (service) queue_share.push_back(safe_ratio(s.queue_wait, s.latency));
    }
    const double conc_wall = service ? 0.0 : tr.busy_wall;
    const auto& p = *pass;
    metrics.insert(metrics.end(), {
        {"transport.subsolve_sum_s", "s", p.subsolve_sum, 1},
        {"transport.subsolve_max_s", "s", p.subsolve_max, 1},
        {"transport.critical_share", "ratio", safe_ratio(p.subsolve_max, p.subsolve_sum), 1},
        {"linalg.factor_s", "s", p.factor_s, p.factorizations},
        {"linalg.assemble_s", "s", p.assemble_s, p.factorizations},
        {"linalg.stage_solve_s", "s", p.stage_solve_s, p.stage_solves},
        {"linalg.factorizations", "count", static_cast<double>(p.factorizations), 1},
        {"linalg.cache_hit_ratio", "ratio",
         safe_ratio(static_cast<double>(p.cache_hits), static_cast<double>(p.cache_lookups)), 1},
        {"linalg.factor_flops", "flop", p.factor_flops, 1},
        {"linalg.band_bytes", "bytes", p.band_bytes, 1},
        {"linalg.factor_gflops", "GFLOP/s", safe_ratio(p.factor_flops, p.factor_s) * 1e-9, 1},
        {"rosenbrock.steps_accepted", "count", static_cast<double>(p.steps_accepted), 1},
        {"rosenbrock.steps_rejected", "count", static_cast<double>(p.steps_rejected), 1},
        {"rosenbrock.stage_solves", "count", static_cast<double>(p.stage_solves), 1},
        {"grid.combine_s", "s", p.combine_s, 1},
        {"core.coordination_s", "s", best(tr_headline) - p.subsolve_max, tr_headline.size()},
        {"core.rendezvous_share", "ratio", safe_ratio(tr.rendezvous, conc_wall), tr_all.size()},
        {"core.marshal_s", "s", p.marshal_s, 1},
        {"core.marshal_bytes", "bytes", static_cast<double>(p.marshal_bytes), 1},
        {"manifold.processes_created", "count/req", delta("iwim.processes_created") / requests,
         tr_all.size()},
        {"manifold.units_sent", "count/req", delta("iwim.units_sent") / requests, tr_all.size()},
        {"net.frames", "count/req",
         static_cast<double>(after.net.frames_sent + after.net.frames_received -
                             before.net.frames_sent - before.net.frames_received +
                             after.server.frames_sent + after.server.frames_received -
                             before.server.frames_sent - before.server.frames_received) /
             requests,
         tr_all.size()},
        {"net.bytes", "bytes/req",
         static_cast<double>(after.net.bytes_sent + after.net.bytes_received -
                             before.net.bytes_sent - before.net.bytes_received) /
             requests,
         tr_all.size()},
        {"net.dispatch_stall_share", "ratio",
         safe_ratio(hist_delta("net.dispatch_stall_seconds"), hist_delta("net.round_trip_seconds")),
         tr_all.size()},
        {"net.round_trips_failed", "count", static_cast<double>(at_end.net.round_trips_failed), 1},
        {"net.reconnects", "count", static_cast<double>(at_end.net.reconnects), 1},
        {"net.worker_peak_rss_mb", "MB", worker_rss, 1},
        {"svc.queue_wait_share", "ratio", safe_ratio(queue_sum, latency_sum), tr_all.size()},
        {"svc.queue_wait_p95_share", "ratio", percentile(queue_share, 95.0), queue_share.size()},
        {"svc.run_share", "ratio", safe_ratio(run_sum, latency_sum), tr_all.size()},
        {"svc.client_overhead_share", "ratio",
         service ? safe_ratio(latency_sum - queue_sum - run_sum, latency_sum) : 0.0, tr_all.size()},
        {"svc.lane_busy_ratio", "ratio", tr.lane_busy, 1},
        {"svc.task_retries", "count", static_cast<double>(at_end.engine.task_retries), 1},
        {"svc.remote_fallbacks", "count", static_cast<double>(at_end.engine.remote_fallbacks), 1},
        {"svc.rejected", "count", static_cast<double>(at_end.engine.rejected), 1},
        {"trace.overhead_ratio", "ratio", safe_ratio(best(tr_headline), solve_s) - 1.0,
         tr_headline.size()},
    });
  }

  std::vector<std::string> trace_files;
  if (traced) {
    namespace fs = std::filesystem;
    fs::create_directories(args.trace_dir);
    const std::string base = (fs::path(args.trace_dir) / args.workload).string();
    trace_files = {base + ".spans.json", base + ".program.json"};
    const bool written = obs::write_text_file(trace_files[0], g_spans.chrome_json()) &&
                         obs::write_text_file(trace_files[1], obs::tracer().chrome_trace_json());
    ledger.record(written, "cannot write the trace files");
  }

  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", args.workload).kv("seed", args.seed).kv("smoke", args.smoke);
  w.kv("run_wall_s", run_wall);
  w.kv("correct", ledger.failed() == 0);
  w.kv("attempted", ledger.attempted()).kv("failed", ledger.failed());
  w.key("failures").begin_array();
  for (const std::string& f : ledger.failures()) w.value(f);
  w.end_array();
  for (const auto& [key, list] : {std::pair{"metrics", &metrics}, std::pair{"info", &info}}) {
    w.key(key).begin_object();
    for (const Metric& m : *list) {
      w.key(m.name).begin_object();
      w.kv("value", m.value).kv("unit", m.unit).kv("samples", static_cast<std::uint64_t>(m.samples));
      w.end_object();
    }
    w.end_object();
  }
  w.key("self_seconds").begin_object();
  for (const auto& [layer, seconds] : g_spans.self_seconds()) w.kv(layer, seconds);
  w.end_object();
  // Raw samples behind the end-to-end timings, in measurement order.
  w.key("raw").begin_object();
  using Raw = std::pair<const char*, const std::vector<double>*>;
  for (const auto& [name, values] :
       {Raw{"solve_s", &headline}, Raw{"seq_s", &seq}, Raw{"job_s", &all}, Raw{"setup_s", &setups}}) {
    w.key(name).begin_array();
    for (const double v : *values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("traces").begin_array();
  for (const std::string& f : trace_files) w.value(f);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::map<std::string, Kind> kinds = {{"solve-threads", Kind::SolveThreads},
                                                 {"solve-tcp", Kind::SolveTcp},
                                                 {"svc-small", Kind::SvcSmall},
                                                 {"svc-mixed", Kind::SvcMixed}};
      const auto it = kinds.find(value);
      if (it == kinds.end()) return false;
      args.kind = it->second;
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds >= 0.0)) return false;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload solve-threads|solve-tcp|svc-small|svc-mixed\n"
                 "                 --seed N --seconds S [--smoke] [--trace-dir DIR]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
