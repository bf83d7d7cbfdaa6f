// Tests for the observability layer: metrics registry concurrency and
// bucket semantics, the counter ledger and its row loops, span tracing on
// wall and virtual clocks, the Chrome trace_event export (golden), and the
// machine-readable run report schema.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/sim_report.hpp"
#include "obs/counter_ledger.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "support/log.hpp"

namespace {

using namespace mg;

// --- metrics -------------------------------------------------------------

TEST(ObsMetrics, ConcurrentCounterIncrementsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsMetrics, ConcurrentRegistryAccessAndIncrement) {
  // Threads race registration (locked) against updates (lock-free) on the
  // same name; the total must still be exact.
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      obs::Counter& c = reg.counter("race.shared");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.snapshot().counter_or("race.shared"), kThreads * kPerThread);
}

TEST(ObsMetrics, GaugeHighWaterMark) {
  obs::Gauge g;
  g.max_of(3.0);
  g.max_of(1.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.max_of(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // Bucket i holds v <= bounds[i] (and > bounds[i-1]); above all bounds
  // lands in the +inf bucket.  Exercise exactly-on-boundary values.
  obs::Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0,   // bucket 0 (v <= 1)
                         1.5, 2.0,   // bucket 1 (1 < v <= 2)
                         4.0,        // bucket 2 (2 < v <= 4)
                         4.5, 100.0  // +inf bucket
       }) {
    h.observe(v);
  }
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5 + 100.0);
}

TEST(ObsMetrics, RegistryResetZeroesButKeepsReferences) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("reset.counter");
  obs::Histogram& h = reg.histogram("reset.hist", {1.0});
  c.add(5);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(2);  // the cached reference must still feed the same metric
  EXPECT_EQ(reg.snapshot().counter_or("reset.counter"), 2u);
}

// --- counter ledger ------------------------------------------------------

struct LedgerCounters {
  std::uint64_t alpha = 0;
  std::uint64_t beta = 0;
  std::uint64_t gamma = 0;
};

constexpr obs::CounterRow<LedgerCounters> kLedgerRows[] = {
    {&LedgerCounters::alpha, "test.ledger.alpha", "alpha"},
    {&LedgerCounters::beta, "test.ledger.beta", "beta"},
    {&LedgerCounters::gamma, "test.ledger.gamma", "gamma"},
};

// A table no other test bumps, so its mirrors are unregistered until this
// test's first bump whatever order the tests run in.
constexpr obs::CounterRow<LedgerCounters> kFirstUseRows[] = {
    {&LedgerCounters::alpha, "test.ledger_first_use.alpha"},
    {&LedgerCounters::beta, "test.ledger_first_use.beta"},
    {&LedgerCounters::gamma, "test.ledger_first_use.gamma"},
};

TEST(ObsCounterLedger, EveryMirrorExistsAtZeroAfterTheFirstBump) {
  const auto names = [] {
    std::vector<std::string> out;
    for (const auto& [name, value] : obs::registry().snapshot().counters) {
      if (name.rfind("test.ledger_first_use.", 0) == 0) out.push_back(name);
    }
    return out;
  };
  obs::CounterLedger<kFirstUseRows> ledger;
  EXPECT_TRUE(names().empty());
  ledger.bump(&LedgerCounters::beta);
  EXPECT_EQ(names(), (std::vector<std::string>{"test.ledger_first_use.alpha",
                                               "test.ledger_first_use.beta",
                                               "test.ledger_first_use.gamma"}));
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.counter_or("test.ledger_first_use.alpha", 99), 0u);
  EXPECT_EQ(snap.counter_or("test.ledger_first_use.beta"), 1u);
  EXPECT_EQ(snap.counter_or("test.ledger_first_use.gamma", 99), 0u);
}

TEST(ObsCounterLedger, SnapshotReadsBackEveryRow) {
  obs::CounterLedger<kLedgerRows> ledger;
  ledger.bump(&LedgerCounters::alpha);
  ledger.bump(&LedgerCounters::beta, 20);
  ledger.bump(&LedgerCounters::gamma, 300);
  ledger.bump(&LedgerCounters::gamma, 4000);
  const LedgerCounters c = ledger.snapshot();
  EXPECT_EQ(c.alpha, 1u);
  EXPECT_EQ(c.beta, 20u);
  EXPECT_EQ(c.gamma, 4300u);
}

TEST(ObsCounterLedger, TwoLedgersKeepSeparateCellsAndShareOneMirror) {
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  obs::CounterLedger<kLedgerRows> a;
  obs::CounterLedger<kLedgerRows> b;
  a.bump(&LedgerCounters::alpha, 3);
  b.bump(&LedgerCounters::alpha, 4);
  b.bump(&LedgerCounters::gamma);
  EXPECT_EQ(a.snapshot().alpha, 3u);
  EXPECT_EQ(a.snapshot().gamma, 0u);
  EXPECT_EQ(b.snapshot().alpha, 4u);
  EXPECT_EQ(b.snapshot().gamma, 1u);
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  EXPECT_EQ(after.counter_or("test.ledger.alpha") - before.counter_or("test.ledger.alpha"), 7u);
  EXPECT_EQ(after.counter_or("test.ledger.beta") - before.counter_or("test.ledger.beta"), 0u);
  EXPECT_EQ(after.counter_or("test.ledger.gamma") - before.counter_or("test.ledger.gamma"), 1u);
}

TEST(ObsCounterLedger, FourThreadsBumpingOneLedgerSumExactly) {
  const std::uint64_t mirror_before = obs::registry().snapshot().counter_or("test.ledger.beta");
  obs::CounterLedger<kLedgerRows> ledger;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ledger.bump(&LedgerCounters::alpha);
        ledger.bump(&LedgerCounters::beta, 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  const LedgerCounters c = ledger.snapshot();
  EXPECT_EQ(c.alpha, kThreads * kPerThread);
  EXPECT_EQ(c.beta, 2 * kThreads * kPerThread);
  EXPECT_EQ(c.gamma, 0u);
  EXPECT_EQ(obs::registry().snapshot().counter_or("test.ledger.beta") - mirror_before,
            2 * kThreads * kPerThread);
}

TEST(ObsCounterLedger, RowLoopsSumTestAndRenderEveryField) {
  LedgerCounters a{1, 2, 3};
  const LedgerCounters b{10, 20, 30};
  obs::add_counters(a, b, kLedgerRows);
  EXPECT_EQ(a.alpha, 11u);
  EXPECT_EQ(a.beta, 22u);
  EXPECT_EQ(a.gamma, 33u);
  EXPECT_TRUE(obs::any_counter(a, kLedgerRows));
  EXPECT_FALSE(obs::any_counter(LedgerCounters{}, kLedgerRows));
  EXPECT_TRUE(obs::any_counter(LedgerCounters{0, 0, 1}, kLedgerRows));
  obs::JsonWriter w;
  w.begin_object();
  obs::counters_json(w, a, kLedgerRows);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"alpha":11,"beta":22,"gamma":33})");
}

// --- logging -------------------------------------------------------------

TEST(ObsLog, ParsesMgLogLevelValues) {
  using support::LogLevel;
  using support::parse_log_level;
  EXPECT_EQ(parse_log_level("trace", LogLevel::Warn), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("DEBUG", LogLevel::Warn), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("Info", LogLevel::Warn), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warning", LogLevel::Error), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("4", LogLevel::Warn), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off", LogLevel::Warn), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::Info), LogLevel::Info);
}

// --- spans ---------------------------------------------------------------

TEST(ObsSpan, DisabledTracerDropsRecordsAndScopedSpans) {
  obs::SpanTracer t;
  t.record({"dropped", "cat", "track", 0.0, 1.0});
  { obs::ScopedSpan span(&t, "also-dropped", "cat", "track"); }
  { obs::ScopedSpan span(nullptr, "null-tracer", "cat", "track"); }
  EXPECT_EQ(t.size(), 0u);
}

TEST(ObsSpan, WallClockScopedSpanRecordsOrderedTimes) {
  obs::SpanTracer t;
  obs::enable_wall_clock(t);
  { obs::ScopedSpan span(&t, "work", "test", "main"); }
  t.disable();
  const auto spans = t.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].track, "main");
  EXPECT_GE(spans[0].end, spans[0].start);
}

TEST(ObsSpan, ChromeTraceJsonGolden) {
  // The export format is a stable artifact (about:tracing / Perfetto load
  // it); pin it exactly for a two-track trace with explicit virtual times.
  obs::SpanTracer t;
  t.enable();  // no clock: explicit-time records only
  t.record({"a", "sim", "t1", 0.0, 0.001});
  t.record({"b", "sim", "t2", 0.0005, 0.002});
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"t1\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"t2\"}},"
      "{\"name\":\"a\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":0,\"dur\":1000,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"b\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":500,\"dur\":1500,"
      "\"pid\":1,\"tid\":2}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(t.chrome_trace_json(), expected);
}

// --- JSON writer ---------------------------------------------------------

TEST(ObsJson, EscapesAndNumbers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(1000.0), "1000");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  // Round-trip: the emitted literal parses back to the same double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(obs::json_number(v)), v);
}

TEST(ObsJson, WriterBuildsNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "x").kv("n", std::int64_t{3}).kv("ok", true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("sub").begin_object().kv("d", 0.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"name\":\"x\",\"n\":3,\"ok\":true,\"list\":[1,2],\"sub\":{\"d\":0.5}}");
}

// --- simulator integration ----------------------------------------------

TEST(ObsSim, VirtualClockSpansMatchSimRunResult) {
  // The spans the simulator records ARE its schedule: per host, the compute
  // spans must sum to that host's busy time, every span must fit inside
  // [0, ct], and there must be exactly one compute span per worker.
  cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  obs::SpanTracer tracer;
  tracer.enable();
  config.tracer = &tracer;
  const auto run = cluster::simulate_run(2, 4, 1e-3, cost, config, 7);

  const auto spans = tracer.snapshot();
  ASSERT_FALSE(spans.empty());
  std::map<std::string, double> compute_per_host;
  std::size_t compute_spans = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.category, "sim");
    EXPECT_GE(s.start, 0.0);
    EXPECT_GE(s.end, s.start);
    EXPECT_LE(s.end, run.concurrent_seconds + 1e-9);
    if (s.name.rfind("compute:", 0) == 0) {
      compute_per_host[s.track] += s.duration();
      ++compute_spans;
    }
  }
  EXPECT_EQ(compute_spans, run.workers.size());

  for (const auto& usage : run.host_usage) {
    const auto it = compute_per_host.find(usage.host);
    const double from_spans = it == compute_per_host.end() ? 0.0 : it->second;
    EXPECT_NEAR(from_spans, usage.busy_seconds, 1e-9) << "host " << usage.host;
    EXPECT_NEAR(usage.busy_seconds + usage.idle_seconds, run.concurrent_seconds, 1e-9);
  }
}

TEST(ObsSim, RunReportMatchesSimRunResult) {
  // The --report artifact must carry the run's exact numbers: generate a
  // small simulated run, build the report, and check the serialised values
  // token-for-token (json_number is deterministic).
  cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  const auto run = cluster::simulate_run(2, 3, 1e-3, cost, config, 11);

  obs::RunReport report("test");
  report.derived().begin_object();
  report.derived().key("run");
  cluster::append_run_json(report.derived(), run);
  report.derived().end_object();
  const std::string json = report.json(obs::registry().snapshot());

  EXPECT_NE(json.find("\"tool\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"st\":" + obs::json_number(run.sequential_seconds)), std::string::npos);
  EXPECT_NE(json.find("\"ct\":" + obs::json_number(run.concurrent_seconds)), std::string::npos);
  EXPECT_NE(json.find("\"m\":" + obs::json_number(run.weighted_machines)), std::string::npos);
  ASSERT_GT(run.concurrent_seconds, 0.0);
  EXPECT_NE(json.find("\"su\":" + obs::json_number(run.sequential_seconds /
                                                   run.concurrent_seconds)),
            std::string::npos);
  EXPECT_NE(json.find("\"tasks_spawned\":" + std::to_string(run.tasks_spawned)),
            std::string::npos);
  EXPECT_NE(json.find("\"network_bytes\":" + std::to_string(run.network_bytes)),
            std::string::npos);

  // Structural sanity: braces and brackets balance outside strings.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ObsSim, SimulatorPopulatesGlobalMetrics) {
  auto& reg = obs::registry();
  const std::uint64_t runs_before = reg.snapshot().counter_or("cluster.sim_runs");
  cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  const auto run = cluster::simulate_run(2, 3, 1e-3, cost, config, 5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("cluster.sim_runs"), runs_before + 1);
  EXPECT_GE(snap.counter_or("cluster.sim_network_bytes"), run.network_bytes);
}

}  // namespace
