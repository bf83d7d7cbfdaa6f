// Distributed-telemetry tests: the trace-context prefix on Work payloads,
// the worker's per-trip TelemetryBatch, the Result envelope, the NTP-style
// clock-offset estimate, the master-side merge — and the degradation
// contract: corrupted telemetry never fails a trip, it only costs the
// observability (net.telemetry_rejected counts the loss).
//
// The concurrency hammers at the bottom run under TSAN in CI: registry
// snapshots and tracer exports must be clean against concurrent writers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "support/bytes.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;

// ---- trace context ------------------------------------------------------------------

obs::TraceContext sample_context() {
  obs::TraceContext ctx;
  ctx.trace_id = 0xABCDEF01u;
  ctx.span_id = 42;
  ctx.job_id = 7;
  ctx.master_send_seconds = 12.5;
  return ctx;
}

TEST(TraceContext, PrependAndSplitRoundTrip) {
  const std::vector<std::uint8_t> work{9, 8, 7, 6};
  const auto payload = obs::prepend_context(sample_context(), work);
  ASSERT_EQ(payload.size(), obs::TraceContext::kWireSize + work.size());

  const obs::SplitWork split = obs::split_context(payload);
  ASSERT_TRUE(split.context.has_value());
  EXPECT_EQ(split.context->trace_id, 0xABCDEF01u);
  EXPECT_EQ(split.context->span_id, 42u);
  EXPECT_EQ(split.context->job_id, 7u);
  EXPECT_DOUBLE_EQ(split.context->master_send_seconds, 12.5);
  EXPECT_EQ(split.work, work);
}

TEST(TraceContext, PayloadWithoutMagicIsAllWork) {
  const std::vector<std::uint8_t> plain{1, 2, 3};
  const obs::SplitWork split = obs::split_context(plain);
  EXPECT_FALSE(split.context.has_value());
  EXPECT_EQ(split.work, plain);
}

TEST(TraceContext, TruncatedContextAfterMagicThrows) {
  auto payload = obs::prepend_context(sample_context(), {1, 2, 3});
  payload.resize(obs::TraceContext::kWireSize - 4);  // magic intact, body cut
  EXPECT_THROW(obs::split_context(payload), support::DecodeError);
}

// ---- telemetry batch codec ----------------------------------------------------------

obs::TelemetryBatch sample_batch() {
  obs::TelemetryBatch batch;
  batch.context = sample_context();
  batch.worker_pid = 1234;
  batch.worker_recv_seconds = 3.25;
  batch.worker_send_seconds = 3.75;
  batch.counters.push_back({"linalg.stage_solves", 17});
  batch.counters.push_back({"net.worker.works_handled", 1});
  batch.histograms.push_back({"linalg.stage_solve_seconds", 17, 0.125});
  batch.spans.push_back({"subsolve", "mw", "worker", 3.3, 3.7});
  return batch;
}

TEST(TelemetryBatch, EncodeDecodeRoundTrip) {
  const auto bytes = obs::encode_telemetry_batch(sample_batch());
  const obs::TelemetryBatch out = obs::decode_telemetry_batch(bytes);
  EXPECT_EQ(out.context.trace_id, 0xABCDEF01u);
  EXPECT_EQ(out.worker_pid, 1234u);
  EXPECT_DOUBLE_EQ(out.worker_recv_seconds, 3.25);
  EXPECT_DOUBLE_EQ(out.worker_send_seconds, 3.75);
  ASSERT_EQ(out.counters.size(), 2u);
  EXPECT_EQ(out.counters[0].name, "linalg.stage_solves");
  EXPECT_EQ(out.counters[0].delta, 17u);
  ASSERT_EQ(out.histograms.size(), 1u);
  EXPECT_EQ(out.histograms[0].count, 17u);
  EXPECT_DOUBLE_EQ(out.histograms[0].sum, 0.125);
  ASSERT_EQ(out.spans.size(), 1u);
  EXPECT_EQ(out.spans[0].name, "subsolve");
  EXPECT_DOUBLE_EQ(out.spans[0].start, 3.3);
}

TEST(TelemetryBatch, CorruptedBytesAreRejectedNotMisread) {
  auto bytes = obs::encode_telemetry_batch(sample_batch());
  // Flip the magic: decode must refuse rather than guess.
  bytes[0] ^= 0xFF;
  EXPECT_THROW(obs::decode_telemetry_batch(bytes), support::DecodeError);

  // Truncation anywhere inside the body must throw, never read past the end.
  const auto good = obs::encode_telemetry_batch(sample_batch());
  for (std::size_t cut = 1; cut < good.size(); cut += 7) {
    std::vector<std::uint8_t> part(good.begin(), good.begin() + cut);
    EXPECT_THROW(obs::decode_telemetry_batch(part), support::DecodeError) << "cut=" << cut;
  }

  // Trailing garbage is corruption too.
  auto padded = good;
  padded.push_back(0);
  EXPECT_THROW(obs::decode_telemetry_batch(padded), support::DecodeError);
}

// ---- result envelope ----------------------------------------------------------------

TEST(ResultEnvelope, WrapUnwrapRoundTrip) {
  const std::vector<std::uint8_t> telem{1, 2, 3};
  const std::vector<std::uint8_t> result{4, 5, 6, 7};
  const obs::ResultEnvelope env = obs::unwrap_result(obs::wrap_result(telem, result));
  EXPECT_EQ(env.telemetry, telem);
  EXPECT_EQ(env.result, result);

  const obs::ResultEnvelope empty = obs::unwrap_result(obs::wrap_result({}, result));
  EXPECT_TRUE(empty.telemetry.empty());
  EXPECT_EQ(empty.result, result);
}

TEST(ResultEnvelope, SizePrefixBeyondPayloadIsEnvelopeCorruption) {
  std::vector<std::uint8_t> bogus{0xFF, 0xFF, 0xFF, 0x7F, 1, 2};  // size >> payload
  EXPECT_THROW(obs::unwrap_result(bogus), support::DecodeError);
  EXPECT_THROW(obs::unwrap_result({1, 2}), support::DecodeError);  // shorter than prefix
}

// ---- clock offset -------------------------------------------------------------------

TEST(ClockOffset, RecoversAKnownSkewFromSymmetricDelays) {
  // Master clock = worker clock + 5.  One-way delay 1 ms each way.
  obs::ClockOffsetEstimator est;
  est.update(/*t0=*/1.0, /*t1=*/-3.999, /*t2=*/-3.998, /*t3=*/1.003);
  ASSERT_TRUE(est.valid());
  EXPECT_NEAR(est.offset_seconds(), 5.0, 1e-12);
  EXPECT_NEAR(est.rtt_seconds(), 0.002, 1e-12);
  EXPECT_NEAR(est.to_master(-3.5), 1.5, 1e-12);
}

TEST(ClockOffset, SmallestRttSampleWins) {
  obs::ClockOffsetEstimator est;
  est.update(1.0, -3.999, -3.998, 1.003);  // rtt 2 ms, offset 5.0
  // A congested sample with asymmetric delay: bigger rtt, skewed offset.
  est.update(2.0, -2.95, -2.94, 2.2);  // rtt ~190 ms
  EXPECT_NEAR(est.offset_seconds(), 5.0, 1e-12);
  // A tighter sample displaces the estimate.
  est.update(3.0, -1.9995, -1.9993, 3.0006);  // rtt 0.4 ms, offset ~4.9997
  EXPECT_NEAR(est.rtt_seconds(), 0.0004, 1e-9);
}

TEST(ClockOffset, HelloSeedYieldsToTheFirstTwoSidedSample) {
  obs::ClockOffsetEstimator est;
  EXPECT_FALSE(est.valid());
  est.seed(/*tm=*/10.0, /*tw=*/4.0);
  ASSERT_TRUE(est.valid());
  EXPECT_NEAR(est.offset_seconds(), 6.0, 1e-12);
  // The seed is coarse (one-way): any two-sided sample replaces it.
  est.update(1.0, -3.999, -3.998, 1.003);
  EXPECT_NEAR(est.offset_seconds(), 5.0, 1e-12);
  // And a later seed never displaces a real sample.
  est.seed(20.0, 3.0);
  EXPECT_NEAR(est.offset_seconds(), 5.0, 1e-12);
}

// ---- worker capture -----------------------------------------------------------------

TEST(WorkerSession, ShipsOnlyTheDeltasOfTheCaptureWindow) {
  obs::Registry registry;
  obs::SpanTracer tracer;
  tracer.enable();

  obs::Counter& solves = registry.counter("linalg.stage_solves");
  obs::Counter& idle = registry.counter("linalg.untouched");
  solves.add(100);  // pre-window value must not ship
  idle.add(5);
  obs::Histogram& h = registry.histogram("linalg.stage_solve_seconds");

  obs::WorkerTelemetrySession session;
  session.begin(registry, tracer);
  solves.add(3);
  h.observe(0.25);
  h.observe(0.75);
  tracer.record({"subsolve", "mw", "worker", 1.0, 2.0});
  const obs::TelemetryBatch batch = session.end(sample_context());

  EXPECT_EQ(batch.context.span_id, 42u);
  EXPECT_LE(batch.worker_recv_seconds, batch.worker_send_seconds);
  ASSERT_EQ(batch.counters.size(), 1u);
  EXPECT_EQ(batch.counters[0].name, "linalg.stage_solves");
  EXPECT_EQ(batch.counters[0].delta, 3u);
  ASSERT_EQ(batch.histograms.size(), 1u);
  EXPECT_EQ(batch.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(batch.histograms[0].sum, 1.0);
  ASSERT_EQ(batch.spans.size(), 1u);
  EXPECT_EQ(batch.spans[0].name, "subsolve");
  EXPECT_EQ(tracer.size(), 0u);  // drained: the next trip won't re-ship them
}

// ---- master merge -------------------------------------------------------------------

TEST(MergeBatch, TagsCountersRetimesAndClampsSpans) {
  obs::Registry registry;
  obs::SpanTracer tracer;
  tracer.enable();
  obs::ClockOffsetEstimator offset;
  offset.update(1.0, -3.999, -3.998, 1.003);  // worker + 5.0 = master

  obs::TelemetryBatch batch;
  batch.context = sample_context();
  batch.worker_pid = 77;
  batch.counters.push_back({"linalg.stage_solves", 17});
  batch.histograms.push_back({"linalg.stage_solve_seconds", 4, 0.5});
  batch.spans.push_back({"subsolve", "mw", "ignored", 10.0, 10.5});   // -> [15.0, 15.5]
  batch.spans.push_back({"early", "mw", "ignored", 0.0, 1.0});        // -> [5.0, 6.0], out of window

  obs::merge_telemetry_batch(batch, offset, "tcp.ch1", /*clamp_start=*/14.9,
                             /*clamp_end=*/15.2, registry, tracer);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("worker.pid77.linalg.stage_solves"), 17u);
  EXPECT_EQ(snap.counter_or("worker.pid77.linalg.stage_solve_seconds.count"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("worker.pid77.linalg.stage_solve_seconds.sum"), 0.5);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);  // the out-of-window span is dropped
  EXPECT_EQ(spans[0].name, "subsolve");
  EXPECT_EQ(spans[0].track, "tcp.ch1");
  EXPECT_NEAR(spans[0].start, 15.0, 1e-12);
  EXPECT_NEAR(spans[0].end, 15.2, 1e-12);  // clamped into the dispatch window
}

TEST(MergeBatch, CountersMergeEvenWhenTheTracerIsDisabled) {
  obs::Registry registry;
  obs::SpanTracer tracer;  // never enabled
  obs::ClockOffsetEstimator offset;
  offset.update(1.0, -3.999, -3.998, 1.003);

  obs::TelemetryBatch batch;
  batch.worker_pid = 9;
  batch.counters.push_back({"net.worker.works_handled", 2});
  batch.spans.push_back({"subsolve", "mw", "x", 10.0, 10.5});
  obs::merge_telemetry_batch(batch, offset, "tcp.ch0", 0.0, 100.0, registry, tracer);

  EXPECT_EQ(registry.snapshot().counter_or("worker.pid9.net.worker.works_handled"), 2u);
  EXPECT_EQ(tracer.size(), 0u);
}

// ---- end to end over a loopback endpoint --------------------------------------------

struct WorkerThread {
  std::thread thread;
  WorkerThread(std::uint16_t port, net::WorkHandler handler) {
    thread = std::thread([port, handler = std::move(handler)] {
      net::run_worker_loop("127.0.0.1", port, handler);
    });
  }
  ~WorkerThread() { thread.join(); }
};

net::WorkHandler echo_handler() {
  return [](const std::vector<std::uint8_t>& work) {
    return std::vector<std::uint8_t>(work.rbegin(), work.rend());
  };
}

TEST(TelemetryEndToEnd, WorkerMetricsMergeIntoTheMasterRegistry) {
  obs::enable_wall_clock(obs::tracer());
  obs::tracer().clear();

  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  WorkerThread worker(endpoint.port(), echo_handler());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const std::vector<std::uint8_t> work{1, 2, 3, 4, 5};
  const auto trip = endpoint.round_trip(work, {}, /*job_id=*/31);
  ASSERT_TRUE(trip.ok) << trip.error;
  EXPECT_EQ(trip.payload, (std::vector<std::uint8_t>{5, 4, 3, 2, 1}));

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.telemetry_batches, 1u);
  EXPECT_EQ(c.telemetry_rejected, 0u);
  endpoint.shutdown();

  // Worker-tagged net.* counters landed in the (shared, in-process) registry.
  const std::string prefix = "worker.pid" + std::to_string(::getpid()) + ".";
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_GE(snap.counter_or(prefix + "net.worker.works_handled"), 1u);
  EXPECT_GE(snap.counter_or(prefix + "net.worker.work_bytes"), work.size());

  // The merged trace holds the master's dispatch span and the worker's spans
  // on the same per-channel track, nested by time containment.
  const auto spans = obs::tracer().snapshot();
  const obs::SpanRecord* dispatch = nullptr;
  for (const auto& s : spans) {
    if (s.name == "dispatch" && s.category == "net") dispatch = &s;
  }
  ASSERT_NE(dispatch, nullptr);
  for (const auto& s : spans) {
    if (&s == dispatch || s.track != dispatch->track) continue;
    EXPECT_GE(s.start, dispatch->start);
    EXPECT_LE(s.end, dispatch->end);
  }
  obs::tracer().disable();
  obs::tracer().clear();
}

TEST(TelemetryEndToEnd, ResultsAreIdenticalWithTelemetryOnAndOff) {
  const std::vector<std::uint8_t> work{10, 20, 30, 40};
  std::vector<std::uint8_t> with_telemetry, without_telemetry;
  {
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
    WorkerThread worker(endpoint.port(), echo_handler());
    ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));
    const auto trip = endpoint.round_trip(work);
    ASSERT_TRUE(trip.ok) << trip.error;
    with_telemetry = trip.payload;
    endpoint.shutdown();
  }
  {
    net::RemoteEndpointConfig config;
    config.telemetry = false;
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
    WorkerThread worker(endpoint.port(), echo_handler());
    ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));
    const auto trip = endpoint.round_trip(work);
    ASSERT_TRUE(trip.ok) << trip.error;
    without_telemetry = trip.payload;
    endpoint.shutdown();
  }
  EXPECT_EQ(with_telemetry, without_telemetry);
}

// ---- degradation: corrupt telemetry must not fail the trip --------------------------

/// A hand-rolled worker speaking the frame protocol directly, so the test
/// controls the exact Result payload (the real worker would never emit a
/// corrupt telemetry blob).
void fake_worker_one_trip(std::uint16_t port, const std::vector<std::uint8_t>& telemetry_blob,
                          std::atomic<bool>& served) {
  net::Socket sock = net::connect_tcp("127.0.0.1", port, 5s);
  if (!sock.valid()) return;
  // pid 0, attempt 0, and the wall-clock sample that seeds clock alignment.
  support::ByteWriter hello;
  hello.write_u64(0);
  hello.write_u64(0);
  hello.write_f64(obs::wall_clock_seconds());
  const auto hello_frame = net::encode_frame(net::FrameType::Hello, 0, hello.bytes());
  if (!net::send_all(sock, hello_frame.data(), hello_frame.size())) return;

  net::FrameDecoder decoder;
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const std::ptrdiff_t r = sock.recv_some(buf, sizeof buf);
    if (r <= 0) return;
    decoder.feed(buf, static_cast<std::size_t>(r));
    while (auto frame = decoder.next()) {
      if (frame->header.type != net::FrameType::Work) return;
      const obs::SplitWork split = obs::split_context(frame->payload);
      std::vector<std::uint8_t> reply(split.work.rbegin(), split.work.rend());
      const auto out = net::encode_frame(net::FrameType::Result, frame->header.seq,
                                         obs::wrap_result(telemetry_blob, reply));
      if (!net::send_all(sock, out.data(), out.size())) return;
      served.store(true);
    }
  }
}

TEST(TelemetryEndToEnd, CorruptTelemetryBlobDegradesToLocalOnlyMetrics) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  std::atomic<bool> served{false};
  // A blob that is not a TelemetryBatch: valid envelope, garbage content.
  std::thread worker(
      [&] { fake_worker_one_trip(endpoint.port(), {0xDE, 0xAD, 0xBE, 0xEF}, served); });
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const std::vector<std::uint8_t> work{1, 2, 3};
  const auto trip = endpoint.round_trip(work);
  ASSERT_TRUE(trip.ok) << trip.error;  // the job survives the telemetry loss
  EXPECT_EQ(trip.payload, (std::vector<std::uint8_t>{3, 2, 1}));

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.telemetry_rejected, 1u);
  EXPECT_EQ(c.telemetry_batches, 0u);
  EXPECT_EQ(c.round_trips_ok, 1u);
  endpoint.shutdown();
  worker.join();
  EXPECT_TRUE(served.load());
}

// ---- concurrency hammers (run under TSAN in CI) -------------------------------------

TEST(TelemetryConcurrency, RegistrySnapshotsRaceCleanlyWithWriters) {
  obs::Registry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      obs::Counter& counter = registry.counter("hammer.counter" + std::to_string(t));
      obs::Histogram& histogram = registry.histogram("hammer.latency");
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add();
        histogram.observe(0.001 * t);
      }
    });
  }
  // Snapshot until every writer has visibly made progress, so the snapshots
  // genuinely race the adds (and the final assertion cannot be beaten by a
  // writer thread that was never scheduled).
  bool all_writing = false;
  for (int i = 0; i < 100'000 && !all_writing; ++i) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_LE(snap.counters.size(), 4u);
    all_writing = true;
    for (int t = 0; t < 4; ++t) {
      all_writing &= snap.counter_or("hammer.counter" + std::to_string(t)) >= 1u;
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_TRUE(all_writing);
  EXPECT_GE(registry.snapshot().counter_or("hammer.counter0"), 1u);
}

TEST(TelemetryConcurrency, TracerExportsRaceCleanlyWithRecorders) {
  obs::SpanTracer tracer;
  tracer.enable();
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&tracer, &stop, t] {
      const std::string track = "worker" + std::to_string(t);
      double clock = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        tracer.record({"task", "hammer", track, clock, clock + 0.5});
        clock += 1.0;
      }
    });
  }
  // Keep exporting until the recorders have demonstrably been racing the
  // drains (a fixed iteration count can finish before any recorder thread is
  // even scheduled).
  std::size_t drained = 0;
  for (int i = 0; i < 100'000 && drained < 64; ++i) {
    drained += tracer.drain().size();
    const std::string json = tracer.chrome_trace_json();
    EXPECT_FALSE(json.empty());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& r : recorders) r.join();
  drained += tracer.drain().size();
  EXPECT_GE(drained, 1u);
  EXPECT_EQ(tracer.size(), 0u);
}

}  // namespace
