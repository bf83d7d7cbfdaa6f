// Tier-1 tests for the network substrate: CRC32 vectors, frame codec and
// decoder resynchronisation behaviour, the poll() event loop's posting and
// timer contracts, and RemoteEndpoint round trips against in-process worker
// threads (no fork — the multi-process soak lives in test_net_soak.cpp).
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "core/concurrent_solver.hpp"
#include "core/remote_worker.hpp"
#include "fleet/churn.hpp"
#include "gated_workers.hpp"
#include "net/crc32.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/span.hpp"
#include "support/bytes.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;

// ---- crc32 --------------------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check input.
  const char* s = "123456789";
  EXPECT_EQ(net::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  const char* s = "123456789";
  const std::uint32_t whole = net::crc32(s, 9);
  const std::uint32_t part = net::crc32(s + 4, 5, net::crc32(s, 4));
  EXPECT_EQ(part, whole);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(net::crc32("", 0), 0u); }

// ---- frame codec --------------------------------------------------------------------

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t fill = 0xAB) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(Frame, RoundTripsThroughTheDecoder) {
  const auto payload = payload_of(1000, 0x5C);
  const auto bytes = net::encode_frame(net::FrameType::Work, 42, payload);
  ASSERT_EQ(bytes.size(), net::FrameHeader::kWireSize + payload.size());

  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, net::FrameType::Work);
  EXPECT_EQ(frame->header.seq, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, SurvivesByteAtATimeDelivery) {
  // TCP may hand the stream over in arbitrary fragments; the decoder must
  // reassemble regardless of the read sizes.
  const auto payload = payload_of(257, 0x11);
  const auto bytes = net::encode_frame(net::FrameType::Result, 7, payload);
  net::FrameDecoder decoder;
  std::size_t frames = 0;
  for (const std::uint8_t b : bytes) {
    decoder.feed(&b, 1);
    while (decoder.next()) ++frames;
  }
  EXPECT_EQ(frames, 1u);
}

TEST(Frame, DecodesBackToBackFramesInOrder) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const auto f = net::encode_frame(net::FrameType::Work, seq, payload_of(seq * 10));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  net::FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header.seq, seq);
    EXPECT_EQ(frame->payload.size(), seq * 10);
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Frame, BadMagicIsConnectionFatal) {
  auto bytes = net::encode_frame(net::FrameType::Hello, 1, payload_of(4));
  bytes[0] ^= 0xFF;
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), net::FrameError);
}

TEST(Frame, HeaderCorruptionFailsTheHeaderCrc) {
  // Flip a bit in the seq field: the payload CRC can't see it, the header
  // CRC must.
  auto bytes = net::encode_frame(net::FrameType::Work, 0x0123456789ABCDEFULL, payload_of(16));
  bytes[10] ^= 0x01;
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), net::FrameError);
}

TEST(Frame, PayloadCorruptionFailsThePayloadCrc) {
  auto bytes = net::encode_frame(net::FrameType::Work, 9, payload_of(64));
  bytes[net::FrameHeader::kWireSize + 20] ^= 0x80;
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), net::FrameError);
}

TEST(Frame, IncompleteFrameWaitsForMoreBytes) {
  const auto bytes = net::encode_frame(net::FrameType::Work, 3, payload_of(100));
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());  // not an error: just not done
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(Frame, PreviousProtocolVersionIsRefused) {
  // A v4 peer still sends the stage-cache and warm-start flags in every Work
  // payload; it must fail at the header, not at a misread kernel field.
  auto bytes = net::encode_frame(net::FrameType::Work, 1, payload_of(8));
  bytes[4] = 4;
  bytes[5] = 0;
  const std::uint32_t crc = net::crc32(bytes.data(), 24);
  for (int i = 0; i < 4; ++i) bytes[24 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  try {
    decoder.next();
    FAIL() << "a v4 frame was accepted";
  } catch (const net::FrameError& e) {
    EXPECT_NE(std::string(e.what()).find("version 4"), std::string::npos) << e.what();
  }
}

TEST(Frame, OversizedPayloadDeclarationIsRejected) {
  const auto bytes = net::encode_frame(net::FrameType::Work, 1, payload_of(512));
  net::FrameDecoder decoder(256);  // max payload below the declared size
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), net::FrameError);
}

// ---- event loop ---------------------------------------------------------------------

TEST(EventLoop, PostedClosuresRunOnTheLoopThread) {
  net::EventLoop loop;
  loop.start();
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  loop.post([&] {
    on_loop.store(loop.on_loop_thread());
    ran.store(true);
  });
  for (int i = 0; i < 200 && !ran.load(); ++i) std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(on_loop.load());
  loop.stop();
}

TEST(EventLoop, TimersFireAndCancelledTimersDoNot) {
  net::EventLoop loop;
  loop.start();
  std::atomic<int> fired{0};
  loop.post_after(30ms, [&] { fired.fetch_add(1); });
  const std::uint64_t doomed = loop.post_after(30ms, [&] { fired.fetch_add(100); });
  loop.cancel_timer(doomed);
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(fired.load(), 1);
  loop.stop();
}

TEST(EventLoop, WatchDispatchesReadableFds) {
  net::TcpListener listener("127.0.0.1", 0);
  net::EventLoop loop;
  loop.start();
  std::atomic<bool> accepted{false};
  loop.post([&] {
    listener.set_nonblocking(true);
    loop.watch(listener.fd(), POLLIN, [&](short) {
      net::Socket s = listener.accept();
      if (s.valid()) accepted.store(true);
    });
  });
  net::Socket client = net::connect_tcp("127.0.0.1", listener.port(), 1s);
  ASSERT_TRUE(client.valid());
  for (int i = 0; i < 200 && !accepted.load(); ++i) std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(accepted.load());
  loop.post([&] { loop.unwatch(listener.fd()); });
  loop.stop();
}

// ---- endpoint round trips (in-process workers) --------------------------------------

/// Runs run_worker_loop on a plain thread in this process — the loopback
/// equivalent of a remote worker, cheap enough for tier 1.
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
    std::vector<std::uint8_t> reply(work.rbegin(), work.rend());
    return reply;
  };
}

TEST(RemoteEndpoint, RoundTripsWorkToAWorkerAndBack) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  WorkerThread worker(endpoint.port(), echo_handler());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const std::vector<std::uint8_t> work{1, 2, 3, 4, 5};
  const auto trip = endpoint.round_trip(work);
  ASSERT_TRUE(trip.ok) << trip.error;
  EXPECT_EQ(trip.payload, (std::vector<std::uint8_t>{5, 4, 3, 2, 1}));

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.accepts, 1u);
  EXPECT_EQ(c.round_trips_ok, 1u);
  EXPECT_EQ(c.round_trips_failed, 0u);
  EXPECT_GE(c.frames_sent, 1u);
  EXPECT_GE(c.frames_received, 2u);  // Hello + Result
  endpoint.shutdown();
}

TEST(RemoteEndpoint, ManyTripsInterleaveAcrossWorkers) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  WorkerThread w1(endpoint.port(), echo_handler());
  WorkerThread w2(endpoint.port(), echo_handler());
  ASSERT_TRUE(endpoint.wait_for_workers(2, 5s));

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&endpoint, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        const std::vector<std::uint8_t> work{static_cast<std::uint8_t>(t),
                                             static_cast<std::uint8_t>(i)};
        const auto trip = endpoint.round_trip(work);
        if (!trip.ok || trip.payload != std::vector<std::uint8_t>{work[1], work[0]}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(endpoint.counters().round_trips_ok, 100u);
  endpoint.shutdown();
}

TEST(RemoteEndpoint, DeadlineFailsTheTripWhenNoWorkerEverArrives) {
  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 150ms;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  const auto trip = endpoint.round_trip({1, 2, 3});
  EXPECT_FALSE(trip.ok);
  EXPECT_EQ(endpoint.counters().round_trips_failed, 1u);
  endpoint.shutdown();
}

TEST(RemoteEndpoint, CancellationHookAbandonsTheWait) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(100ms);
    cancel.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto trip = endpoint.round_trip({9}, [&] { return cancel.load(); });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_FALSE(trip.ok);
  EXPECT_LT(elapsed, 5s);  // broke out long before the 10 s default deadline
  endpoint.shutdown();
}

TEST(RemoteEndpoint, WorkerExceptionFailsTheTripButKeepsTheChannel) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  std::atomic<int> calls{0};
  WorkerThread worker(endpoint.port(), [&calls](const std::vector<std::uint8_t>& work) {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("compute exploded");
    return work;
  });
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const auto failed = endpoint.round_trip({1});
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("compute exploded"), std::string::npos) << failed.error;

  // The worker is still connected — the next trip reuses the same channel.
  const auto ok = endpoint.round_trip({2});
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(endpoint.counters().disconnects, 0u);
  endpoint.shutdown();
}

TEST(RemoteEndpoint, DroppedFramesTimeOutAndTheWorkerReconnects) {
  fault::FaultPlanConfig fault_config;
  fault_config.seed = 5;
  fault_config.net_drop = 1.0;  // every Work frame vanishes
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 200ms;
  config.faults = &plan;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  WorkerThread worker(endpoint.port(), echo_handler());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const auto trip = endpoint.round_trip({1, 2, 3});
  EXPECT_FALSE(trip.ok);
  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.faults_dropped, 1u);
  EXPECT_EQ(c.round_trips_failed, 1u);
  // The deadline killed the channel; the worker must come back on its own.
  // The failed trip is reported *before* the loop thread closes the carrier,
  // so poll for the reconnect instead of racing the close.
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (endpoint.counters().reconnects < 1 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(endpoint.wait_for_workers(1, 5s));
  EXPECT_GE(endpoint.counters().reconnects, 1u);
  endpoint.shutdown();
}

TEST(RemoteEndpoint, TruncatedFramesAreDetectedByTheWorkerDecoder) {
  fault::FaultPlanConfig fault_config;
  fault_config.seed = 11;
  fault_config.net_truncate = 1.0;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 2s;
  config.faults = &plan;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  WorkerThread worker(endpoint.port(), echo_handler());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  const auto trip = endpoint.round_trip({1, 2, 3, 4});
  EXPECT_FALSE(trip.ok);
  EXPECT_EQ(endpoint.counters().faults_truncated, 1u);
  // Truncation closes the channel immediately — the trip fails fast, without
  // waiting out the deadline, and the worker reconnects.
  EXPECT_TRUE(endpoint.wait_for_workers(1, 5s));
  endpoint.shutdown();
}

TEST(RemoteEndpoint, ShutdownFailsInFlightTripsInsteadOfHanging) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  std::thread shutter([&] {
    std::this_thread::sleep_for(100ms);
    endpoint.shutdown();
  });
  const auto trip = endpoint.round_trip({1});
  shutter.join();
  EXPECT_FALSE(trip.ok);
  // After shutdown every further trip fails immediately.
  EXPECT_FALSE(endpoint.round_trip({2}).ok);
}

// ---- pipelined dispatch (N-in-flight leases; DESIGN.md §15) -------------------------

/// A raw scripted worker: completes the Hello handshake by hand so the test
/// controls exactly when and in which order Results go back — the lever for
/// out-of-order completion, duplicate seqs and cancellation mid-window.
struct FakeWorker {
  net::Socket sock;
  net::FrameDecoder decoder;

  explicit FakeWorker(std::uint16_t port) {
    sock = net::connect_tcp("127.0.0.1", port, 2000ms);
    EXPECT_TRUE(sock.valid());
    // pid 0, attempt 0, and the wall-clock sample that seeds clock alignment.
    support::ByteWriter hello;
    hello.write_u64(0);
    hello.write_u64(0);
    hello.write_f64(obs::wall_clock_seconds());
    const auto frame = net::encode_frame(net::FrameType::Hello, 0, hello.bytes());
    EXPECT_TRUE(net::send_all(sock, frame.data(), frame.size()));
  }

  /// Blocks until one frame arrives (the socket stays blocking).
  std::optional<net::Frame> next_frame() {
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = decoder.next()) return f;
      const std::ptrdiff_t n = sock.recv_some(buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }

  void send_result(std::uint64_t seq, const std::vector<std::uint8_t>& payload) {
    const auto bytes = net::encode_frame(net::FrameType::Result, seq, payload);
    EXPECT_TRUE(net::send_all(sock, bytes.data(), bytes.size()));
  }
};

net::RemoteEndpointConfig pipelined_config(std::size_t depth) {
  net::RemoteEndpointConfig config;
  config.telemetry = false;  // raw payloads: the fake worker sends no envelope
  config.pipeline_depth = depth;
  return config;
}

TEST(PipelinedEndpoint, DepthKnobClampsToTheProtocolWindow) {
  const auto depth_of = [](std::size_t requested) {
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(requested));
    return endpoint.pipeline_depth();
  };
  EXPECT_EQ(depth_of(4), 4u);
  EXPECT_EQ(depth_of(0), 1u);     // below the floor: one in flight minimum
  EXPECT_EQ(depth_of(1000), 64u);  // above the seq-window cap
}

TEST(PipelinedEndpoint, WindowOfFramesRidesOneChannelAndCompletesOutOfOrder) {
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(4));
  FakeWorker worker(endpoint.port());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  // Three concurrent trips against ONE worker: with a depth-4 window all
  // three Work frames must reach the wire without waiting on each other.
  std::vector<std::future<net::RemoteEndpoint::RoundTrip>> trips;
  for (std::uint8_t tag = 1; tag <= 3; ++tag) {
    trips.push_back(std::async(std::launch::async, [&endpoint, tag] {
      return endpoint.round_trip({tag, static_cast<std::uint8_t>(tag * 16)});
    }));
  }
  std::vector<net::Frame> work;
  for (int i = 0; i < 3; ++i) {
    auto f = worker.next_frame();
    ASSERT_TRUE(f.has_value()) << "frame " << i << " never arrived: window stalled";
    ASSERT_EQ(f->header.type, net::FrameType::Work);
    work.push_back(std::move(*f));
  }

  // Answer in reverse order: each Result must resolve *its* trip, matched by
  // seq, not by arrival order.
  for (auto it = work.rbegin(); it != work.rend(); ++it) {
    worker.send_result(it->header.seq, it->payload);
  }
  for (std::uint8_t tag = 1; tag <= 3; ++tag) {
    const auto trip = trips[tag - 1].get();
    ASSERT_TRUE(trip.ok) << trip.error;
    EXPECT_EQ(trip.payload,
              (std::vector<std::uint8_t>{tag, static_cast<std::uint8_t>(tag * 16)}));
  }
  EXPECT_EQ(endpoint.counters().round_trips_ok, 3u);
  EXPECT_EQ(endpoint.counters().disconnects, 0u);
  endpoint.shutdown();
}

TEST(ElasticEndpoint, DuplicateResultIsDiscardedAndTheChannelSurvives) {
  // The suite name dates from when dedup was an opt-in endpoint mode; the
  // default config (depth 4) now carries it.
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(4));
  FakeWorker worker(endpoint.port());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({1, 2, 3}); });
  const auto work = worker.next_frame();
  ASSERT_TRUE(work.has_value());
  ASSERT_EQ(work->header.type, net::FrameType::Work);

  // The same lease answered twice: the first Result wins; the echo must be
  // counted and dropped, not treated as a protocol violation.
  worker.send_result(work->header.seq, {9});
  worker.send_result(work->header.seq, {9});
  const auto result = trip.get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload, (std::vector<std::uint8_t>{9}));

  // A second trip over the same channel proves it survived the echo.
  auto again = std::async(std::launch::async, [&] { return endpoint.round_trip({4}); });
  const auto work2 = worker.next_frame();
  ASSERT_TRUE(work2.has_value());
  worker.send_result(work2->header.seq, {8});
  EXPECT_TRUE(again.get().ok);

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.fleet_duplicates, 1u);
  EXPECT_EQ(c.disconnects, 0u);
  EXPECT_EQ(c.round_trips_ok, 2u);
  endpoint.shutdown();
}

TEST(PipelinedEndpoint, DuplicateSeqInsideTheWindowIsDroppedNotFatal) {
  // The retired-seq dedup is on at every depth.  Here the echo of a finished
  // lease arrives while the next lease is live on the same channel: it is
  // counted and dropped, it does not resolve the live lease, and the channel
  // survives.
  for (const std::size_t depth : {1u, 4u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(depth));
    FakeWorker worker(endpoint.port());
    ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

    auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({5}); });
    const auto work = worker.next_frame();
    ASSERT_TRUE(work.has_value());
    worker.send_result(work->header.seq, {6});
    const auto first = trip.get();
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.payload, (std::vector<std::uint8_t>{6}));

    auto again = std::async(std::launch::async, [&] { return endpoint.round_trip({7}); });
    const auto work2 = worker.next_frame();
    ASSERT_TRUE(work2.has_value());
    worker.send_result(work->header.seq, {6});  // the echo, behind a live lease
    worker.send_result(work2->header.seq, {8});
    const auto second = again.get();
    ASSERT_TRUE(second.ok) << "channel died on the duplicate: " << second.error;
    EXPECT_EQ(second.payload, (std::vector<std::uint8_t>{8}));

    const net::RemoteCounters c = endpoint.counters();
    EXPECT_EQ(c.fleet_duplicates, 1u);
    EXPECT_EQ(c.disconnects, 0u);
    EXPECT_EQ(c.round_trips_ok, 2u);
    endpoint.shutdown();
  }
}

TEST(PipelinedEndpoint, CancellationMidWindowSparesTheOtherFramesInFlight) {
  for (const std::size_t depth : {1u, 4u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(depth));
    FakeWorker worker(endpoint.port());
    ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

    // The first trip is cancelled while on the wire.  At depth 4 the second
    // trip rides the same channel beside it; at depth 1 it queues behind it.
    std::atomic<bool> cancel{false};
    auto doomed = std::async(std::launch::async, [&] {
      return endpoint.round_trip({1}, [&] { return cancel.load(); });
    });
    const auto doomed_work = worker.next_frame();
    ASSERT_TRUE(doomed_work.has_value());
    auto survivor = std::async(std::launch::async, [&] { return endpoint.round_trip({2}); });
    std::optional<net::Frame> live_work;
    if (depth > 1) live_work = worker.next_frame();

    cancel.store(true);
    EXPECT_FALSE(doomed.get().ok);

    // The cancel was gentle: the survivor's lease is untouched (or, at
    // depth 1, takes the freed slot on the same channel) and completes.
    if (depth == 1) live_work = worker.next_frame();
    ASSERT_TRUE(live_work.has_value());
    EXPECT_EQ(live_work->payload, (std::vector<std::uint8_t>{2}));
    worker.send_result(live_work->header.seq, {22});
    const auto ok = survivor.get();
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.payload, (std::vector<std::uint8_t>{22}));

    // The cancelled lease's seq was retired: its late Result is a counted
    // duplicate, not a protocol violation, and the channel stays up.
    worker.send_result(doomed_work->header.seq, {11});
    auto after = std::async(std::launch::async, [&] { return endpoint.round_trip({3}); });
    const auto work3 = worker.next_frame();
    ASSERT_TRUE(work3.has_value()) << "late Result for a cancelled lease killed the channel";
    worker.send_result(work3->header.seq, {33});
    EXPECT_TRUE(after.get().ok);

    const net::RemoteCounters c = endpoint.counters();
    EXPECT_EQ(c.disconnects, 0u);
    EXPECT_GE(c.fleet_duplicates, 1u);
    endpoint.shutdown();
  }
}

TEST(PipelinedEndpoint, ResultOrErrorForAnUnissuedSeqClosesTheChannel) {
  // The one seq rule that still kills a channel: a reply to a lease the
  // endpoint never issued means the stream is not speaking our protocol.
  for (const std::size_t depth : {1u, 4u}) {
    for (const net::FrameType type : {net::FrameType::Result, net::FrameType::Error}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + ", " + net::to_string(type));
      net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), pipelined_config(depth));
      FakeWorker worker(endpoint.port());
      ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

      auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({4}); });
      const auto work = worker.next_frame();
      ASSERT_TRUE(work.has_value());
      const auto bogus = net::encode_frame(type, work->header.seq + 1000, {9});
      ASSERT_TRUE(net::send_all(worker.sock, bogus.data(), bogus.size()));

      // The close fails the live lease with it, and the worker sees EOF.
      EXPECT_FALSE(trip.get().ok);
      EXPECT_FALSE(worker.next_frame().has_value());
      const net::RemoteCounters c = endpoint.counters();
      EXPECT_EQ(c.disconnects, 1u);
      EXPECT_EQ(c.fleet_duplicates, 0u);
      endpoint.shutdown();
    }
  }
}

// ---- pipelined solves: bit-identity at any depth ------------------------------------

/// In-process subsolve workers (threads, not forks — cheap enough for
/// tier 1); the fork-based equivalent soaks in test_net_soak.cpp.
struct SubsolveWorkers {
  std::vector<std::thread> threads;

  SubsolveWorkers(std::uint16_t port, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([port] { mw::run_subsolve_worker("127.0.0.1", port); });
    }
  }
  ~SubsolveWorkers() {
    for (auto& t : threads) t.join();
  }
};

TEST(PipelinedSolve, DepthFourMatchesDepthOneAndTheSequentialProgram) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  const auto seq = transport::solve_sequential(program);

  for (const std::size_t depth : {1u, 4u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    net::RemoteEndpointConfig config;
    config.pipeline_depth = depth;
    net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
    SubsolveWorkers workers(endpoint.port(), 2);
    ASSERT_TRUE(endpoint.wait_for_workers(2, 10s));

    mw::ConcurrentOptions options;
    options.remote = &endpoint;
    const auto remote = mw::solve_concurrent(program, options);

    EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
    EXPECT_EQ(endpoint.counters().round_trips_failed, 0u);
    endpoint.shutdown();
  }
}

TEST(PipelinedSolve, DepthFourUnderSeededNetFaultsStaysBitIdentical) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  const auto seq = transport::solve_sequential(program);

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 7;
  fault_config.net_drop = 0.2;
  fault_config.net_truncate = 0.15;
  fault_config.net_slow = 0.2;
  fault_config.net_delay = 30ms;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 2000ms;
  config.faults = &plan;
  config.pipeline_depth = 4;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  SubsolveWorkers workers(endpoint.port(), 2);
  ASSERT_TRUE(endpoint.wait_for_workers(2, 10s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry.max_attempts = 10;
  options.retry.backoff_initial = 2ms;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(remote.protocol.faults.abandoned, 0u);
  endpoint.shutdown();
}

// ---- churn that really loses leases ------------------------------------------------

/// Solves root 2, level 3 over three gated workers with the default endpoint
/// config, calls `churn` once every worker is parked inside a handler (so
/// every channel carries a live lease), and opens the gate only after two
/// channels have closed.  A lost lease is the caller's to retry: the
/// endpoint fails the trips a closed channel carried and the fault-tolerant
/// pool re-submits them.  `churn` must cost one leave and one crash.
void solve_through_one_leave_and_one_crash(const std::function<void(net::RemoteEndpoint&)>& churn,
                                           net::RemoteCounters& counters) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  const auto seq = transport::solve_sequential(program);

  // Workers before the endpoint, so an early exit shuts the endpoint down
  // (and so lets the workers finish) before they are joined.
  net::TcpListener listener("127.0.0.1", 0);
  tests::GatedSubsolveWorkers workers(listener.port(), 3);
  net::RemoteEndpoint endpoint(std::move(listener));
  EXPECT_EQ(endpoint.pipeline_depth(), 4u);
  ASSERT_TRUE(endpoint.wait_for_workers(3, 10s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry.max_attempts = 6;
  options.retry.backoff_initial = 2ms;
  auto solve = std::async(std::launch::async, [&] { return mw::solve_concurrent(program, options); });

  EXPECT_TRUE(workers.gate.wait_entered(3, 30s));
  churn(endpoint);
  EXPECT_TRUE(tests::wait_for_disconnects(endpoint, 2, 10s));
  workers.gate.open();
  const auto remote = solve.get();
  // Read the counters once the loop has stopped, so a disrupted worker's
  // reconnect cannot land between two of the reads.
  endpoint.shutdown();
  counters = endpoint.counters();

  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(counters.fleet_leaves, 1u);
  EXPECT_EQ(counters.fleet_crashes, 1u);
  EXPECT_GE(counters.round_trips_failed, 2u) << "each disrupt must cost at least one live lease";
  EXPECT_GE(remote.protocol.faults.retries, 2u);
  EXPECT_EQ(remote.protocol.faults.abandoned, 0u);
}

TEST(PipelinedSolve, DepthFourUnderChurnStaysBitIdentical) {
  net::RemoteCounters counters;
  solve_through_one_leave_and_one_crash(
      [](net::RemoteEndpoint& endpoint) {
        endpoint.disrupt(/*graceful=*/true);
        endpoint.disrupt(/*graceful=*/false);
      },
      counters);
}

TEST(ElasticEndpoint, DisruptDrivenChurnKeepsTheSolveBitExact) {
  // The same losses, scheduled by a seeded ChurnPlan through drive_churn(),
  // which `sparse_grid_solver --backend=tcp --churn=` also runs.  Its offsets
  // count from the call, and the call returns once every event has fired,
  // so both land while the workers are still parked.
  net::RemoteCounters counters;
  solve_through_one_leave_and_one_crash(
      [](net::RemoteEndpoint& endpoint) {
        fleet::ChurnPlanConfig churn_config;
        churn_config.seed = 5;
        churn_config.leaves = 1;
        churn_config.crashes = 1;
        churn_config.start_seconds = 0.0;
        churn_config.spread_seconds = 0.02;
        const std::atomic<bool> stop{false};
        net::drive_churn(endpoint, fleet::ChurnPlan(churn_config), stop);
      },
      counters);
  EXPECT_EQ(counters.fleet_joins, counters.accepts) << "every accepted Hello joins the fleet";
}

// ---- remote solves recover under the default retry policy ---------------------------

TEST(RemoteSolve, DroppedFramesRecoverWithoutAnExplicitRetryPolicy) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  const auto seq = transport::solve_sequential(program);

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 3;
  fault_config.net_drop = 0.3;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 150ms;
  config.faults = &plan;
  net::TcpListener listener("127.0.0.1", 0);
  SubsolveWorkers workers(listener.port(), 2);
  net::RemoteEndpoint endpoint(std::move(listener), config);
  ASSERT_TRUE(endpoint.wait_for_workers(2, 10s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;  // no `retry`: the remote pool supplies its own
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_GE(endpoint.counters().faults_dropped, 1u);
  EXPECT_GE(remote.protocol.faults.retries, 1u);
  endpoint.shutdown();
}

}  // namespace
