// Tests for the byte codec and the master/worker unit marshalling (the
// bit-identity of a solve whose units cross the real wire is RemoteSolve.*
// and PipelinedSolve.* in test_net) — plus the property/fuzz suite the real
// TCP transport demands: a decoder fed hostile bytes (the
// frame layer's CRC can miss a coordinated corruption; an attacker-shaped
// length prefix can't be ruled out) must reject, never crash.
#include <gtest/gtest.h>

#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "net/frame.hpp"
#include "obs/telemetry.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "transport/subsolve.hpp"

namespace {

using namespace mg;
using support::ByteReader;
using support::ByteWriter;
using support::DecodeError;

// ---- byte writer/reader -----------------------------------------------------------

TEST(Bytes, ScalarsRoundTrip) {
  ByteWriter w;
  w.write_u64(0xDEADBEEFCAFEF00DULL);
  w.write_i64(-42);
  w.write_i32(-7);
  w.write_f64(3.14159);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.read_u64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_i32(), -7);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, DoublesAreBitExact) {
  // Exact bit pattern round-trip, including NaN payload and denormals.
  const double values[] = {0.0, -0.0, 1e-308, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::quiet_NaN(), 0.1};
  ByteWriter w;
  for (double v : values) w.write_f64(v);
  const auto bytes = w.take();
  ByteReader r(bytes);
  for (double v : values) {
    std::uint64_t expected, actual;
    const double got = r.read_f64();
    std::memcpy(&expected, &v, 8);
    std::memcpy(&actual, &got, 8);
    EXPECT_EQ(actual, expected);
  }
}

TEST(Bytes, StringsAndArraysRoundTrip) {
  ByteWriter w;
  w.write_string("bumpa.sen.cwi.nl");
  w.write_string("");
  w.write_doubles({1.0, 2.0, 3.0});
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.read_string(), "bumpa.sen.cwi.nl");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_doubles(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter w;
  w.write_u64(1);
  auto bytes = w.take();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW(r.read_u64(), DecodeError);
}

TEST(Bytes, CorruptLengthPrefixThrows) {
  ByteWriter w;
  w.write_u64(1'000'000);  // claims a million entries with no data behind it
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(r.read_doubles(), DecodeError);
}

// ---- work/result items --------------------------------------------------------------

TEST(Marshal, WorkItemRoundTrips) {
  transport::SubsolveConfig kernel;
  kernel.le_tol = 1e-4;
  kernel.system.scheme = transport::AdvectionScheme::ThirdOrderKoren;
  kernel.system.solver = transport::StageSolverKind::BiCgStabIlu0;
  const mw::WorkItem item{7, 2, 3, 1, kernel};
  const mw::WorkItem back = mw::decode_work_item(mw::encode_work_item(item));
  EXPECT_EQ(back.index, 7u);
  EXPECT_EQ(back.root, 2);
  EXPECT_EQ(back.lx, 3);
  EXPECT_EQ(back.ly, 1);
  EXPECT_EQ(back.config.le_tol, 1e-4);
  EXPECT_EQ(back.config.system.scheme, transport::AdvectionScheme::ThirdOrderKoren);
  EXPECT_EQ(back.config.system.solver, transport::StageSolverKind::BiCgStabIlu0);
  EXPECT_EQ(back.config.problem.ax, item.config.problem.ax);
}

TEST(Marshal, ResultItemRoundTripsBitExactly) {
  mw::ResultItem item{3, {0.1, -2.5, 1e-300, 42.0}, {}, 1.25};
  item.stats.accepted = 17;
  item.stats.stage_solves = 34;
  const mw::ResultItem back = mw::decode_result_item(mw::encode_result_item(item));
  EXPECT_EQ(back.index, 3u);
  EXPECT_EQ(back.node_data, item.node_data);
  EXPECT_EQ(back.stats.accepted, 17u);
  EXPECT_EQ(back.stats.stage_solves, 34u);
  EXPECT_DOUBLE_EQ(back.elapsed_seconds, 1.25);
}

TEST(Marshal, WireSizeMatchesEncoding) {
  mw::ResultItem item{0, std::vector<double>(grid::Grid2D(2, 2, 1).node_count(), 1.0), {}, 0.0};
  EXPECT_EQ(mw::encode_result_item(item).size(), mw::result_wire_bytes(2, 2, 1));
}

TEST(Marshal, PayloadEstimateIsTheRightScale) {
  // The network model's payload estimate must track the true wire size
  // within a factor of two (it is dominated by the nodal array either way).
  for (int lx : {1, 3}) {
    for (int ly : {0, 4}) {
      const auto estimate = transport::subsolve_payload_bytes(grid::Grid2D(2, lx, ly));
      const auto actual = mw::result_wire_bytes(2, lx, ly);
      EXPECT_LT(estimate, 2 * actual);
      EXPECT_LT(actual, 2 * estimate);
    }
  }
}

// ---- property/fuzz suite ------------------------------------------------------------

// Random doubles with arbitrary bit patterns (including NaNs, infinities and
// denormals), not just uniform values: the codec must be a bijection on the
// raw 64-bit payloads.
double bits_to_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

mw::WorkItem random_work_item(support::Xoshiro256& rng) {
  mw::WorkItem item{};
  item.index = rng.below(1u << 20);
  item.root = static_cast<int>(rng.below(6)) + 1;
  item.lx = static_cast<int>(rng.below(6));
  item.ly = static_cast<int>(rng.below(6));
  auto& k = item.config;
  k.problem.ax = bits_to_double(rng.next());
  k.problem.ay = bits_to_double(rng.next());
  k.problem.eps = rng.uniform(1e-6, 1.0);
  k.problem.x0 = rng.uniform01();
  k.problem.y0 = rng.uniform01();
  k.problem.sigma = bits_to_double(rng.next());
  k.problem.amplitude = bits_to_double(rng.next());
  k.system.scheme = static_cast<transport::AdvectionScheme>(rng.below(3));
  k.system.solver = static_cast<transport::StageSolverKind>(rng.below(2));
  k.system.krylov.rel_tol = rng.uniform(1e-12, 1e-2);
  k.system.krylov.abs_tol = rng.uniform(1e-14, 1e-4);
  k.system.krylov.max_iter = rng.below(10'000);
  k.le_tol = bits_to_double(rng.next());
  k.t0 = rng.uniform01();
  k.t1 = rng.uniform(1.0, 2.0);
  return item;
}

mw::ResultItem random_result_item(support::Xoshiro256& rng) {
  mw::ResultItem item{};
  item.index = rng.below(1u << 20);
  item.node_data.resize(rng.below(65));
  for (double& x : item.node_data) x = bits_to_double(rng.next());
  item.stats.accepted = rng.below(1'000);
  item.stats.rejected = rng.below(1'000);
  item.stats.rhs_evaluations = rng.below(100'000);
  item.stats.stage_preparations = rng.below(10'000);
  item.stats.stage_solves = rng.below(10'000);
  item.stats.final_h = bits_to_double(rng.next());
  item.elapsed_seconds = bits_to_double(rng.next());
  return item;
}

TEST(MarshalFuzz, TenThousandSeededRoundTripsAreBitExact) {
  // encode -> decode -> re-encode must reproduce the exact byte string; the
  // byte-level comparison sidesteps NaN != NaN while still proving every
  // payload bit survived both directions.
  support::Xoshiro256 rng(20040916);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto work_bytes = mw::encode_work_item(random_work_item(rng));
    EXPECT_EQ(mw::encode_work_item(mw::decode_work_item(work_bytes)), work_bytes)
        << "work item trial " << trial;
    const auto result_bytes = mw::encode_result_item(random_result_item(rng));
    EXPECT_EQ(mw::encode_result_item(mw::decode_result_item(result_bytes)), result_bytes)
        << "result item trial " << trial;
  }
}

TEST(MarshalFuzz, EveryTruncationRejectsWithoutCrashing) {
  support::Xoshiro256 rng(7);
  const auto work_bytes = mw::encode_work_item(random_work_item(rng));
  const auto result_bytes = mw::encode_result_item(random_result_item(rng));
  for (std::size_t len = 0; len < work_bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(work_bytes.begin(),
                                        work_bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(mw::decode_work_item(cut), std::exception) << "work prefix " << len;
  }
  for (std::size_t len = 0; len < result_bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(result_bytes.begin(),
                                        result_bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(mw::decode_result_item(cut), std::exception) << "result prefix " << len;
  }
}

TEST(MarshalFuzz, BitFlippedBuffersRejectOrDecodeNeverCrash) {
  // Flip one random bit per trial.  Depending on where it lands the decode
  // may legitimately succeed (a mutated double payload) or must reject
  // (DecodeError / ContractViolation); what it may never do is crash, hang,
  // or throw an unrelated type.  Runs the work and result codecs 5k trials
  // each — together with the round-trip suite this is the 10k-trial fuzz
  // budget.
  support::Xoshiro256 rng(424242);
  for (int trial = 0; trial < 5000; ++trial) {
    auto work_bytes = mw::encode_work_item(random_work_item(rng));
    work_bytes[rng.below(work_bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)mw::decode_work_item(work_bytes);
    } catch (const support::DecodeError&) {
    } catch (const support::ContractViolation&) {
    }

    auto result_bytes = mw::encode_result_item(random_result_item(rng));
    result_bytes[rng.below(result_bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)mw::decode_result_item(result_bytes);
    } catch (const support::DecodeError&) {
    } catch (const support::ContractViolation&) {
    }
  }
}

TEST(MarshalFuzz, OverflowingLengthPrefixIsRejected) {
  // Regression: a length prefix of 2^61 used to wrap the `n * 8` bound check
  // around to zero and send a multi-exabyte resize into std::vector.  The
  // divide-based check must reject it as a DecodeError instead.
  ByteWriter w;
  w.write_u64(0x2000000000000000ULL);
  w.write_f64(1.0);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(r.read_doubles(), DecodeError);

  // Same shape through the public result codec: index, then hostile length.
  ByteWriter rw;
  rw.write_u64(0);
  rw.write_u64(0x2000000000000001ULL);
  EXPECT_THROW(mw::decode_result_item(rw.take()), DecodeError);
}

TEST(MarshalFuzz, OutOfRangeEnumsAreRejected) {
  support::Xoshiro256 rng(99);
  const auto valid = mw::encode_work_item(random_work_item(rng));
  // scheme lives right after index(8) + root/lx/ly(12) + seven f64s(56).
  const std::size_t scheme_off = 8 + 12 + 56;
  auto bad_scheme = valid;
  bad_scheme[scheme_off] = 0x7F;
  EXPECT_THROW(mw::decode_work_item(bad_scheme), DecodeError);
  auto bad_solver = valid;
  bad_solver[scheme_off + 4] = 0xFF;  // solver = 255, far out of range
  EXPECT_THROW(mw::decode_work_item(bad_solver), DecodeError);
}

// ---- pipelined stream fuzz ----------------------------------------------------------
//
// With N-in-flight dispatch the master coalesces several frames into one
// write and the worker's decoder sees them as a single TCP stream, cut
// wherever the kernel pleases.  These cases pin the decoder's behaviour on
// exactly those streams: every split point reassembles, interleaved plain
// results and telemetry envelopes come out in order, and a stream truncated
// mid-queue yields the complete prefix and then waits — reject on
// corruption, never crash.

std::vector<std::uint8_t> pipelined_stream(const std::vector<net::Frame>& frames) {
  std::vector<std::uint8_t> stream;
  for (const auto& f : frames) {
    const auto bytes = net::encode_frame(f.header.type, f.header.seq, f.payload);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

std::vector<net::Frame> window_of_work_frames() {
  std::vector<net::Frame> frames;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    net::Frame f;
    f.header.type = net::FrameType::Work;
    f.header.seq = seq;
    f.payload.assign(seq * 37, static_cast<std::uint8_t>(0xA0 + seq));
    frames.push_back(std::move(f));
  }
  return frames;
}

TEST(PipelinedStreamFuzz, CoalescedWindowSurvivesEverySplitPoint) {
  const auto frames = window_of_work_frames();
  const auto stream = pipelined_stream(frames);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    net::FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<net::Frame> got;
    while (auto f = decoder.next()) got.push_back(std::move(*f));
    decoder.feed(stream.data() + split, stream.size() - split);
    while (auto f = decoder.next()) got.push_back(std::move(*f));
    ASSERT_EQ(got.size(), frames.size()) << "split " << split;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].header.seq, frames[i].header.seq) << "split " << split;
      EXPECT_EQ(got[i].payload, frames[i].payload) << "split " << split;
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(PipelinedStreamFuzz, InterleavedResultAndTelemetryEnvelopesDecodeInOrder) {
  // Out-of-order completion interleaves plain Results with enveloped ones on
  // the same stream; the envelope layer must come apart per frame.
  obs::TelemetryBatch batch;
  batch.worker_pid = 4242;
  batch.counters.push_back({"net.test_counter", 3});
  const auto telemetry = obs::encode_telemetry_batch(batch);

  std::vector<net::Frame> frames;
  for (std::uint64_t seq : {7u, 3u, 9u, 5u}) {
    net::Frame f;
    f.header.type = net::FrameType::Result;
    f.header.seq = seq;
    const std::vector<std::uint8_t> result(seq, static_cast<std::uint8_t>(seq));
    // Odd seqs travel enveloped, even seqs plain — as when only some Work
    // frames carried a trace context.
    f.payload = (seq % 2 == 1) ? obs::wrap_result(telemetry, result) : result;
    frames.push_back(std::move(f));
  }
  const auto stream = pipelined_stream(frames);

  net::FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  for (std::uint64_t seq : {7u, 3u, 9u, 5u}) {
    const auto f = decoder.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.seq, seq);
    const std::vector<std::uint8_t> expected(seq, static_cast<std::uint8_t>(seq));
    if (seq % 2 == 1) {
      const obs::ResultEnvelope env = obs::unwrap_result(f->payload);
      EXPECT_EQ(env.result, expected);
      EXPECT_EQ(obs::decode_telemetry_batch(env.telemetry).worker_pid, 4242u);
    } else {
      EXPECT_EQ(f->payload, expected);
    }
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(PipelinedStreamFuzz, TruncationMidQueueYieldsTheCompletePrefixThenWaits) {
  const auto frames = window_of_work_frames();
  const auto stream = pipelined_stream(frames);
  // Frame boundaries, to know how many complete frames each cut contains.
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  for (const auto& f : frames) {
    off += net::FrameHeader::kWireSize + f.payload.size();
    ends.push_back(off);
  }
  for (std::size_t len = 0; len < stream.size(); ++len) {
    net::FrameDecoder decoder;
    decoder.feed(stream.data(), len);
    std::size_t complete = 0;
    while (ends[complete] <= len) ++complete;
    for (std::size_t i = 0; i < complete; ++i) {
      const auto f = decoder.next();
      ASSERT_TRUE(f.has_value()) << "cut " << len;
      EXPECT_EQ(f->header.seq, frames[i].header.seq);
    }
    // The tail is an incomplete frame: not an error, just not done yet.
    EXPECT_FALSE(decoder.next().has_value()) << "cut " << len;
  }
}

TEST(PipelinedStreamFuzz, CorruptedStreamsRejectOrDecodeNeverCrash) {
  // One flipped bit anywhere in a pipelined stream, delivered in seeded
  // random fragments: each trial must end in either a clean decode of some
  // frame prefix or a FrameError — nothing else, and never a crash.  5k
  // seeded trials.
  support::Xoshiro256 rng(20260809);
  const auto frames = window_of_work_frames();
  const auto pristine = pipelined_stream(frames);
  for (int trial = 0; trial < 5000; ++trial) {
    auto stream = pristine;
    stream[rng.below(stream.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    net::FrameDecoder decoder;
    std::size_t fed = 0;
    bool rejected = false;
    std::size_t decoded = 0;
    try {
      while (fed < stream.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.below(48), stream.size() - fed);
        decoder.feed(stream.data() + fed, chunk);
        fed += chunk;
        while (decoder.next()) ++decoded;
      }
    } catch (const net::FrameError&) {
      rejected = true;  // the CRCs caught it
    }
    // A flip inside a payload that both CRCs happen to cover is impossible —
    // the payload CRC sees every payload byte — so either the stream decoded
    // fully before the flip's frame, or it was rejected.
    EXPECT_TRUE(rejected || decoded < frames.size())
        << "trial " << trial << " decoded a corrupt stream in full";
  }
}

TEST(PipelinedStreamFuzz, EnvelopeSizePrefixBeyondThePayloadIsRejected) {
  // Envelope corruption (as opposed to telemetry-blob corruption) must fail
  // the trip: a size prefix pointing past the payload cannot be half-read.
  // u32 size prefix claims ~2 GiB of telemetry; one byte follows it.
  const std::vector<std::uint8_t> payload{0xFF, 0xFF, 0xFF, 0x7F, 0x00};
  EXPECT_THROW(obs::unwrap_result(payload), DecodeError);
}

}  // namespace
