// Tier-1 tests for the solve service: the job wire codec, the admission /
// weighted-fair scheduler, the multi-tenant engine's bit-identity and
// cancellation guarantees, the JobServer/JobClient loopback protocol
// (including Ping keepalives and the idle timeout), and the strict solver
// CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../examples/solver_cli.hpp"
#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "core/remote_worker.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "gated_workers.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/json_writer.hpp"
#include "support/bytes.hpp"
#include "svc/client.hpp"
#include "svc/engine.hpp"
#include "svc/job.hpp"
#include "svc/job_server.hpp"
#include "svc/scheduler.hpp"
#include "svc/stats.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;

std::vector<double> sequential_nodes(int root, int level, double le_tol) {
  transport::ProgramConfig config;
  config.root = root;
  config.level = level;
  config.le_tol = le_tol;
  return transport::solve_sequential(config).combined.data();
}

// ---- frame types (satellite: Ping/Pong + job frames) --------------------------------

TEST(SvcFrames, NewFrameTypesRoundTripThroughTheDecoder) {
  const std::vector<net::FrameType> types = {
      net::FrameType::SubmitJob, net::FrameType::JobAccepted, net::FrameType::JobStatus,
      net::FrameType::JobResult, net::FrameType::CancelJob,   net::FrameType::Ping,
      net::FrameType::Pong,      net::FrameType::GetStats,    net::FrameType::StatsReport,
  };
  for (const auto type : types) {
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    const auto bytes = net::encode_frame(type, 7, payload);
    net::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << net::to_string(type);
    EXPECT_EQ(frame->header.type, type);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(SvcFrames, NewFrameTypesHaveNames) {
  EXPECT_STREQ(net::to_string(net::FrameType::SubmitJob), "submit-job");
  EXPECT_STREQ(net::to_string(net::FrameType::CancelJob), "cancel-job");
  EXPECT_STREQ(net::to_string(net::FrameType::Ping), "ping");
  EXPECT_STREQ(net::to_string(net::FrameType::Pong), "pong");
  EXPECT_STREQ(net::to_string(net::FrameType::GetStats), "get-stats");
  EXPECT_STREQ(net::to_string(net::FrameType::StatsReport), "stats-report");
}

TEST(SvcFrames, DecoderRejectsTypesBeyondStatsReport) {
  const auto bytes = net::encode_frame(static_cast<net::FrameType>(15), 1, {});
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), net::FrameError);
}

// ---- job codec ----------------------------------------------------------------------

TEST(SvcJobCodec, SpecRoundTrips) {
  svc::JobSpec spec;
  spec.root = 3;
  spec.level = 5;
  spec.le_tol = 2.5e-4;
  spec.priority = -2;
  spec.weight = 2.25;
  spec.fault_spec = "seed=9,crash=0.25";
  spec.tag = "tenant-a";
  const svc::JobSpec back = svc::decode_job_spec(svc::encode_job_spec(spec));
  EXPECT_EQ(back.root, spec.root);
  EXPECT_EQ(back.level, spec.level);
  EXPECT_EQ(back.le_tol, spec.le_tol);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.weight, spec.weight);
  EXPECT_EQ(back.fault_spec, spec.fault_spec);
  EXPECT_EQ(back.tag, spec.tag);
}

TEST(SvcJobCodec, TicketStatusAndResultRoundTrip) {
  svc::JobTicket ticket;
  ticket.accepted = false;
  ticket.job_id = 0;
  ticket.reason = "admission queue full";
  const svc::JobTicket t = svc::decode_job_ticket(svc::encode_job_ticket(ticket));
  EXPECT_FALSE(t.accepted);
  EXPECT_EQ(t.reason, ticket.reason);

  svc::JobStatusInfo info;
  info.job_id = 42;
  info.known = true;
  info.state = svc::JobState::Cancelled;
  info.terms_total = 13;
  info.terms_done = 4;
  info.retries = 2;
  info.queue_wait_seconds = 0.5;
  info.run_seconds = 1.25;
  info.tag = "t";
  const svc::JobStatusInfo s = svc::decode_job_status(svc::encode_job_status(info));
  EXPECT_EQ(s.job_id, 42u);
  EXPECT_TRUE(s.known);
  EXPECT_EQ(s.state, svc::JobState::Cancelled);
  EXPECT_EQ(s.terms_total, 13u);
  EXPECT_EQ(s.terms_done, 4u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.tag, "t");

  svc::JobResultData result;
  result.job_id = 7;
  result.known = true;
  result.ready = true;
  result.state = svc::JobState::Done;
  result.root = 2;
  result.level = 3;
  result.combined_nodes = {1.0, -2.5, 3.25};
  result.report_json = "{\"tool\":\"solve_job\"}";
  const svc::JobResultData r = svc::decode_job_result(svc::encode_job_result(result));
  EXPECT_TRUE(r.ready);
  EXPECT_EQ(r.state, svc::JobState::Done);
  EXPECT_EQ(r.combined_nodes, result.combined_nodes);
  EXPECT_EQ(r.report_json, result.report_json);

  EXPECT_EQ(svc::decode_job_ref(svc::encode_job_ref(99)), 99u);
}

TEST(SvcJobCodec, CombinedFieldBytesIsTheFinestGridInDoubles) {
  EXPECT_EQ(svc::combined_field_bytes(2, 3), 33u * 33u * 8u);
  EXPECT_EQ(svc::combined_field_bytes(2, 7), 513u * 513u * 8u);
  // Level 10 fits in one default frame; level 11 does not.
  EXPECT_EQ(svc::combined_field_bytes(2, 10), 4097ull * 4097ull * 8ull);
  EXPECT_LE(svc::combined_field_bytes(2, 10), net::FrameDecoder::kDefaultMaxPayload);
  EXPECT_EQ(svc::combined_field_bytes(2, 11), 8193ull * 8193ull * 8ull);
  EXPECT_GT(svc::combined_field_bytes(2, 11), net::FrameDecoder::kDefaultMaxPayload);
  EXPECT_EQ(svc::combined_field_bytes(6, 1'000'000), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(svc::combined_field_bytes(-5, 2), 0u);
}

TEST(SvcJobCodec, RejectsTruncationTrailingBytesAndBadState) {
  auto bytes = svc::encode_job_spec(svc::JobSpec{});
  bytes.pop_back();
  EXPECT_THROW(svc::decode_job_spec(bytes), support::DecodeError);

  auto ok = svc::encode_job_ref(1);
  ok.push_back(0);
  EXPECT_THROW(svc::decode_job_ref(ok), support::DecodeError);

  svc::JobStatusInfo info;
  auto status = svc::encode_job_status(info);
  // The state byte is in there somewhere; force every byte out of range and
  // require that at least the state check fires for the real offset.
  bool threw = false;
  for (std::size_t i = 0; i < status.size(); ++i) {
    auto corrupt = status;
    corrupt[i] = 0xFF;
    try {
      (void)svc::decode_job_status(corrupt);
    } catch (const support::DecodeError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

// ---- scheduler ----------------------------------------------------------------------

std::vector<svc::TaskRef> unit_tasks(std::uint64_t job, std::size_t n) {
  std::vector<svc::TaskRef> tasks;
  for (std::size_t i = 0; i < n; ++i) tasks.push_back({job, i, 1.0});
  return tasks;
}

TEST(SvcScheduler, AdmissionIsBoundedWithExplicitRejection) {
  svc::AdmissionConfig config;
  config.max_running = 2;
  config.max_queued = 1;
  svc::FairScheduler sched(config);
  std::string reason;
  EXPECT_TRUE(sched.admit(1, 0, 1.0, unit_tasks(1, 1), reason));
  EXPECT_TRUE(sched.admit(2, 0, 1.0, unit_tasks(2, 1), reason));
  EXPECT_TRUE(sched.admit(3, 0, 1.0, unit_tasks(3, 1), reason));  // queued
  EXPECT_FALSE(sched.admit(4, 0, 1.0, unit_tasks(4, 1), reason));
  EXPECT_NE(reason.find("admission queue full"), std::string::npos);
  EXPECT_EQ(sched.running_jobs(), 2u);
  EXPECT_EQ(sched.queued_jobs(), 1u);
  EXPECT_EQ(sched.counters().rejected, 1u);

  // Releasing a running job promotes the waiter.
  sched.release_slot(1);
  EXPECT_TRUE(sched.is_active(3));
  EXPECT_EQ(sched.queued_jobs(), 0u);
}

TEST(SvcScheduler, StrictPriorityThenWeightedFairness) {
  svc::AdmissionConfig config;
  config.max_running = 4;
  svc::FairScheduler sched(config);
  std::string reason;
  // Same priority, weights 1 vs 3: the heavy job should get ~3x the picks.
  ASSERT_TRUE(sched.admit(1, 0, 1.0, unit_tasks(1, 4), reason));
  ASSERT_TRUE(sched.admit(2, 0, 3.0, unit_tasks(2, 4), reason));
  std::vector<std::uint64_t> picks;
  for (int i = 0; i < 8; ++i) {
    auto task = sched.next_task();
    ASSERT_TRUE(task.has_value());
    picks.push_back(task->job);
  }
  // First pick breaks the vtime tie by id; then job 2 runs 3x per job-1 pick.
  EXPECT_EQ(picks[0], 1u);
  EXPECT_EQ(std::count(picks.begin(), picks.begin() + 5, 2u), 3);

  // A higher-priority job preempts the pick order entirely.
  ASSERT_TRUE(sched.admit(3, 5, 1.0, unit_tasks(3, 2), reason));
  EXPECT_EQ(sched.next_task()->job, 3u);
  EXPECT_EQ(sched.next_task()->job, 3u);
}

TEST(SvcScheduler, DropPendingAndStop) {
  svc::FairScheduler sched;
  std::string reason;
  ASSERT_TRUE(sched.admit(1, 0, 1.0, unit_tasks(1, 5), reason));
  ASSERT_TRUE(sched.next_task().has_value());
  EXPECT_EQ(sched.drop_pending(1), 4u);
  EXPECT_EQ(sched.drop_pending(1), 0u);  // idempotent
  sched.stop();
  EXPECT_FALSE(sched.next_task().has_value());
  EXPECT_FALSE(sched.admit(9, 0, 1.0, unit_tasks(9, 1), reason));
}

// ---- engine: multi-tenant bit-identity ----------------------------------------------

TEST(SvcEngine, ConcurrentJobsAreBitIdenticalToStandaloneRuns) {
  svc::EngineConfig config;
  config.lanes = 4;
  svc::SolveEngine engine(config);

  struct Tenant {
    int root;
    int level;
    double le_tol;
    std::uint64_t id = 0;
  };
  std::vector<Tenant> tenants = {{2, 2, 1e-3}, {2, 3, 1e-3}, {3, 3, 1e-3}, {2, 3, 5e-4}};
  for (auto& t : tenants) {
    svc::JobSpec spec;
    spec.root = t.root;
    spec.level = t.level;
    spec.le_tol = t.le_tol;
    const svc::JobTicket ticket = engine.submit(spec);
    ASSERT_TRUE(ticket.accepted) << ticket.reason;
    t.id = ticket.job_id;
  }
  for (const auto& t : tenants) {
    ASSERT_TRUE(engine.wait_terminal(t.id, 60s));
    const svc::JobResultData result = engine.result(t.id);
    ASSERT_EQ(result.state, svc::JobState::Done) << result.error;
    // Bit-identical, not approximately equal: the multi-tenant fleet must
    // not perturb the numerics (the paper's §6 claim, per tenant).
    EXPECT_EQ(result.combined_nodes, sequential_nodes(t.root, t.level, t.le_tol));
  }
  EXPECT_EQ(engine.counters().completed, tenants.size());
}

TEST(SvcEngine, CancellationDoesNotPerturbOtherTenants) {
  svc::EngineConfig config;
  config.lanes = 3;
  svc::SolveEngine engine(config);

  // The victim: a big job cancelled immediately after submission.
  svc::JobSpec big;
  big.root = 3;
  big.level = 6;
  big.le_tol = 1e-4;
  const svc::JobTicket victim = engine.submit(big);
  ASSERT_TRUE(victim.accepted);

  svc::JobSpec small;
  small.root = 2;
  small.level = 3;
  const svc::JobTicket survivor = engine.submit(small);
  ASSERT_TRUE(survivor.accepted);

  engine.cancel(victim.job_id);

  ASSERT_TRUE(engine.wait_terminal(victim.job_id, 60s));
  ASSERT_TRUE(engine.wait_terminal(survivor.job_id, 60s));

  const svc::JobStatusInfo vstatus = engine.status(victim.job_id);
  EXPECT_EQ(vstatus.state, svc::JobState::Cancelled);
  EXPECT_LT(vstatus.terms_done, vstatus.terms_total);
  const svc::JobResultData vresult = engine.result(victim.job_id);
  EXPECT_TRUE(vresult.ready);
  EXPECT_TRUE(vresult.combined_nodes.empty());  // partial work discarded

  const svc::JobResultData sresult = engine.result(survivor.job_id);
  ASSERT_EQ(sresult.state, svc::JobState::Done);
  EXPECT_EQ(sresult.combined_nodes, sequential_nodes(2, 3, 1e-3));
  EXPECT_EQ(engine.counters().cancelled, 1u);

  // Cancelling a terminal job is a no-op.
  const svc::JobStatusInfo again = engine.cancel(survivor.job_id);
  EXPECT_EQ(again.state, svc::JobState::Done);
}

TEST(SvcEngine, ResultIsDeliveredOnceAndTheStatusRecordStays) {
  svc::EngineConfig config;
  config.lanes = 2;
  svc::SolveEngine engine(config);
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = 2;
  spec.priority = 2;
  spec.weight = 1.5;
  spec.tag = "delivered";
  const svc::JobTicket ticket = engine.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  ASSERT_TRUE(engine.wait_terminal(ticket.job_id, 60s));
  const svc::JobStatusInfo before = engine.status(ticket.job_id);

  const svc::JobResultData first = engine.result(ticket.job_id);
  ASSERT_EQ(first.state, svc::JobState::Done) << first.error;
  EXPECT_EQ(first.combined_nodes, sequential_nodes(2, 2, 1e-3));
  EXPECT_FALSE(first.report_json.empty());

  // The payload is gone, the status record is not: every field reads as it
  // did before delivery.
  const svc::JobStatusInfo status = engine.status(ticket.job_id);
  EXPECT_EQ(status.state, svc::JobState::Done);
  EXPECT_EQ(status.terms_done, status.terms_total);
  EXPECT_EQ(status.job_id, before.job_id);
  EXPECT_EQ(status.known, before.known);
  EXPECT_EQ(status.state, before.state);
  EXPECT_EQ(status.priority, before.priority);
  EXPECT_EQ(status.weight, before.weight);
  EXPECT_EQ(status.terms_total, before.terms_total);
  EXPECT_EQ(status.terms_done, before.terms_done);
  EXPECT_EQ(status.retries, before.retries);
  EXPECT_EQ(status.queue_wait_seconds, before.queue_wait_seconds);
  EXPECT_EQ(status.run_seconds, before.run_seconds);
  EXPECT_EQ(status.tag, before.tag);
  EXPECT_EQ(status.error, before.error);
  EXPECT_EQ(before.priority, 2);
  EXPECT_EQ(before.weight, 1.5);
  EXPECT_EQ(before.tag, "delivered");
  EXPECT_EQ(engine.cancel(ticket.job_id).state, svc::JobState::Done);
  EXPECT_EQ(engine.counters().cancelled, 0u);
  EXPECT_TRUE(engine.wait_terminal(ticket.job_id, 1s));

  const svc::JobResultData second = engine.result(ticket.job_id);
  EXPECT_TRUE(second.known);
  EXPECT_TRUE(second.ready);
  EXPECT_EQ(second.state, svc::JobState::Done);
  EXPECT_EQ(second.root, 2);
  EXPECT_EQ(second.level, 2);
  EXPECT_TRUE(second.combined_nodes.empty());
  EXPECT_TRUE(second.report_json.empty());
  EXPECT_NE(second.error.find("already delivered"), std::string::npos) << second.error;
}

TEST(SvcEngine, RejectsInvalidSpecsAndUnknownIds) {
  svc::SolveEngine engine;
  svc::JobSpec bad;
  bad.root = 0;
  const svc::JobTicket t1 = engine.submit(bad);
  EXPECT_FALSE(t1.accepted);
  EXPECT_NE(t1.reason.find("invalid spec"), std::string::npos);

  bad.root = 2;
  bad.weight = 0.0;
  EXPECT_FALSE(engine.submit(bad).accepted);

  bad.weight = 1.0;
  bad.fault_spec = "no-such-key=1";
  EXPECT_FALSE(engine.submit(bad).accepted);

  EXPECT_FALSE(engine.status(12345).known);
  EXPECT_FALSE(engine.result(12345).known);
  EXPECT_FALSE(engine.cancel(12345).known);
  EXPECT_EQ(engine.counters().rejected, 3u);
}

TEST(SvcEngine, JobScopedFaultsRetryAndStayBitIdentical) {
  svc::EngineConfig config;
  config.lanes = 2;
  config.retry.max_attempts = 4;
  config.retry.backoff_initial = std::chrono::milliseconds(1);
  svc::SolveEngine engine(config);

  svc::JobSpec faulty;
  faulty.root = 2;
  faulty.level = 3;
  faulty.fault_spec = "seed=11,crash=0.4,corrupt=0.2";
  faulty.tag = "chaos";
  const svc::JobTicket fticket = engine.submit(faulty);
  ASSERT_TRUE(fticket.accepted);

  svc::JobSpec clean;
  clean.root = 2;
  clean.level = 2;
  const svc::JobTicket cticket = engine.submit(clean);
  ASSERT_TRUE(cticket.accepted);

  ASSERT_TRUE(engine.wait_terminal(fticket.job_id, 60s));
  ASSERT_TRUE(engine.wait_terminal(cticket.job_id, 60s));

  const svc::JobResultData fresult = engine.result(fticket.job_id);
  ASSERT_EQ(fresult.state, svc::JobState::Done) << fresult.error;
  EXPECT_EQ(fresult.combined_nodes, sequential_nodes(2, 3, 1e-3));

  // The injections hit the faulty tenant and are visible in its report; the
  // clean tenant's report has no fault section at all.
  EXPECT_GE(engine.counters().faults_injected, 1u);
  EXPECT_NE(fresult.report_json.find("\"faults\""), std::string::npos);
  EXPECT_NE(fresult.report_json.find("\"tag\":\"chaos\""), std::string::npos);
  const svc::JobResultData cresult = engine.result(cticket.job_id);
  ASSERT_EQ(cresult.state, svc::JobState::Done);
  EXPECT_EQ(cresult.report_json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(cresult.report_json.find("chaos"), std::string::npos);
  EXPECT_EQ(cresult.combined_nodes, sequential_nodes(2, 2, 1e-3));
}

TEST(SvcEngine, RespawnBudgetCapsTheRetriesOfOneJob) {
  // Every attempt crashes, so each of the level-3 job's 7 terms ends in the
  // lane's local fallback; the job's budget decides how many retries the
  // lanes spend before that.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{2}}) {
    svc::EngineConfig config;
    config.lanes = 2;
    config.retry.respawn_budget = budget;
    svc::SolveEngine engine(config);
    svc::JobSpec spec;
    spec.root = 2;
    spec.level = 3;
    spec.fault_spec = "seed=1,crash=1.0";
    const svc::JobTicket ticket = engine.submit(spec);
    ASSERT_TRUE(ticket.accepted) << ticket.reason;
    ASSERT_TRUE(engine.wait_terminal(ticket.job_id, 60s));
    const svc::JobResultData result = engine.result(ticket.job_id);
    ASSERT_EQ(result.state, svc::JobState::Done) << result.error;
    EXPECT_EQ(result.combined_nodes, sequential_nodes(2, 3, 1e-3));
    EXPECT_EQ(engine.counters().task_retries, budget) << "respawn_budget " << budget;
    EXPECT_EQ(engine.counters().remote_fallbacks, 7u) << "respawn_budget " << budget;
  }
}

TEST(SvcEngine, RemoteFleetIsBitIdenticalToo) {
  // In-process TCP fleet: two worker threads serve the endpoint the engine's
  // lanes lease (the forked-process version lives in the tier-2 soak).
  net::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  net::RemoteEndpoint endpoint(std::move(listener));
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([port] {
      net::run_worker_loop("127.0.0.1", port, [](const std::vector<std::uint8_t>& work) {
        return mw::encode_result_item(mw::execute_work_item(mw::decode_work_item(work)));
      });
    });
  }
  ASSERT_TRUE(endpoint.wait_for_workers(2, 10s));

  {
    svc::EngineConfig config;
    config.lanes = 2;
    config.remote = &endpoint;
    svc::SolveEngine engine(config);
    svc::JobSpec spec;
    spec.root = 2;
    spec.level = 3;
    const svc::JobTicket ticket = engine.submit(spec);
    ASSERT_TRUE(ticket.accepted);
    ASSERT_TRUE(engine.wait_terminal(ticket.job_id, 60s));
    const svc::JobResultData result = engine.result(ticket.job_id);
    ASSERT_EQ(result.state, svc::JobState::Done) << result.error;
    EXPECT_EQ(result.combined_nodes, sequential_nodes(2, 3, 1e-3));
    engine.shutdown();
  }
  endpoint.shutdown();
  for (auto& w : workers) w.join();
}

TEST(SvcEngine, LeaveAndCrashMidLeaseRetryToABitIdenticalJob) {
  // The engine's attempt loop owns a lost lease: both disrupts close a
  // channel whose worker is parked in a handler, the round trips fail, and
  // the lanes re-submit the terms.
  // Workers before the endpoint, so an early exit shuts the endpoint down
  // (and so lets the workers finish) before they are joined.
  net::TcpListener listener("127.0.0.1", 0);
  tests::GatedSubsolveWorkers workers(listener.port(), 3);
  net::RemoteEndpoint endpoint(std::move(listener));
  ASSERT_TRUE(endpoint.wait_for_workers(3, 10s));

  {
    svc::EngineConfig config;
    config.lanes = 3;
    config.remote = &endpoint;
    config.retry.max_attempts = 6;
    config.retry.backoff_initial = 2ms;
    svc::SolveEngine engine(config);
    svc::JobSpec spec;
    spec.root = 2;
    spec.level = 3;
    const svc::JobTicket ticket = engine.submit(spec);
    EXPECT_TRUE(ticket.accepted) << ticket.reason;

    // Every worker parked in a handler: every channel carries a live lease.
    EXPECT_TRUE(workers.gate.wait_entered(3, 30s));
    endpoint.disrupt(/*graceful=*/true);
    endpoint.disrupt(/*graceful=*/false);
    EXPECT_TRUE(tests::wait_for_disconnects(endpoint, 2, 10s));
    workers.gate.open();

    EXPECT_TRUE(engine.wait_terminal(ticket.job_id, 60s));
    const svc::JobResultData result = engine.result(ticket.job_id);
    EXPECT_EQ(result.state, svc::JobState::Done) << result.error;
    EXPECT_EQ(result.combined_nodes, sequential_nodes(2, 3, 1e-3));
    EXPECT_GE(engine.counters().task_retries, 1u);
    const net::RemoteCounters c = endpoint.counters();
    EXPECT_EQ(c.fleet_leaves, 1u);
    EXPECT_EQ(c.fleet_crashes, 1u);
    EXPECT_GE(c.round_trips_failed, 2u) << "each disrupt must cost at least one live lease";
    engine.shutdown();
  }
  endpoint.shutdown();
}

// ---- server/client loopback ---------------------------------------------------------

TEST(SvcEngine, ResizeGrowsAndShrinksTheLaneFleet) {
  svc::EngineConfig config;
  config.lanes = 2;
  svc::SolveEngine engine(config);

  EXPECT_EQ(engine.resize(4), 4u);
  EXPECT_EQ(engine.lanes(), 4u);
  fleet::FleetCounters fc = engine.fleet_counters();
  EXPECT_EQ(fc.joins, 2u);
  EXPECT_EQ(fc.leaves, 0u);

  EXPECT_EQ(engine.resize(1), 1u);
  EXPECT_EQ(engine.lanes(), 1u);
  fc = engine.fleet_counters();
  EXPECT_EQ(fc.joins, 2u);
  EXPECT_EQ(fc.leaves, 3u);

  // The shrunken fleet still serves jobs bit-exactly on its one lane.
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = 3;
  const svc::JobTicket ticket = engine.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  ASSERT_TRUE(engine.wait_terminal(ticket.job_id, 60s));
  const svc::JobResultData result = engine.result(ticket.job_id);
  ASSERT_EQ(result.state, svc::JobState::Done) << result.error;
  EXPECT_EQ(result.combined_nodes, sequential_nodes(2, 3, 1e-3));

  // Resizing to the current size is a no-op on the ledger.
  EXPECT_EQ(engine.resize(1), 1u);
  EXPECT_EQ(engine.fleet_counters().leaves, 3u);
}

TEST(SvcServer, SubmitPollFetchCancelOverTheWire) {
  svc::JobServerConfig config;
  config.engine.lanes = 3;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());

  EXPECT_GT(client.ping().count(), 0);

  svc::JobSpec spec;
  spec.root = 2;
  spec.level = 3;
  spec.tag = "wire";
  const svc::JobTicket ticket = client.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;

  const svc::JobStatusInfo done = client.wait_terminal(ticket.job_id, 60'000ms);
  EXPECT_EQ(done.state, svc::JobState::Done);
  EXPECT_EQ(done.terms_done, done.terms_total);
  EXPECT_EQ(done.tag, "wire");

  const svc::JobResultData result = client.result(ticket.job_id);
  ASSERT_TRUE(result.ready);
  EXPECT_EQ(result.combined_nodes, sequential_nodes(2, 3, 1e-3));
  EXPECT_NE(result.report_json.find("\"tool\":\"solve_job\""), std::string::npos);

  // Unknown ids answer known=false rather than erroring the connection.
  EXPECT_FALSE(client.status(999).known);
  EXPECT_FALSE(client.cancel(999).known);

  // Cancel over the wire: submit a big job and kill it.  (A moderate le_tol:
  // local in-flight terms cancel only at task boundaries, so a tight
  // tolerance here would stall the test on terms already in a lane.)
  svc::JobSpec big;
  big.root = 3;
  big.level = 6;
  const svc::JobTicket bt = client.submit(big);
  ASSERT_TRUE(bt.accepted);
  client.cancel(bt.job_id);
  const svc::JobStatusInfo bs = client.wait_terminal(bt.job_id, 60'000ms);
  EXPECT_EQ(bs.state, svc::JobState::Cancelled);

  client.close();
  server.shutdown();
  EXPECT_GE(server.counters().sessions_opened, 1u);
  EXPECT_GE(server.counters().pings, 1u);
}

TEST(SvcServer, RejectionTicketsCarryTheAdmissionReason) {
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  config.engine.admission.max_running = 1;
  config.engine.admission.max_queued = 0;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());

  svc::JobSpec slow;
  slow.root = 3;
  slow.level = 5;
  slow.le_tol = 1e-4;
  const svc::JobTicket first = client.submit(slow);
  ASSERT_TRUE(first.accepted);
  // The single running slot is taken and the wait queue holds zero: the
  // second tenant gets an explicit rejection, not an unbounded queue.
  const svc::JobTicket second = client.submit(slow);
  EXPECT_FALSE(second.accepted);
  EXPECT_NE(second.reason.find("admission queue full"), std::string::npos);
  client.cancel(first.job_id);
  client.wait_terminal(first.job_id, 60'000ms);
}

TEST(SvcServer, IdleConnectionsAreClosedByTheServer) {
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  config.idle_timeout = 150ms;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());

  // Activity refreshes the idle clock...
  for (int i = 0; i < 3; ++i) {
    client.ping();
    std::this_thread::sleep_for(60ms);
  }
  // ...silence does not.
  std::this_thread::sleep_for(500ms);
  EXPECT_THROW(client.ping(), svc::ClientError);
  server.shutdown();
  EXPECT_GE(server.counters().idle_closed, 1u);
}

TEST(SvcServer, InFlightJobKeepsAnIdleSessionAlive) {
  // Regression: a client that submits a long job and then goes silent until
  // the job is done used to be cut off by the idle timer mid-run.  An
  // in-flight job now counts as session activity; the timer only resumes
  // once every job the session submitted is terminal.
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  config.idle_timeout = 150ms;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());

  // Big enough to straddle several idle windows, small enough that the one
  // in-flight term a cancel cannot preempt resolves quickly even on a
  // loaded machine.  The tight tolerance buys the length: on one lane of a
  // 4 vCPU Xeon G(3;5) at 1e-6 runs ~7.5 s, more than ten times the silence
  // below, while its costliest single term stays under 2 s.
  svc::JobSpec slow;
  slow.root = 3;
  slow.level = 5;
  slow.le_tol = 1e-6;
  const svc::JobTicket ticket = client.submit(slow);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;

  // Several idle windows of pure silence while the job runs: the session
  // must survive them all.
  std::this_thread::sleep_for(600ms);
  EXPECT_EQ(server.counters().idle_closed, 0u);
  const svc::JobStatusInfo mid = client.status(ticket.job_id);  // connection alive
  EXPECT_TRUE(mid.known);
  EXPECT_FALSE(svc::is_terminal(mid.state));

  client.cancel(ticket.job_id);
  const svc::JobStatusInfo done = client.wait_terminal(ticket.job_id, 120'000ms);
  EXPECT_TRUE(svc::is_terminal(done.state));

  // With the job terminal the idle timer is back in force.
  std::this_thread::sleep_for(500ms);
  EXPECT_THROW(client.ping(), svc::ClientError);
  server.shutdown();
  EXPECT_GE(server.counters().idle_closed, 1u);
}

TEST(SvcServer, NonServiceFramesAreConnectionFatal) {
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  svc::JobServer server(config);

  net::Socket raw = net::connect_tcp("127.0.0.1", server.port(), 2000ms);
  ASSERT_TRUE(raw.valid());
  // A well-framed Work frame is not part of the job API: the server must
  // close the connection, not guess.
  const auto bytes = net::encode_frame(net::FrameType::Work, 1, {});
  ASSERT_TRUE(net::send_all(raw, bytes.data(), bytes.size()));
  std::uint8_t buf[64];
  EXPECT_FALSE(net::recv_exact(raw, buf, sizeof buf));  // EOF: closed on us
  server.shutdown();
  EXPECT_GE(server.counters().protocol_errors, 1u);
}

// ---- live service stats -------------------------------------------------------------

// Every one of the 32 top-level and ledger values is distinct and non-zero, so
// a transposed row in the codec or a renderer cannot go unnoticed.
svc::ServiceStats sample_stats() {
  svc::ServiceStats s;
  s.uptime_seconds = 12.5;
  s.lanes = 4;
  s.busy_lanes = 2;
  s.running_jobs = 3;
  s.queued_jobs = 1;
  s.terminal_jobs = 9;
  s.scheduler.admitted = 12;
  s.scheduler.rejected = 17;
  s.scheduler.activated = 11;
  s.scheduler.tasks_picked = 120;
  s.scheduler.tasks_dropped = 14;
  s.engine.submitted = 15;
  s.engine.accepted = 13;
  s.engine.rejected = 18;
  s.engine.completed = 10;
  s.engine.failed = 19;
  s.engine.cancelled = 21;
  s.engine.tasks_executed = 116;
  s.engine.task_retries = 22;
  s.engine.faults_injected = 23;
  s.engine.remote_fallbacks = 24;
  s.server.sessions_opened = 25;
  s.server.sessions_closed = 26;
  s.server.idle_closed = 27;
  s.server.protocol_errors = 28;
  s.server.frames_received = 60;
  s.server.frames_sent = 61;
  s.server.pings = 7;
  s.fleet.joins = 6;
  s.fleet.leaves = 31;
  s.fleet.crashes = 32;
  s.fleet.duplicates = 33;
  svc::JobStatusInfo tenant;
  tenant.job_id = 3;
  tenant.known = true;
  tenant.state = svc::JobState::Running;
  tenant.priority = 1;
  tenant.weight = 2.0;
  tenant.terms_total = 8;
  tenant.terms_done = 5;
  tenant.retries = 1;
  tenant.queue_wait_seconds = 0.25;
  tenant.run_seconds = 1.5;
  tenant.tag = "tenant-a";
  s.tenants.push_back(tenant);
  s.task_seconds.upper_bounds = {0.001, 0.01};
  s.task_seconds.buckets = {5, 3, 1};
  s.task_seconds.count = 9;
  s.task_seconds.sum = 0.05;
  s.job_seconds.upper_bounds = {1.0};
  s.job_seconds.buckets = {7, 2};
  s.job_seconds.count = 9;
  s.job_seconds.sum = 6.5;
  return s;
}

TEST(SvcStats, CodecRoundTripsEveryField) {
  const svc::ServiceStats s =
      svc::decode_service_stats(svc::encode_service_stats(sample_stats()));
  EXPECT_DOUBLE_EQ(s.uptime_seconds, 12.5);
  EXPECT_EQ(s.lanes, 4u);
  EXPECT_EQ(s.busy_lanes, 2u);
  EXPECT_EQ(s.running_jobs, 3u);
  EXPECT_EQ(s.queued_jobs, 1u);
  EXPECT_EQ(s.terminal_jobs, 9u);
  EXPECT_EQ(s.scheduler.admitted, 12u);
  EXPECT_EQ(s.scheduler.rejected, 17u);
  EXPECT_EQ(s.scheduler.activated, 11u);
  EXPECT_EQ(s.scheduler.tasks_picked, 120u);
  EXPECT_EQ(s.scheduler.tasks_dropped, 14u);
  EXPECT_EQ(s.engine.submitted, 15u);
  EXPECT_EQ(s.engine.accepted, 13u);
  EXPECT_EQ(s.engine.rejected, 18u);
  EXPECT_EQ(s.engine.completed, 10u);
  EXPECT_EQ(s.engine.failed, 19u);
  EXPECT_EQ(s.engine.cancelled, 21u);
  EXPECT_EQ(s.engine.tasks_executed, 116u);
  EXPECT_EQ(s.engine.task_retries, 22u);
  EXPECT_EQ(s.engine.faults_injected, 23u);
  EXPECT_EQ(s.engine.remote_fallbacks, 24u);
  EXPECT_EQ(s.server.sessions_opened, 25u);
  EXPECT_EQ(s.server.sessions_closed, 26u);
  EXPECT_EQ(s.server.idle_closed, 27u);
  EXPECT_EQ(s.server.protocol_errors, 28u);
  EXPECT_EQ(s.server.frames_received, 60u);
  EXPECT_EQ(s.server.frames_sent, 61u);
  EXPECT_EQ(s.server.pings, 7u);
  EXPECT_EQ(s.fleet.joins, 6u);
  EXPECT_EQ(s.fleet.leaves, 31u);
  EXPECT_EQ(s.fleet.crashes, 32u);
  EXPECT_EQ(s.fleet.duplicates, 33u);
  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].job_id, 3u);
  EXPECT_TRUE(s.tenants[0].known);
  EXPECT_EQ(s.tenants[0].state, svc::JobState::Running);
  EXPECT_EQ(s.tenants[0].terms_done, 5u);
  EXPECT_EQ(s.tenants[0].tag, "tenant-a");
  ASSERT_EQ(s.task_seconds.buckets.size(), 3u);
  EXPECT_EQ(s.task_seconds.count, 9u);
  EXPECT_DOUBLE_EQ(s.job_seconds.sum, 6.5);
}

TEST(SvcStats, CodecRejectsTruncationAndTrailingBytes) {
  auto bytes = svc::encode_service_stats(sample_stats());
  auto cut = bytes;
  cut.pop_back();
  EXPECT_THROW(svc::decode_service_stats(cut), support::DecodeError);
  bytes.push_back(0);
  EXPECT_THROW(svc::decode_service_stats(bytes), support::DecodeError);
}

TEST(SvcStats, JsonAndPrometheusRenderings) {
  const svc::ServiceStats s = sample_stats();
  const std::string json = svc::service_stats_json(s);
  EXPECT_NE(json.find("\"schema\":\"svc_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_lanes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tenants\":["), std::string::npos);
  EXPECT_NE(json.find("\"tag\":\"tenant-a\""), std::string::npos);
  EXPECT_NE(json.find("\"task_seconds\":{"), std::string::npos);
  EXPECT_NE(json.find("\"fleet\":{"), std::string::npos);

  const std::string prom = svc::service_stats_prometheus(s);
  EXPECT_NE(prom.find("svc_busy_lanes 2"), std::string::npos);
  EXPECT_NE(prom.find("svc_fleet_joins 6"), std::string::npos);
  EXPECT_NE(prom.find("svc_tasks_executed 116"), std::string::npos);
  EXPECT_NE(prom.find("svc_tenant_terms_done{job=\"3\",tag=\"tenant-a\",state=\"running\"} 5"),
            std::string::npos);
  // Histogram buckets are cumulative, with the implicit +Inf last.
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"0.001\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"0.01\"} 8"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"+Inf\"} 9"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_count 9"), std::string::npos);
}

std::string hex_bytes(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// Golden: every byte of the StatsReport payload, its JSON and its Prometheus
// text for sample_stats(), and the faults and fleet JSON objects of fixtures
// whose fields are all distinct and non-zero.  A reordered, dropped or
// renamed row changes one of these strings.
TEST(SvcStats, GoldenPayloadJsonPrometheusAndLedgerObjects) {
  const svc::ServiceStats s = sample_stats();
  EXPECT_EQ(hex_bytes(svc::encode_service_stats(s)),
      "000000000000294004000000000000000200000000000000030000000000000001000000"
      "0000000009000000000000000c0000000000000011000000000000000b00000000000000"
      "78000000000000000e000000000000000f000000000000000d0000000000000012000000"
      "000000000a00000000000000130000000000000015000000000000007400000000000000"
      "16000000000000001700000000000000180000000000000019000000000000001a000000"
      "000000001b000000000000001c000000000000003c000000000000003d00000000000000"
      "070000000000000006000000000000001f00000000000000200000000000000021000000"
      "000000000100000000000000030000000000000001000000010000000000000000000040"
      "080000000000000005000000000000000100000000000000000000000000d03f00000000"
      "0000f83f080000000000000074656e616e742d610200000000000000fca9f1d24d62503f"
      "7b14ae47e17a843f03000000000000000500000000000000030000000000000001000000"
      "0000000009000000000000009a9999999999a93f0100000000000000000000000000f03f"
      "020000000000000007000000000000000200000000000000090000000000000000000000"
      "00001a40");
  EXPECT_EQ(svc::service_stats_json(s),
      R"({"schema":"svc_stats","schema_version":1,"uptime_s":12.5,)"
      R"("fleet":{"lanes":4,"busy_lanes":2,"joins":6,"leaves":31,"crashes":32,"duplicates":33},)"
      R"("jobs":{"running":3,"queued":1,"terminal":9},)"
      R"("scheduler":{"admitted":12,"rejected":17,"activated":11,"tasks_picked":120,"tasks_dropped":14},)"
      R"("engine":{"submitted":15,"accepted":13,"rejected":18,"completed":10,"failed":19,"cancelled":21,"tasks_executed":116,"task_retries":22,"faults_injected":23,"remote_fallbacks":24},)"
      R"("sessions":{"opened":25,"closed":26,"idle_closed":27,"protocol_errors":28,"frames_received":60,"frames_sent":61,"pings":7},)"
      R"("tenants":[{"job_id":3,"state":"running","priority":1,"weight":2,"terms_done":5,"terms_total":8,"retries":1,"queue_wait_s":0.25,"run_s":1.5,"tag":"tenant-a"}],)"
      R"("latency":{"task_seconds":{"count":9,"sum":0.05,"buckets":[{"le":0.001,"n":5},{"le":0.01,"n":3},{"le":"+Inf","n":1}]},"job_seconds":{"count":9,"sum":6.5,"buckets":[{"le":1,"n":7},{"le":"+Inf","n":2}]}}})");
  EXPECT_EQ(svc::service_stats_prometheus(s), R"(# HELP svc_uptime_seconds Server process uptime.
# TYPE svc_uptime_seconds gauge
svc_uptime_seconds 12.5
# HELP svc_lanes Worker-fleet lane count.
# TYPE svc_lanes gauge
svc_lanes 4
# HELP svc_busy_lanes Lanes currently executing a task.
# TYPE svc_busy_lanes gauge
svc_busy_lanes 2
# HELP svc_running_jobs Jobs holding a running slot.
# TYPE svc_running_jobs gauge
svc_running_jobs 3
# HELP svc_queued_jobs Admitted jobs waiting for a slot.
# TYPE svc_queued_jobs gauge
svc_queued_jobs 1
# HELP svc_terminal_jobs Jobs finished since server start.
# TYPE svc_terminal_jobs counter
svc_terminal_jobs 9
# HELP svc_scheduler_admitted Jobs admitted by the scheduler.
# TYPE svc_scheduler_admitted counter
svc_scheduler_admitted 12
# HELP svc_scheduler_rejected Jobs rejected at admission.
# TYPE svc_scheduler_rejected counter
svc_scheduler_rejected 17
# HELP svc_scheduler_activated Queued-to-running promotions.
# TYPE svc_scheduler_activated counter
svc_scheduler_activated 11
# HELP svc_scheduler_tasks_picked Tasks dispatched to lanes.
# TYPE svc_scheduler_tasks_picked counter
svc_scheduler_tasks_picked 120
# HELP svc_scheduler_tasks_dropped Pending tasks dropped by cancel.
# TYPE svc_scheduler_tasks_dropped counter
svc_scheduler_tasks_dropped 14
# HELP svc_jobs_submitted SubmitJob requests seen.
# TYPE svc_jobs_submitted counter
svc_jobs_submitted 15
# HELP svc_jobs_accepted Jobs accepted.
# TYPE svc_jobs_accepted counter
svc_jobs_accepted 13
# HELP svc_jobs_rejected Jobs rejected (spec or admission).
# TYPE svc_jobs_rejected counter
svc_jobs_rejected 18
# HELP svc_jobs_completed Jobs finished Done.
# TYPE svc_jobs_completed counter
svc_jobs_completed 10
# HELP svc_jobs_failed Jobs finished Failed.
# TYPE svc_jobs_failed counter
svc_jobs_failed 19
# HELP svc_jobs_cancelled Jobs finished Cancelled.
# TYPE svc_jobs_cancelled counter
svc_jobs_cancelled 21
# HELP svc_tasks_executed Tasks executed on the fleet.
# TYPE svc_tasks_executed counter
svc_tasks_executed 116
# HELP svc_task_retries Task re-dispatches.
# TYPE svc_task_retries counter
svc_task_retries 22
# HELP svc_faults_injected Job-scoped injected faults.
# TYPE svc_faults_injected counter
svc_faults_injected 23
# HELP svc_remote_fallbacks Terms computed locally after lease failures.
# TYPE svc_remote_fallbacks counter
svc_remote_fallbacks 24
# HELP svc_sessions_opened Client sessions opened.
# TYPE svc_sessions_opened counter
svc_sessions_opened 25
# HELP svc_sessions_closed Client sessions closed.
# TYPE svc_sessions_closed counter
svc_sessions_closed 26
# HELP svc_sessions_idle_closed Sessions closed by the idle timeout.
# TYPE svc_sessions_idle_closed counter
svc_sessions_idle_closed 27
# HELP svc_protocol_errors Connection-fatal protocol errors.
# TYPE svc_protocol_errors counter
svc_protocol_errors 28
# HELP svc_frames_received Frames received on client sessions.
# TYPE svc_frames_received counter
svc_frames_received 60
# HELP svc_frames_sent Frames sent on client sessions.
# TYPE svc_frames_sent counter
svc_frames_sent 61
# HELP svc_pings Ping keepalives served.
# TYPE svc_pings counter
svc_pings 7
# HELP svc_fleet_joins Workers/lanes that joined the fleet.
# TYPE svc_fleet_joins counter
svc_fleet_joins 6
# HELP svc_fleet_leaves Graceful fleet departures.
# TYPE svc_fleet_leaves counter
svc_fleet_leaves 31
# HELP svc_fleet_crashes Abrupt fleet deaths handled.
# TYPE svc_fleet_crashes counter
svc_fleet_crashes 32
# HELP svc_fleet_duplicates Late or repeated Results dropped by retired-seq dedup.
# TYPE svc_fleet_duplicates counter
svc_fleet_duplicates 33
# HELP svc_tenant_terms_done Terms delivered for a live job.
# TYPE svc_tenant_terms_done gauge
svc_tenant_terms_done{job="3",tag="tenant-a",state="running"} 5
# HELP svc_task_seconds Per-task latency.
# TYPE svc_task_seconds histogram
svc_task_seconds_bucket{le="0.001"} 5
svc_task_seconds_bucket{le="0.01"} 8
svc_task_seconds_bucket{le="+Inf"} 9
svc_task_seconds_sum 0.05
svc_task_seconds_count 9
# HELP svc_job_seconds Per-job latency.
# TYPE svc_job_seconds histogram
svc_job_seconds_bucket{le="1"} 7
svc_job_seconds_bucket{le="+Inf"} 9
svc_job_seconds_sum 6.5
svc_job_seconds_count 9
)");

  fault::FaultCounters f;
  f.crashes_injected = 1;
  f.hangs_injected = 2;
  f.corruptions_injected = 3;
  f.host_crashes_injected = 4;
  f.net_drops_injected = 5;
  f.net_slowdowns_injected = 6;
  f.crash_events = 7;
  f.timeouts = 8;
  f.retries = 9;
  f.abandoned = 10;
  f.degraded = true;
  obs::JsonWriter faults;
  fault::fault_counters_to_json(faults, f);
  EXPECT_EQ(faults.str(),
      R"({"crashes_injected":1,"hangs_injected":2,"corruptions_injected":3,)"
      R"("host_crashes_injected":4,"net_drops_injected":5,"net_slowdowns_injected":6,)"
      R"("crash_events":7,"timeouts":8,"retries":9,"abandoned":10,"degraded":true})");

  fleet::FleetCounters c;
  c.joins = 11;
  c.leaves = 12;
  c.crashes = 13;
  c.duplicates = 14;
  obs::JsonWriter fleet_json;
  fleet::fleet_counters_to_json(fleet_json, c);
  EXPECT_EQ(fleet_json.str(), R"({"joins":11,"leaves":12,"crashes":13,"duplicates":14})");
}

TEST(SvcServer, GetStatsOverTheWireSeesTenantsAndProgress) {
  svc::JobServerConfig config;
  config.engine.lanes = 2;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());

  // Before any job: a clean fleet view.
  svc::ServiceStats before = client.stats();
  EXPECT_EQ(before.lanes, 2u);
  EXPECT_EQ(before.running_jobs, 0u);
  EXPECT_TRUE(before.tenants.empty());

  svc::JobSpec spec;
  spec.root = 3;
  spec.level = 5;
  spec.le_tol = 1e-4;
  spec.tag = "stats-tenant";
  const svc::JobTicket ticket = client.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;

  // While the job is live it must show up in the tenant view.
  bool saw_tenant = false;
  for (int i = 0; i < 200 && !saw_tenant; ++i) {
    const svc::ServiceStats live = client.stats();
    for (const auto& t : live.tenants) {
      if (t.job_id == ticket.job_id) {
        EXPECT_EQ(t.tag, "stats-tenant");
        saw_tenant = true;
      }
    }
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(saw_tenant);

  client.wait_terminal(ticket.job_id, 60'000ms);
  const svc::ServiceStats after = client.stats();
  EXPECT_GE(after.terminal_jobs, 1u);
  EXPECT_GE(after.engine.tasks_executed, 1u);
  EXPECT_GE(after.task_seconds.count, 1u);
  EXPECT_GT(after.uptime_seconds, 0.0);
  for (const auto& t : after.tenants) EXPECT_NE(t.job_id, ticket.job_id);

  client.close();
  server.shutdown();
}

// ---- one event loop for every session -----------------------------------------------

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// Reads frames off a blocking socket until the peer closes it.
std::vector<net::Frame> read_frames_until_eof(net::Socket& socket) {
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  std::vector<std::uint8_t> buf(64 * 1024);
  for (;;) {
    const std::ptrdiff_t n = socket.recv_some(buf.data(), buf.size());
    if (n <= 0) return frames;
    decoder.feed(buf.data(), static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
}

TEST(SvcServer, ThreadCountDoesNotGrowWithSessions) {
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  svc::JobServer server(config);
  std::vector<std::unique_ptr<svc::JobClient>> clients;
  clients.push_back(std::make_unique<svc::JobClient>("127.0.0.1", server.port()));
  clients.back()->ping();
  const std::size_t with_one = thread_count();
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<svc::JobClient>("127.0.0.1", server.port()));
    clients.back()->ping();
  }
  EXPECT_EQ(thread_count(), with_one);
  EXPECT_EQ(server.counters().sessions_opened, 9u);
}

TEST(SvcServer, ABadClientClosesOnlyItsOwnSession) {
  svc::JobServerConfig config;
  config.engine.lanes = 2;
  svc::JobServer server(config);
  net::Socket corrupt = net::connect_tcp("127.0.0.1", server.port(), 2000ms);
  net::Socket truncated = net::connect_tcp("127.0.0.1", server.port(), 2000ms);
  ASSERT_TRUE(corrupt.valid());
  ASSERT_TRUE(truncated.valid());
  svc::JobClient good("127.0.0.1", server.port());
  EXPECT_GT(good.ping().count(), 0);
  const std::uint64_t errors_before = server.counters().protocol_errors;

  // A payload byte flipped after the CRCs were computed.
  auto bad = net::encode_frame(net::FrameType::Ping, 1, std::vector<std::uint8_t>{1, 2, 3, 4});
  bad.back() ^= 0xff;
  ASSERT_TRUE(net::send_all(corrupt, bad.data(), bad.size()));
  // A well-framed SubmitJob whose payload is cut short.
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = 3;
  auto spec_bytes = svc::encode_job_spec(spec);
  spec_bytes.resize(spec_bytes.size() / 2);
  const auto cut = net::encode_frame(net::FrameType::SubmitJob, 1, spec_bytes);
  ASSERT_TRUE(net::send_all(truncated, cut.data(), cut.size()));

  std::uint8_t buf[64];
  EXPECT_FALSE(net::recv_exact(corrupt, buf, sizeof buf));  // EOF: closed on us
  EXPECT_FALSE(net::recv_exact(truncated, buf, sizeof buf));
  EXPECT_EQ(server.counters().protocol_errors, errors_before + 2);

  EXPECT_GT(good.ping().count(), 0);
  const svc::JobTicket ticket = good.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  EXPECT_EQ(good.wait_terminal(ticket.job_id, 60'000ms).state, svc::JobState::Done);
  const std::vector<double> got = good.result(ticket.job_id).combined_nodes;
  const std::vector<double> want = sequential_nodes(2, 3, 1e-3);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(SvcServer, LargeResultAndByeAckLeaveBeforeTheSessionCloses) {
  // A level-7 result (513^2 doubles, 2.1 MB) is more than one sendmsg takes,
  // so it crosses the session outbox in pieces; the Bye pipelined behind it
  // is answered, and the session closes only after both replies have left.
  svc::JobServerConfig config;
  config.engine.lanes = 4;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = 7;
  const svc::JobTicket ticket = client.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  ASSERT_EQ(client.wait_terminal(ticket.job_id, 120'000ms).state, svc::JobState::Done);

  net::Socket raw = net::connect_tcp("127.0.0.1", server.port(), 2000ms);
  ASSERT_TRUE(raw.valid());
  std::vector<std::uint8_t> requests =
      net::encode_frame(net::FrameType::JobResult, 7, svc::encode_job_ref(ticket.job_id));
  const auto bye = net::encode_frame(net::FrameType::Bye, 8, {});
  requests.insert(requests.end(), bye.begin(), bye.end());
  ASSERT_TRUE(net::send_all(raw, requests.data(), requests.size()));

  const std::vector<net::Frame> replies = read_frames_until_eof(raw);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].header.type, net::FrameType::JobResult);
  EXPECT_EQ(replies[0].header.seq, 7u);
  EXPECT_EQ(replies[1].header.type, net::FrameType::Bye);
  EXPECT_EQ(replies[1].header.seq, 8u);
  const svc::JobResultData result = svc::decode_job_result(replies[0].payload);
  const std::vector<double> want = sequential_nodes(2, 7, 1e-3);
  ASSERT_EQ(result.combined_nodes.size(), 513u * 513u);
  ASSERT_EQ(want.size(), result.combined_nodes.size());
  EXPECT_EQ(std::memcmp(result.combined_nodes.data(), want.data(), want.size() * sizeof(double)),
            0);
}

TEST(SvcServer, RejectsAJobWhoseResultCannotBeDelivered) {
  svc::JobServerConfig config;
  config.engine.lanes = 1;
  svc::JobServer server(config);
  svc::JobClient client("127.0.0.1", server.port());
  // Root 2, level 11: 8193^2 doubles, 537 MB, over the 256 MiB frame cap.
  svc::JobSpec huge;
  huge.root = 2;
  huge.level = 11;
  const svc::JobTicket ticket = client.submit(huge);
  EXPECT_FALSE(ticket.accepted);
  EXPECT_NE(ticket.reason.find("result too large"), std::string::npos) << ticket.reason;
  EXPECT_EQ(server.engine().counters().accepted, 0u);
  EXPECT_EQ(server.engine().counters().submitted, 0u);
}

// ---- solver CLI (satellite: strict --connect/--workers validation) ------------------

mg::examples::SolverCli parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"sparse_grid_solver"};
  argv.insert(argv.end(), args.begin(), args.end());
  return mg::examples::parse_solver_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(SolverCli, ParsesThePaperTripleAndTcpFlags) {
  const auto cli = parse({"3", "5", "1e-4", "--backend=tcp", "--workers=8",
                          "--listen=0.0.0.0:7700", "--report=out.json"});
  ASSERT_TRUE(cli.ok) << cli.error;
  EXPECT_EQ(cli.root, 3);
  EXPECT_EQ(cli.level, 5);
  EXPECT_EQ(cli.le_tol, 1e-4);
  EXPECT_EQ(cli.backend, "tcp");
  EXPECT_EQ(cli.tcp_workers, 8u);
  EXPECT_EQ(cli.listen_host, "0.0.0.0");
  EXPECT_EQ(cli.listen_port, 7700);
  EXPECT_EQ(cli.report_path, "out.json");
  EXPECT_FALSE(cli.worker_mode);
}

TEST(SolverCli, ConnectIsWorkerModeAndRejectsMasterFlags) {
  const auto ok = parse({"--connect=10.0.0.5:7700"});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_TRUE(ok.worker_mode);
  EXPECT_EQ(ok.connect_host, "10.0.0.5");
  EXPECT_EQ(ok.connect_port, 7700);

  // The old loop silently ignored these; each must now be a clear error.
  EXPECT_FALSE(parse({"--connect=:7700", "--workers=8"}).ok);
  EXPECT_FALSE(parse({"--connect=:7700", "--listen=:7701"}).ok);
  EXPECT_FALSE(parse({"--connect=:7700", "--backend=tcp"}).ok);
  EXPECT_FALSE(parse({"--connect=:7700", "--net-faults=net_drop=0.1"}).ok);
  EXPECT_FALSE(parse({"--connect=:7700", "--report=x.json"}).ok);
  const auto err = parse({"--connect=:7700", "--workers=8"});
  EXPECT_NE(err.error.find("--workers"), std::string::npos);
  EXPECT_NE(err.error.find("worker mode"), std::string::npos);
}

TEST(SolverCli, TraceIsAMasterSideFlag) {
  const auto cli = parse({"2", "3", "1e-3", "--trace=run.trace.json"});
  ASSERT_TRUE(cli.ok) << cli.error;
  EXPECT_EQ(cli.trace_path, "run.trace.json");
  // Workers ship spans back over the telemetry channel; they never write a
  // trace file of their own.
  const auto err = parse({"--connect=:7700", "--trace=w.json"});
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.error.find("--trace"), std::string::npos);
}

TEST(SolverCli, RejectsZeroOrGarbageWorkerCounts) {
  EXPECT_FALSE(parse({"--backend=tcp", "--workers=0"}).ok);
  EXPECT_FALSE(parse({"--backend=tcp", "--workers=-3"}).ok);
  EXPECT_FALSE(parse({"--backend=tcp", "--workers=many"}).ok);
  const auto cli = parse({"--backend=tcp", "--workers=0"});
  EXPECT_NE(cli.error.find("--workers"), std::string::npos);
  EXPECT_TRUE(parse({"--backend=tcp", "--workers=2"}).ok);
}

TEST(SolverCli, TcpOnlyFlagsRequireTheTcpBackend) {
  EXPECT_FALSE(parse({"--workers=4"}).ok);
  EXPECT_FALSE(parse({"--listen=:7700"}).ok);
  EXPECT_FALSE(parse({"--net-faults=net_drop=0.1"}).ok);
  EXPECT_TRUE(parse({"--faults=crash=0.1"}).ok);  // thread faults are fine
}

TEST(SolverCli, WorkerFaultsAreThreadsOnlyAndPointTcpAtNetFaults) {
  // Remote workers never see the worker-fault plan: a tcp run would print
  // "fault injection on" and inject nothing.
  const auto err = parse({"--backend=tcp", "--faults=seed=7,crash=0.5"});
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.error.find("--faults"), std::string::npos) << err.error;
  EXPECT_NE(err.error.find("--net-faults"), std::string::npos) << err.error;
  EXPECT_TRUE(parse({"--backend=tcp", "--net-faults=seed=7,net_drop=0.1"}).ok);
}

TEST(SolverCli, RejectsUnknownFlagsBadNumbersAndExtraPositionals) {
  EXPECT_FALSE(parse({"--frobnicate"}).ok);
  EXPECT_FALSE(parse({"--backend=mpi"}).ok);
  EXPECT_FALSE(parse({"two"}).ok);
  EXPECT_FALSE(parse({"2", "3", "1e-3", "extra"}).ok);
  EXPECT_FALSE(parse({"--listen=nocolon"}).ok);
  EXPECT_FALSE(parse({"--listen=:99999"}).ok);
  EXPECT_FALSE(parse({"--listen=:0"}).ok);
  // The kernel-policy and inner-team flags are gone; a stale script fails.
  EXPECT_FALSE(parse({"--kernels=tiled"}).ok);
  EXPECT_FALSE(parse({"--inner-threads=4"}).ok);
  EXPECT_NE(parse({"2", "3", "1e-3", "--kernels=tiled"}).error.find("unknown flag"),
            std::string::npos);
}

TEST(SolverCli, RejectsPositionalsOutsideTheGridLimits) {
  // Grid2D holds at most 2^39 cells per axis, and ROS2 needs le_tol > 0: at
  // the parent each of these died in std::terminate instead of exiting 2.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"0"}, {"-1"}, {"40"}, {"2", "40"}, {"2", "38"}, {"39", "1"}, {"2", "3", "0"},
           {"2", "3", "-1"}, {"2", "3", "nan"}, {"2", "3", "1e-3x"}}) {
    std::vector<const char*> argv = {"sparse_grid_solver"};
    argv.insert(argv.end(), args.begin(), args.end());
    const auto cli = mg::examples::parse_solver_cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(cli.ok) << args.back();
    EXPECT_NE(cli.error.find(std::string("'") + args.back() + "'"), std::string::npos)
        << cli.error;
  }
  EXPECT_NE(parse({"40"}).error.find("bad root"), std::string::npos);
  EXPECT_NE(parse({"2", "38"}).error.find("bad level"), std::string::npos);
  EXPECT_NE(parse({"2", "3", "nan"}).error.find("bad le_tol"), std::string::npos);
  for (const auto& ok : {parse({"1", "0"}), parse({"39", "0"}), parse({"2", "37", "1e-9"})}) {
    EXPECT_TRUE(ok.ok) << ok.error;
  }
}

// ---- the shared flag table every CLI binary parses with (examples/cli.hpp) ---------

namespace cli = mg::examples::cli;

/// Every value kind, plus one positional, over local targets.  The rows hold
/// references to the members, so a CliRows is never copied.
struct CliRows {
  CliRows() = default;
  CliRows(const CliRows&) = delete;
  CliRows& operator=(const CliRows&) = delete;

  std::size_t n = 0;
  std::string text;
  std::uint32_t count = 0;
  int integer = 0;
  double positive = 1.0;
  double any = 0.0;
  bool on = false;
  std::string pick = "a";
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  cli::Table table{"prog",
                   {cli::count("n", n, {1, 9}, "a positional"),
                    cli::text("--text", text, "S", "free text"),
                    cli::count("--count", count, {1, 64}, "a count"),
                    cli::integer("--int", integer, "a signed integer"),
                    cli::real("--pos", positive, cli::Reals::Positive, "a positive real"),
                    cli::real("--any", any, cli::Reals::Any, "any real"),
                    cli::toggle("--on", on, "a switch"),
                    cli::choice("--pick", pick, {"a", "b"}, "a choice"),
                    cli::host_port("--at", host, port, "an address")}};

  std::string parse(std::vector<std::string> args) {
    std::vector<const char*> argv = {"prog"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return table.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(CliTable, EveryKindTakesBothSpellings) {
  const std::vector<std::pair<std::string, std::string>> flags = {
      {"--text", "a=b"}, {"--count", "64"}, {"--int", "-7"},        {"--pos", "2.5"},
      {"--any", "-0.5"}, {"--pick", "b"},   {"--at", "10.0.0.5:80"}};
  for (const bool spaced : {false, true}) {
    CliRows rows;
    std::vector<std::string> args = {"3", "--on"};
    for (const auto& [flag, value] : flags) {
      if (spaced) {
        args.push_back(flag);
        args.push_back(value);
      } else {
        args.push_back(flag + "=" + value);
      }
    }
    ASSERT_EQ(rows.parse(args), "") << "spaced=" << spaced;
    EXPECT_EQ(rows.n, 3u);
    EXPECT_EQ(rows.text, "a=b");
    EXPECT_EQ(rows.count, 64u);
    EXPECT_EQ(rows.integer, -7);
    EXPECT_EQ(rows.positive, 2.5);
    EXPECT_EQ(rows.any, -0.5);
    EXPECT_TRUE(rows.on);
    EXPECT_EQ(rows.pick, "b");
    EXPECT_EQ(rows.host, "10.0.0.5");
    EXPECT_EQ(rows.port, 80);
    EXPECT_TRUE(rows.table.given("--at"));
    EXPECT_TRUE(rows.table.given("n"));
  }
  CliRows untouched;
  ASSERT_EQ(untouched.parse({"--at=:7700"}), "");
  EXPECT_EQ(untouched.host, "127.0.0.1");  // an empty HOST keeps the default
  EXPECT_EQ(untouched.port, 7700);
  EXPECT_FALSE(untouched.table.given("--text"));
  EXPECT_EQ(untouched.pick, "a");
}

TEST(CliTable, ANegativeValueAfterASpaceIsAValueNotAFlag) {
  CliRows rows;
  ASSERT_EQ(rows.parse({"--int", "-3", "--any", "-1e-3"}), "");
  EXPECT_EQ(rows.integer, -3);
  EXPECT_EQ(rows.any, -1e-3);
  // "-1" alone is a positional, checked against the positional's range.
  EXPECT_EQ(CliRows().parse({"-1"}), "bad n '-1' (want 1..9)");
  EXPECT_EQ(CliRows().parse({"--count", "-1"}), "bad --count '-1' (want 1..64)");
}

TEST(CliTable, MissingValuesUnknownFlagsAndExtraPositionalsAreErrors) {
  EXPECT_EQ(CliRows().parse({"--count"}), "missing value after '--count'");
  // A token that starts with "--" is never taken as the value.
  EXPECT_EQ(CliRows().parse({"--text", "--on"}), "missing value after '--text'");
  EXPECT_EQ(CliRows().parse({"--bogus"}), "unknown flag '--bogus'");
  EXPECT_EQ(CliRows().parse({"--bogus=1"}), "unknown flag '--bogus=1'");
  EXPECT_EQ(CliRows().parse({"--cou", "3"}), "unknown flag '--cou'");  // no prefix matching
  EXPECT_EQ(CliRows().parse({"--count3"}), "unknown flag '--count3'");
  EXPECT_EQ(CliRows().parse({"3", "4"}), "unexpected extra argument '4'");
  EXPECT_EQ(CliRows().parse({"--on=1"}), "bad --on '1' (want no value)");
}

TEST(CliTable, MalformedAndOutOfRangeValuesAreErrors) {
  for (const auto& [args, error] : std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"--count=abc"}, "bad --count 'abc' (want 1..64)"},
           {{"--count", "4x"}, "bad --count '4x' (want 1..64)"},
           {{"--count="}, "bad --count '' (want 1..64)"},
           {{"--count", "0"}, "bad --count '0' (want 1..64)"},
           {{"--count", "65"}, "bad --count '65' (want 1..64)"},
           {{"--int", "1.5"}, "bad --int '1.5' (want an integer)"},
           {{"--int", "2147483648"}, "bad --int '2147483648' (want an integer)"},
           {{"--int", "1e99"}, "bad --int '1e99' (want an integer)"},
           {{"--int", "99999999999999999999"},
            "bad --int '99999999999999999999' (want an integer)"},
           {{"--pos", "0"}, "bad --pos '0' (want > 0)"},
           {{"--pos", "nan"}, "bad --pos 'nan' (want > 0)"},
           {{"--any", "1e"}, "bad --any '1e' (want a number)"},
           {{"--pick", "c"}, "bad --pick 'c' (want a|b)"},
           {{"--at", "nocolon"}, "bad --at 'nocolon' (want HOST:PORT)"},
           {{"--at", ":0"}, "bad --at ':0' (want HOST:PORT)"},
           {{"--at", "h:65536"}, "bad --at 'h:65536' (want HOST:PORT)"},
           {{"10"}, "bad n '10' (want 1..9)"}}) {
    EXPECT_EQ(CliRows().parse(args), error);
  }
  // A count's range is also bounded by its target type.
  std::uint16_t small = 0;
  std::uint64_t wide = 0;
  cli::Table table("prog",
                   {cli::count("--small", small, {}, ""), cli::count("--wide", wide, {}, "")});
  const char* small_argv[] = {"prog", "--small", "65536"};
  EXPECT_EQ(table.parse(3, small_argv), "bad --small '65536' (want 0..65535)");
  const char* wide_argv[] = {"prog", "--wide", "-1"};
  EXPECT_EQ(table.parse(3, wide_argv), "bad --wide '-1' (want >= 0)");
}

TEST(CliTable, UsageIsGeneratedFromTheRows) {
  const std::string usage = CliRows().table.usage();
  EXPECT_EQ(usage.rfind("usage: prog [n] [flags]\n", 0), 0u) << usage;
  for (const char* line : {"  n ", "a positional (1..9)", "  --count=N", "a count (1..64)",
                           "  --pos=X", "(> 0)", "  --on ", "  --pick=a|b", "  --at=HOST:PORT",
                           "  --text=S", "free text\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

}  // namespace
