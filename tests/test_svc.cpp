// Tier-1 tests for the solve service: the job wire codec, the admission /
// weighted-fair scheduler, the multi-tenant engine's bit-identity and
// cancellation guarantees, the JobServer/JobClient loopback protocol
// (including Ping keepalives and the idle timeout), and the strict solver
// CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "../examples/solver_cli.hpp"
#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "core/remote_worker.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
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
    sched.task_finished(task->job);
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
  const svc::JobTicket ticket = engine.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  ASSERT_TRUE(engine.wait_terminal(ticket.job_id, 60s));

  const svc::JobResultData first = engine.result(ticket.job_id);
  ASSERT_EQ(first.state, svc::JobState::Done) << first.error;
  EXPECT_EQ(first.combined_nodes, sequential_nodes(2, 2, 1e-3));
  EXPECT_FALSE(first.report_json.empty());

  // The payload is gone, the status record is not.
  const svc::JobStatusInfo status = engine.status(ticket.job_id);
  EXPECT_EQ(status.state, svc::JobState::Done);
  EXPECT_EQ(status.terms_done, status.terms_total);
  EXPECT_EQ(engine.cancel(ticket.job_id).state, svc::JobState::Done);
  EXPECT_EQ(engine.counters().cancelled, 0u);
  EXPECT_TRUE(engine.wait_terminal(ticket.job_id, 1s));

  const svc::JobResultData second = engine.result(ticket.job_id);
  EXPECT_TRUE(second.known);
  EXPECT_TRUE(second.ready);
  EXPECT_EQ(second.state, svc::JobState::Done);
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

svc::ServiceStats sample_stats() {
  svc::ServiceStats s;
  s.uptime_seconds = 12.5;
  s.lanes = 4;
  s.busy_lanes = 2;
  s.running_jobs = 2;
  s.queued_jobs = 1;
  s.terminal_jobs = 9;
  s.scheduler.admitted = 12;
  s.scheduler.rejected = 3;
  s.scheduler.activated = 11;
  s.scheduler.tasks_picked = 120;
  s.scheduler.tasks_dropped = 4;
  s.engine.submitted = 15;
  s.engine.accepted = 12;
  s.engine.completed = 9;
  s.engine.tasks_executed = 116;
  s.engine.task_retries = 2;
  s.server.sessions_opened = 5;
  s.server.frames_received = 60;
  s.server.pings = 7;
  s.fleet.joins = 6;
  s.fleet.leaves = 2;
  s.fleet.crashes = 1;
  s.fleet.steals = 4;
  s.fleet.releases = 3;
  s.fleet.duplicates = 1;
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
  EXPECT_EQ(s.running_jobs, 2u);
  EXPECT_EQ(s.queued_jobs, 1u);
  EXPECT_EQ(s.terminal_jobs, 9u);
  EXPECT_EQ(s.scheduler.tasks_picked, 120u);
  EXPECT_EQ(s.engine.tasks_executed, 116u);
  EXPECT_EQ(s.server.pings, 7u);
  EXPECT_EQ(s.fleet.joins, 6u);
  EXPECT_EQ(s.fleet.crashes, 1u);
  EXPECT_EQ(s.fleet.steals, 4u);
  EXPECT_EQ(s.fleet.duplicates, 1u);
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
  EXPECT_NE(json.find("\"steals\":4"), std::string::npos);

  const std::string prom = svc::service_stats_prometheus(s);
  EXPECT_NE(prom.find("svc_busy_lanes 2"), std::string::npos);
  EXPECT_NE(prom.find("svc_fleet_joins 6"), std::string::npos);
  EXPECT_NE(prom.find("svc_fleet_steals 4"), std::string::npos);
  EXPECT_NE(prom.find("svc_tasks_executed 116"), std::string::npos);
  EXPECT_NE(prom.find("svc_tenant_terms_done{job=\"3\",tag=\"tenant-a\",state=\"running\"} 5"),
            std::string::npos);
  // Histogram buckets are cumulative, with the implicit +Inf last.
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"0.001\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"0.01\"} 8"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_bucket{le=\"+Inf\"} 9"), std::string::npos);
  EXPECT_NE(prom.find("svc_task_seconds_count 9"), std::string::npos);
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

TEST(SolverCli, RejectsUnknownFlagsBadNumbersAndExtraPositionals) {
  EXPECT_FALSE(parse({"--frobnicate"}).ok);
  EXPECT_FALSE(parse({"--backend=mpi"}).ok);
  EXPECT_FALSE(parse({"two"}).ok);
  EXPECT_FALSE(parse({"2", "3", "1e-3", "extra"}).ok);
  EXPECT_FALSE(parse({"--listen=nocolon"}).ok);
  EXPECT_FALSE(parse({"--listen=:99999"}).ok);
  EXPECT_FALSE(parse({"--listen=:0"}).ok);
}

}  // namespace
