// Tier-1 tests for the readiness seam (net/poller.hpp): backend parity on
// scripted fd scenarios (PollPoller is the reference semantics the epoll
// backend is pinned against), HUP/ERR mapping into poll() vocabulary,
// interest-set edge cases (re-arm, unknown modify, remove-after-close), the
// default backend, and the event-loop contracts the seam must not
// disturb: deadline-heap timer ordering, self-pipe wakeup latency, and
// tolerance of spurious wakeups.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/poller.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;

/// A nonblocking pipe pair the scenarios script against.
struct Pipe {
  int rd = -1;
  int wr = -1;

  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    rd = fds[0];
    wr = fds[1];
    ::fcntl(rd, F_SETFL, O_NONBLOCK);
    ::fcntl(wr, F_SETFL, O_NONBLOCK);
  }
  ~Pipe() {
    close_rd();
    close_wr();
  }
  void close_rd() {
    if (rd >= 0) ::close(rd);
    rd = -1;
  }
  void close_wr() {
    if (wr >= 0) ::close(wr);
    wr = -1;
  }
  void put(char c = 'x') { EXPECT_EQ(::write(wr, &c, 1), 1); }
  void drain() {
    char buf[64];
    while (::read(rd, buf, sizeof buf) > 0) {
    }
  }
};

/// Every backend available in this build; parity tests run the same script
/// through each and compare against the poll() reference behaviour.
std::vector<net::PollerBackend> available_backends() {
  std::vector<net::PollerBackend> backends{net::PollerBackend::Poll};
  if (net::epoll_supported()) backends.push_back(net::PollerBackend::Epoll);
  return backends;
}

short revents_of(const std::vector<net::PollerEvent>& events, int fd) {
  for (const auto& e : events) {
    if (e.fd == fd) return e.revents;
  }
  return 0;
}

// ---- backend selection --------------------------------------------------------------

TEST(Poller, ExplicitBackendsReportTheirOwnName) {
  EXPECT_STREQ(net::make_poller(net::PollerBackend::Poll)->name(), "poll");
  if (net::epoll_supported()) {
    EXPECT_STREQ(net::make_poller(net::PollerBackend::Epoll)->name(), "epoll");
  }
}

// ---- scripted scenarios, run identically through every backend ----------------------

TEST(Poller, ReportsReadableFdsAndOnlyThose) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe quiet;
    Pipe noisy;
    poller->add(quiet.rd, POLLIN);
    poller->add(noisy.rd, POLLIN);
    noisy.put();

    std::vector<net::PollerEvent> events;
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, noisy.rd);
    EXPECT_TRUE(events[0].revents & POLLIN);
    EXPECT_EQ(revents_of(events, quiet.rd), 0);
  }
}

TEST(Poller, TimesOutWithZeroEventsWhenNothingIsReady) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe idle;
    poller->add(idle.rd, POLLIN);
    std::vector<net::PollerEvent> events{{999, POLLIN}};  // must be cleared
    EXPECT_EQ(poller->wait(events, 10), 0);
    EXPECT_TRUE(events.empty());
  }
}

TEST(Poller, WritableSideIsReadyUntilModifyDisarmsIt) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    poller->add(p.wr, POLLOUT);

    std::vector<net::PollerEvent> events;
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_TRUE(revents_of(events, p.wr) & POLLOUT);

    // Interest drops to read-only: an empty pipe's write end goes quiet.
    poller->modify(p.wr, POLLIN);
    EXPECT_EQ(poller->wait(events, 10), 0);
  }
}

TEST(Poller, AddOnAKnownFdReArmsWithTheNewMask) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    p.put();
    poller->add(p.rd, POLLIN);
    // Re-add with a mask that no longer cares about readability.
    poller->add(p.rd, POLLOUT);
    std::vector<net::PollerEvent> events;
    EXPECT_EQ(poller->wait(events, 10), 0);
    // And back again: the byte is still there to report.
    poller->add(p.rd, POLLIN);
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_TRUE(revents_of(events, p.rd) & POLLIN);
  }
}

TEST(Poller, ModifyOfAnUnknownFdIsANoOp) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe registered;
    Pipe stranger;
    registered.put();
    poller->add(registered.rd, POLLIN);
    poller->modify(stranger.rd, POLLIN | POLLOUT);  // must not register it
    stranger.put();
    std::vector<net::PollerEvent> events;
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_EQ(events[0].fd, registered.rd);
  }
}

TEST(Poller, RemovedFdsStopReporting) {
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    p.put();
    poller->add(p.rd, POLLIN);
    poller->remove(p.rd);
    std::vector<net::PollerEvent> events;
    EXPECT_EQ(poller->wait(events, 10), 0);
  }
}

TEST(Poller, RemoveToleratesAnAlreadyClosedFd) {
  // Teardown order must not matter: a channel may close its socket before
  // the loop unregisters it, by which point the kernel forgot the fd.
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    const int fd = p.rd;
    poller->add(fd, POLLIN);
    p.close_rd();
    EXPECT_NO_THROW(poller->remove(fd));
    EXPECT_NO_THROW(poller->remove(fd));  // and double-remove is harmless too
  }
}

TEST(Poller, PeerCloseSurfacesAsHangupOnTheReadSide) {
  // The write end closing must wake the read side with POLLHUP (possibly
  // with POLLIN alongside) under both backends — epoll's EPOLLHUP has to be
  // translated back into poll() vocabulary.
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    poller->add(p.rd, POLLIN);
    p.close_wr();
    std::vector<net::PollerEvent> events;
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_TRUE(revents_of(events, p.rd) & POLLHUP);
  }
}

TEST(Poller, ReaderCloseSurfacesAsErrorOnTheWriteSide) {
  // A pipe whose read end vanished reports POLLERR to the writer; writing
  // there would raise SIGPIPE/EPIPE, so the loop must hear about it first.
  for (const auto backend : available_backends()) {
    SCOPED_TRACE(net::to_string(backend));
    const auto poller = net::make_poller(backend);
    Pipe p;
    poller->add(p.wr, POLLOUT);
    p.close_rd();
    std::vector<net::PollerEvent> events;
    ASSERT_EQ(poller->wait(events, 1000), 1);
    EXPECT_TRUE(revents_of(events, p.wr) & POLLERR);
  }
}

TEST(Poller, BothBackendsAgreeOnAMixedScenario) {
  // One script, two backends, compared step by step: a readable fd, a
  // writable fd, and an armed-but-idle fd must produce identical ready sets
  // (order-independent — compare via per-fd lookup).
  if (!net::epoll_supported()) GTEST_SKIP() << "epoll backend not built";
  const auto reference = net::make_poller(net::PollerBackend::Poll);
  const auto subject = net::make_poller(net::PollerBackend::Epoll);

  Pipe readable_ref, readable_sub;
  Pipe writable_ref, writable_sub;
  Pipe idle_ref, idle_sub;
  readable_ref.put();
  readable_sub.put();

  reference->add(readable_ref.rd, POLLIN);
  reference->add(writable_ref.wr, POLLOUT);
  reference->add(idle_ref.rd, POLLIN);
  subject->add(readable_sub.rd, POLLIN);
  subject->add(writable_sub.wr, POLLOUT);
  subject->add(idle_sub.rd, POLLIN);

  std::vector<net::PollerEvent> ref_events, sub_events;
  ASSERT_EQ(reference->wait(ref_events, 1000), 2);
  ASSERT_EQ(subject->wait(sub_events, 1000), 2);
  EXPECT_EQ(revents_of(ref_events, readable_ref.rd), revents_of(sub_events, readable_sub.rd));
  EXPECT_EQ(revents_of(ref_events, writable_ref.wr), revents_of(sub_events, writable_sub.wr));
  EXPECT_EQ(revents_of(ref_events, idle_ref.rd), 0);
  EXPECT_EQ(revents_of(sub_events, idle_sub.rd), 0);
}

// ---- the loop on top of the seam ----------------------------------------------------

TEST(PollerLoop, EventLoopRunsOnTheDefaultBackend) {
  net::EventLoop loop;
  loop.start();
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  for (int i = 0; i < 400 && !ran.load(); ++i) std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(ran.load());
  // The default is the best backend in the build.
  EXPECT_STREQ(loop.poller_name(), net::epoll_supported() ? "epoll" : "poll");
  EXPECT_STREQ(net::make_poller()->name(), loop.poller_name());
  loop.stop();
}

TEST(PollerLoop, TimersFireInDeadlineOrderNotInsertionOrder) {
  net::EventLoop loop;
  loop.start();
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  const auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  // Inserted out of deadline order on purpose: the heap must sort them.
  loop.post_after(90ms, [&] { record(3); });
  loop.post_after(20ms, [&] { record(1); });
  loop.post_after(55ms, [&] { record(2); });
  for (int i = 0; i < 400 && fired.load() < 3; ++i) std::this_thread::sleep_for(5ms);
  loop.stop();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PollerLoop, EqualDeadlineTimersFireInPostOrder) {
  net::EventLoop loop;
  loop.start();
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  const auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  // Same due instant: the heap tie-breaks on the monotonic timer id, which
  // is post order — no starvation, no reordering.
  loop.post([&] {
    for (int tag = 1; tag <= 4; ++tag) {
      loop.post_after(30ms, [&record, tag] { record(tag); });
    }
  });
  for (int i = 0; i < 400 && fired.load() < 4; ++i) std::this_thread::sleep_for(5ms);
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(PollerLoop, CancelledTimerStaysCancelledAmongLiveOnes) {
  net::EventLoop loop;
  loop.start();
  std::atomic<int> fired{0};
  loop.post_after(25ms, [&] { fired.fetch_add(1); });
  const std::uint64_t doomed = loop.post_after(25ms, [&] { fired.fetch_add(100); });
  loop.post_after(40ms, [&] { fired.fetch_add(10); });
  loop.cancel_timer(doomed);
  // Cancelling a made-up id must not disturb the live timers either.
  loop.cancel_timer(doomed + 1234);
  std::this_thread::sleep_for(200ms);
  loop.stop();
  EXPECT_EQ(fired.load(), 11);
}

TEST(PollerLoop, SelfPipeWakesAParkedLoopPromptly) {
  // The loop parks with a long timer horizon; a cross-thread post must wake
  // it through the self-pipe well before that horizon.
  net::EventLoop loop;
  loop.start();
  std::atomic<bool> park{false};
  loop.post([&] {
    loop.post_after(10s, [] {});  // park the poller far in the future
    park.store(true);
  });
  for (int i = 0; i < 400 && !park.load(); ++i) std::this_thread::sleep_for(5ms);

  std::atomic<bool> ran{false};
  const auto posted_at = std::chrono::steady_clock::now();
  loop.post([&] { ran.store(true); });
  for (int i = 0; i < 400 && !ran.load(); ++i) std::this_thread::sleep_for(5ms);
  const auto latency = std::chrono::steady_clock::now() - posted_at;
  EXPECT_TRUE(ran.load());
  EXPECT_LT(latency, 2s);  // woke via the pipe, not the 10 s timer horizon
  loop.stop();
}

TEST(PollerLoop, SpuriousWakeupsAreHarmless) {
  // A watch whose fd is readable but whose callback drains nothing forces
  // repeated level-triggered reports of the same byte: the loop must keep
  // dispatching (no spin-out, no drop) and still run other work.
  net::EventLoop loop;
  loop.start();
  Pipe p;
  std::atomic<int> reports{0};
  loop.post([&] {
    loop.watch(p.rd, POLLIN, [&](short) {
      // Deliberately leave the byte unread for the first few reports.
      if (reports.fetch_add(1) >= 3) {
        char c;
        while (::read(p.rd, &c, 1) == 1) {
        }
      }
    });
  });
  p.put();
  for (int i = 0; i < 400 && reports.load() < 4; ++i) std::this_thread::sleep_for(5ms);
  EXPECT_GE(reports.load(), 4);

  std::atomic<bool> other{false};
  loop.post([&] { other.store(true); });
  for (int i = 0; i < 400 && !other.load(); ++i) std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(other.load());
  loop.post([&] { loop.unwatch(p.rd); });
  loop.stop();
}

}  // namespace
