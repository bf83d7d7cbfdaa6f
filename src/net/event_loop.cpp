#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>

#include "support/check.hpp"

namespace mg::net {

EventLoop::EventLoop() {
  MG_REQUIRE(::pipe(wake_fds_) == 0);
  for (int fd : wake_fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

EventLoop::~EventLoop() {
  stop();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void EventLoop::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  watches_.clear();
}

void EventLoop::post(std::function<void()> fn) {
  if (on_loop_thread()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

std::uint64_t EventLoop::post_after(std::chrono::milliseconds delay, std::function<void()> fn) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_timer_id_++;
    timers_.push(Timer{std::chrono::steady_clock::now() + delay, id, std::move(fn)});
    live_timers_.insert(id);
  }
  wake();
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Lazy cancellation: the heap entry stays where it is and is discarded
  // when it surfaces at the top.  Only live ids enter cancelled_, so a
  // stale cancel (timer already fired) can't grow the set.
  if (live_timers_.count(id) != 0) cancelled_.insert(id);
}

void EventLoop::watch(int fd, short events, IoCallback cb) {
  MG_REQUIRE(on_loop_thread());
  watches_[fd] = Watch{events, std::move(cb)};
  poller_->add(fd, events);
}

void EventLoop::modify(int fd, short events) {
  MG_REQUIRE(on_loop_thread());
  const auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  it->second.events = events;
  poller_->modify(fd, events);
}

void EventLoop::unwatch(int fd) {
  MG_REQUIRE(on_loop_thread());
  if (watches_.erase(fd) != 0) poller_->remove(fd);
}

const char* EventLoop::poller_name() const {
  return resolved_poller_name_.load(std::memory_order_acquire);
}

void EventLoop::wake() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t r = ::write(wake_fds_[1], &byte, 1);  // full pipe is fine
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> run_now;
  std::vector<std::function<void()>> due_timers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run_now.swap(posted_);
    const auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.top().due <= now) {
      Timer t = std::move(const_cast<Timer&>(timers_.top()));
      timers_.pop();
      live_timers_.erase(t.id);
      if (cancelled_.erase(t.id) != 0) continue;
      due_timers.push_back(std::move(t.fn));
    }
  }
  for (auto& fn : run_now) fn();
  for (auto& fn : due_timers) fn();
}

int EventLoop::next_poll_timeout_ms() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!posted_.empty()) return 0;
  // Shed cancelled entries off the top so they can't shorten the sleep.
  while (!timers_.empty() && cancelled_.count(timers_.top().id) != 0) {
    cancelled_.erase(timers_.top().id);
    live_timers_.erase(timers_.top().id);
    timers_.pop();
  }
  if (timers_.empty()) return -1;
  const auto earliest = timers_.top().due;
  const auto now = std::chrono::steady_clock::now();
  if (earliest <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(earliest - now);
  // Ceil so a timer is never polled awake a fraction early only to re-poll.
  return static_cast<int>(ms.count()) + 1;
}

void EventLoop::run() {
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  // Fresh poller per start() so a stop/start cycle resets the interest set.
  poller_ = make_poller();
  resolved_poller_name_.store(poller_->name(), std::memory_order_release);
  poller_->add(wake_fds_[0], POLLIN);

  std::vector<PollerEvent> events;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    drain_posted();
    if (stop_requested_.load(std::memory_order_acquire)) break;

    int rc = 0;
    try {
      rc = poller_->wait(events, next_poll_timeout_ms());
    } catch (const std::exception&) {
      break;  // unrecoverable poller failure: shut the loop down
    }

    for (int i = 0; i < rc; ++i) {
      const PollerEvent& ev = events[static_cast<std::size_t>(i)];
      if (ev.fd == wake_fds_[0]) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
        }
        continue;
      }
      // Callbacks may watch/unwatch freely: membership is re-checked per
      // dispatch, and the callback is copied in case it unwatches itself.
      const auto it = watches_.find(ev.fd);
      if (it == watches_.end()) continue;
      IoCallback cb = it->second.cb;
      cb(ev.revents);
    }
  }
  drain_posted();  // run final posted closures (shutdown cleanup)
  poller_.reset();
  resolved_poller_name_.store("unstarted", std::memory_order_release);
  loop_thread_id_.store(std::thread::id{}, std::memory_order_release);
}

}  // namespace mg::net
