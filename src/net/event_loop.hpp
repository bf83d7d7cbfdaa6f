// A non-blocking event loop over the Poller readiness seam — the single
// thread that owns all master-side socket state.
//
// Concurrency discipline (the libp2p/tinymux pattern): every fd watch, every
// connection buffer, and every in-flight round trip is mutated only on the
// loop thread.  Other threads interact exclusively through post() (run a
// closure on the loop) and post_after() (run it later); a self-pipe wakes
// the poller when work arrives.  This keeps the socket layer lock-free where
// it matters — the only locks are around the posted-closure queue.
//
// Readiness comes from a Poller backend (net/poller.hpp): epoll on Linux so
// a wakeup costs O(ready), the portable poll() fallback elsewhere —
// invisible above this line.  Deferred timers live in a min-heap keyed by
// deadline, so arming the poll timeout reads the top in O(1) instead of
// rescanning every pending timer per wakeup.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/poller.hpp"

namespace mg::net {

class EventLoop {
 public:
  /// revents in poll() vocabulary: POLLIN/POLLOUT/POLLERR/POLLHUP bits.
  using IoCallback = std::function<void(short revents)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread.  Idempotent.
  void start();

  /// Requests stop, wakes the poller, joins the thread.  Pending posted
  /// closures run before the thread exits; watches are dropped.  Idempotent.
  void stop();

  /// Runs `fn` on the loop thread (immediately if already on it).
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread after `delay`.  Returns a timer id that
  /// cancel_timer() accepts; fired/cancelled timers free their slot.  Timers
  /// with equal deadlines fire in creation order.
  std::uint64_t post_after(std::chrono::milliseconds delay, std::function<void()> fn);
  void cancel_timer(std::uint64_t id);

  // ---- loop-thread-only fd registry ----

  /// Watches fd for `events` (POLLIN|POLLOUT).  One watch per fd.
  void watch(int fd, short events, IoCallback cb);
  /// Adjusts the interest set of an existing watch.
  void modify(int fd, short events);
  /// Drops the watch (does not close the fd).
  void unwatch(int fd);

  bool on_loop_thread() const { return std::this_thread::get_id() == loop_thread_id_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Which readiness backend this loop runs on ("epoll" / "poll").
  const char* poller_name() const;

 private:
  struct Timer {
    std::chrono::steady_clock::time_point due;
    std::uint64_t id;
    std::function<void()> fn;
  };
  /// Min-heap order: earliest deadline first, creation id as the tie-break
  /// so simultaneous timers fire in the order they were armed.
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.id > b.id;
    }
  };
  struct Watch {
    short events;
    IoCallback cb;
  };

  void run();
  void wake();
  void drain_posted();
  int next_poll_timeout_ms();

  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read end (polled), [1] write end
  std::unique_ptr<Poller> poller_;  ///< created at start(), used on the loop thread
  std::thread thread_;
  std::atomic<std::thread::id> loop_thread_id_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::mutex mutex_;  // guards posted_, timers_, cancelled_ (posted from any thread)
  std::vector<std::function<void()>> posted_;
  /// Sorted deadline heap.  Cancellation is lazy: ids land in cancelled_ and
  /// their heap entries are dropped when they surface at the top, so
  /// cancel_timer never pays a heap rebuild.
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::unordered_set<std::uint64_t> live_timers_;  ///< ids still in the heap
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_timer_id_ = 1;
  std::atomic<const char*> resolved_poller_name_{"unstarted"};

  std::map<int, Watch> watches_;  // loop thread only
};

}  // namespace mg::net
