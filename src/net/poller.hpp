// Poller — the level-abstracted readiness seam under the event loop.
//
// The PR-5 loop called ::poll() directly, which couples two things that
// should be separate: *what the loop means* (dispatch ready fds, run due
// timers, wake on post) and *how the kernel reports readiness*.  This file
// owns the second half behind a minimal interface so the loop is O(ready)
// per wakeup where the OS allows it:
//
//   * EpollPoller (Linux): one epoll instance mirrors the interest set, so
//     a wakeup touches only the fds that are actually ready — the O(n)
//     rebuild-and-scan of the poll() loop is gone.
//   * PollPoller (portable fallback, and the reference semantics the parity
//     tests pin the epoll backend against): rebuilds a pollfd array per
//     wait.  Still correct everywhere POSIX poll() exists (the kqueue seam
//     would slot in beside EpollPoller the same way).
//
// Event bits are poll()'s own (POLLIN/POLLOUT/POLLERR/POLLHUP): they are the
// lingua franca both kernels speak, so backends translate *to* them and the
// loop above never knows which backend ran.  make_poller() picks epoll where
// the build has it; tests build either backend by name and script the same
// fd scenario through both implementations.
#pragma once

#include <memory>
#include <vector>

namespace mg::net {

/// One ready fd, in poll() vocabulary (POLLIN|POLLOUT|POLLERR|POLLHUP).
struct PollerEvent {
  int fd = -1;
  short revents = 0;
};

class Poller {
 public:
  virtual ~Poller() = default;

  virtual const char* name() const = 0;

  /// Adds fd to the interest set with `events` (POLLIN|POLLOUT).  Adding an
  /// fd that is already present re-arms it with the new mask.
  virtual void add(int fd, short events) = 0;

  /// Adjusts the interest mask of a registered fd; no-op when unknown.
  virtual void modify(int fd, short events) = 0;

  /// Drops fd from the interest set.  Tolerates fds the kernel already
  /// forgot (closed before removal) — teardown order must not matter.
  virtual void remove(int fd) = 0;

  /// Blocks up to timeout_ms (-1 = forever, 0 = poll) and appends every
  /// ready fd to `out` (cleared first).  Returns the number of ready fds;
  /// 0 on timeout.  EINTR is absorbed and reported as 0 — callers loop.
  virtual int wait(std::vector<PollerEvent>& out, int timeout_ms) = 0;
};

enum class PollerBackend {
  Poll,   ///< portable poll() backend
  Epoll,  ///< Linux epoll backend (make_poller throws where unsupported)
};

const char* to_string(PollerBackend b);

/// True when the Epoll backend exists in this build.
bool epoll_supported();

/// Builds the requested backend: by default epoll where this build has it,
/// poll elsewhere.
std::unique_ptr<Poller> make_poller(PollerBackend backend = epoll_supported()
                                                                ? PollerBackend::Epoll
                                                                : PollerBackend::Poll);

}  // namespace mg::net
