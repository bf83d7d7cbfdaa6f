#include "net/poller.hpp"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

#if defined(__linux__)
#define MG_NET_HAVE_EPOLL 1
#include <sys/epoll.h>
#include <unistd.h>
#else
#define MG_NET_HAVE_EPOLL 0
#endif

namespace mg::net {

namespace {

// ---------------------------------------------------------------------------
// Portable poll() backend — also the reference semantics for parity tests.
// ---------------------------------------------------------------------------

class PollPoller final : public Poller {
 public:
  const char* name() const override { return "poll"; }

  void add(int fd, short events) override { interest_[fd] = events; }

  void modify(int fd, short events) override {
    const auto it = interest_.find(fd);
    if (it != interest_.end()) it->second = events;
  }

  void remove(int fd) override { interest_.erase(fd); }

  int wait(std::vector<PollerEvent>& out, int timeout_ms) override {
    out.clear();
    pfds_.clear();
    for (const auto& [fd, events] : interest_) pfds_.push_back(pollfd{fd, events, 0});
    const int rc = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) return 0;
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    for (const pollfd& p : pfds_) {
      if (p.revents != 0) out.push_back(PollerEvent{p.fd, p.revents});
    }
    return static_cast<int>(out.size());
  }

 private:
  std::map<int, short> interest_;   ///< fd -> POLLIN|POLLOUT mask
  std::vector<pollfd> pfds_;        ///< rebuilt per wait (O(n): the fallback)
};

#if MG_NET_HAVE_EPOLL

// ---------------------------------------------------------------------------
// Linux epoll backend — O(ready) wakeups.
// ---------------------------------------------------------------------------

std::uint32_t to_epoll_mask(short events) {
  std::uint32_t mask = 0;
  if (events & POLLIN) mask |= EPOLLIN;
  if (events & POLLOUT) mask |= EPOLLOUT;
  return mask;
}

short from_epoll_mask(std::uint32_t mask) {
  short revents = 0;
  if (mask & EPOLLIN) revents |= POLLIN;
  if (mask & EPOLLOUT) revents |= POLLOUT;
  if (mask & EPOLLERR) revents |= POLLERR;
  if (mask & EPOLLHUP) revents |= POLLHUP;
  return revents;
}

class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    MG_REQUIRE(epfd_ >= 0);
    events_.resize(64);
  }

  ~EpollPoller() override { ::close(epfd_); }

  const char* name() const override { return "epoll"; }

  void add(int fd, short events) override {
    epoll_event ev{};
    ev.events = to_epoll_mask(events);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0) return;
    // Re-arming an existing registration is an add() in the seam's contract.
    MG_REQUIRE(errno == EEXIST && ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0);
  }

  void modify(int fd, short events) override {
    epoll_event ev{};
    ev.events = to_epoll_mask(events);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
      MG_REQUIRE(errno == ENOENT);  // unknown fd: no-op, like PollPoller
    }
  }

  void remove(int fd) override {
    // ENOENT/EBADF are fine: a close() beat us to it and the kernel already
    // dropped the registration.
    if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
      MG_REQUIRE(errno == ENOENT || errno == EBADF);
    }
  }

  int wait(std::vector<PollerEvent>& out, int timeout_ms) override {
    out.clear();
    const int rc =
        ::epoll_wait(epfd_, events_.data(), static_cast<int>(events_.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) return 0;
      throw std::runtime_error(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < rc; ++i) {
      out.push_back(PollerEvent{events_[i].data.fd, from_epoll_mask(events_[i].events)});
    }
    if (rc == static_cast<int>(events_.size())) events_.resize(events_.size() * 2);
    return rc;
  }

 private:
  int epfd_ = -1;
  std::vector<epoll_event> events_;
};

#endif  // MG_NET_HAVE_EPOLL

}  // namespace

const char* to_string(PollerBackend b) {
  switch (b) {
    case PollerBackend::Poll: return "poll";
    case PollerBackend::Epoll: return "epoll";
  }
  return "?";
}

bool epoll_supported() { return MG_NET_HAVE_EPOLL != 0; }

std::unique_ptr<Poller> make_poller(PollerBackend backend) {
  switch (backend) {
    case PollerBackend::Poll:
      return std::make_unique<PollPoller>();
    case PollerBackend::Epoll:
#if MG_NET_HAVE_EPOLL
      return std::make_unique<EpollPoller>();
#else
      throw std::runtime_error("epoll poller requested on a platform without epoll");
#endif
  }
  return std::make_unique<PollPoller>();
}

}  // namespace mg::net
