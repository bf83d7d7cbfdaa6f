#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mg::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("inet_pton: cannot parse address '" + host + "'");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = on ? flags | O_NONBLOCK : flags & ~O_NONBLOCK;
  if (::fcntl(fd_, F_SETFL, next) < 0) throw_errno("fcntl(F_SETFL)");
}

void Socket::set_nodelay(bool on) {
  const int v = on ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof v) < 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

std::ptrdiff_t Socket::send_vec(const ::iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<::iovec*>(iov);
  msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
  for (;;) {
    const ssize_t r = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("sendmsg");
  }
}

std::ptrdiff_t Socket::recv_some(void* data, std::size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd_, data, n, 0);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("recv");
  }
}

bool send_all(Socket& s, const void* data, std::size_t n) {
  ::iovec iov{const_cast<void*>(data), n};
  try {
    while (iov.iov_len > 0) {
      const std::ptrdiff_t r = s.send_vec(&iov, 1);
      if (r < 0) return false;  // would-block: not a blocking socket
      iov.iov_base = static_cast<std::uint8_t*>(iov.iov_base) + r;
      iov.iov_len -= static_cast<std::size_t>(r);
    }
  } catch (const SocketError&) {
    return false;
  }
  return true;
}

bool recv_exact(Socket& s, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  try {
    for (std::size_t got = 0; got < n;) {
      const std::ptrdiff_t r = s.recv_some(p + got, n - got);
      if (r <= 0) return false;  // EOF mid-message (or would-block: not a blocking socket)
      got += static_cast<std::size_t>(r);
    }
  } catch (const SocketError&) {
    return false;
  }
  return true;
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  sockaddr_in addr;
  try {
    addr = make_addr(host, port);
  } catch (const SocketError&) {
    return Socket{};
  }
  // Non-blocking connect + poll gives a bounded connect even when the
  // destination blackholes SYNs.
  s.set_nonblocking(true);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc < 0) {
    if (errno != EINPROGRESS) return Socket{};
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (pr <= 0) return Socket{};
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) return Socket{};
  }
  s.set_nonblocking(false);
  s.set_nodelay(true);
  return s;
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port) : host_(host) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, 64) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), host_(std::move(other.host_)) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    host_ = std::move(other.host_);
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Socket TcpListener::accept() {
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      Socket s(fd);
      s.set_nodelay(true);
      return s;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return Socket{};
    throw_errno("accept");
  }
}

void TcpListener::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = on ? flags | O_NONBLOCK : flags & ~O_NONBLOCK;
  if (::fcntl(fd_, F_SETFL, next) < 0) throw_errno("fcntl(F_SETFL)");
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace mg::net
