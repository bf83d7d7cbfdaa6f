// Thin RAII layer over POSIX TCP sockets.
//
// Everything above this file speaks frames; everything below it is the
// kernel.  Two usage modes coexist: event loops drive non-blocking sockets
// through net::FramedChannel (send_vec / recv_some report would-block), while
// workers and clients use the blocking helpers (send_all / recv_exact) on
// blocking sockets — they serve one request at a time, so blocking I/O is the
// honest expression of their state machine.  All sends use MSG_NOSIGNAL: a
// peer that vanished must surface as an error code, never as SIGPIPE.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

struct iovec;  // <sys/uio.h>; only named here so headers stay lean

namespace mg::net {

class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Owns one file descriptor.  Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  void set_nonblocking(bool on);
  void set_nodelay(bool on);  ///< TCP_NODELAY: frames are latency-sensitive

  /// Scatter-gather send (sendmsg, so MSG_NOSIGNAL still applies — writev
  /// takes no flags).  Returns bytes written (may be 0 under pressure), -1 on
  /// would-block; throws SocketError on a hard error (incl. EPIPE).
  std::ptrdiff_t send_vec(const ::iovec* iov, int iovcnt);

  /// Receives up to n bytes.  Returns bytes read, 0 on orderly EOF, -1 on
  /// would-block; throws SocketError on a hard error.
  std::ptrdiff_t recv_some(void* data, std::size_t n);

 private:
  int fd_ = -1;
};

/// Sends exactly n bytes on a blocking socket; false when the peer is gone.
bool send_all(Socket& s, const void* data, std::size_t n);
/// Receives exactly n bytes on a blocking socket; false on EOF or error.
bool recv_exact(Socket& s, void* data, std::size_t n);

/// Blocking connect to host:port with a timeout.  Returns an invalid Socket
/// on failure (refused, timeout, unresolvable) — connection setup failures
/// are expected events for a reconnecting worker, not exceptions.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds timeout);

/// A bound, listening TCP socket.  Constructed early (before any thread is
/// spawned) so worker processes can be forked with the port already known —
/// the kernel queues their connects in the backlog until the event loop
/// starts accepting.
class TcpListener {
 public:
  TcpListener() = default;
  /// Binds host:port (port 0 = ephemeral) and listens.  Throws SocketError.
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener() { close(); }

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Non-blocking accept; invalid Socket when no connection is pending.
  Socket accept();

  /// The listener starts blocking (fork-friendly); the event loop flips it
  /// non-blocking before polling so a raced-away connection cannot park the
  /// loop inside accept().
  void set_nonblocking(bool on);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string host_;
};

}  // namespace mg::net
