// FramedChannel — one non-blocking framed TCP connection on an EventLoop:
// the socket I/O that RemoteEndpoint's worker channels and JobServer's
// client sessions share.  Reading drains the socket, feeds a FrameDecoder and
// hands each frame to the owner; writing queues header and payload as
// separate buffers (never concatenated) and flushes them with scatter-gather
// sendmsg, with POLLOUT armed only while bytes wait.
//
// Loop thread only.  The owner watches fd() for POLLIN, passes every
// readiness report to serve(), and unwatches fd() before dropping the channel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace mg::net {

class FramedChannel {
 public:
  /// Gets each frame in arrival order; returns false to stop reading.  It
  /// must once it has closed the channel: serve() then touches it no more.
  using FrameHandler = std::function<bool(Frame frame)>;

  struct Served {
    std::size_t bytes_read = 0;
    /// Why the owner must close the channel: POLLERR, a socket error, EOF,
    /// or a corrupt stream (then `corrupt`).
    std::optional<std::string> close_reason;
    bool corrupt = false;
  };

  /// Takes over a connected non-blocking socket.
  FramedChannel(EventLoop& loop, Socket sock) : loop_(loop), sock_(std::move(sock)) {}

  int fd() const { return sock_.fd(); }

  /// Flushes the outbox on POLLOUT, then on POLLIN/POLLHUP reads until the
  /// socket would block.
  Served serve(short revents, const FrameHandler& on_frame);

  /// Queues `head` then `body` (empty ones are skipped) and sends what the
  /// kernel takes now.  Throws SocketError on a hard error.
  void send(std::vector<std::uint8_t> head, std::vector<std::uint8_t> body = {});

  bool flushed() const { return outbox_.empty(); }

 private:
  void flush();

  EventLoop& loop_;
  Socket sock_;
  FrameDecoder decoder_;
  std::deque<std::vector<std::uint8_t>> outbox_;
  std::size_t out_off_ = 0;  ///< bytes of outbox_.front() already sent
  bool pollout_armed_ = false;
};

}  // namespace mg::net
