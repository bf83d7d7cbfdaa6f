#include "net/framed_channel.hpp"

#include <poll.h>
#include <sys/uio.h>

namespace mg::net {

FramedChannel::Served FramedChannel::serve(short revents, const FrameHandler& on_frame) {
  Served out;
  try {
    if (revents & (POLLERR | POLLNVAL)) throw SocketError("socket error");
    if (revents & POLLOUT) flush();
    if (!(revents & (POLLIN | POLLHUP))) return out;
    std::uint8_t buf[64 * 1024];
    std::ptrdiff_t r = 0;
    while ((r = sock_.recv_some(buf, sizeof buf)) > 0) {
      out.bytes_read += static_cast<std::size_t>(r);
      decoder_.feed(buf, static_cast<std::size_t>(r));
      while (auto frame = decoder_.next()) {
        if (!on_frame(std::move(*frame))) return out;
      }
    }
    if (r == 0) out.close_reason = "peer disconnected";  // r < 0: drained
  } catch (const SocketError& e) {
    out.close_reason = e.what();
  } catch (const FrameError& e) {
    out.close_reason = std::string("corrupt stream: ") + e.what();
    out.corrupt = true;
  }
  return out;
}

void FramedChannel::send(std::vector<std::uint8_t> head, std::vector<std::uint8_t> body) {
  if (!head.empty()) outbox_.push_back(std::move(head));
  if (!body.empty()) outbox_.push_back(std::move(body));
  flush();
}

void FramedChannel::flush() {
  constexpr int kMaxIov = 16;
  while (!outbox_.empty()) {
    ::iovec iov[kMaxIov];
    int iovcnt = 0;
    for (auto it = outbox_.begin(); it != outbox_.end() && iovcnt < kMaxIov; ++it, ++iovcnt) {
      const std::size_t skip = iovcnt == 0 ? out_off_ : 0;
      iov[iovcnt] = {it->data() + skip, it->size() - skip};
    }
    const std::ptrdiff_t r = sock_.send_vec(iov, iovcnt);
    if (r <= 0) break;  // kernel buffer full (or a zero-byte send): wait for POLLOUT
    out_off_ += static_cast<std::size_t>(r);
    while (!outbox_.empty() && out_off_ >= outbox_.front().size()) {
      out_off_ -= outbox_.front().size();
      outbox_.pop_front();
    }
  }
  const bool waiting = !outbox_.empty();
  if (waiting != pollout_armed_) {
    pollout_armed_ = waiting;
    loop_.modify(sock_.fd(), waiting ? (POLLIN | POLLOUT) : POLLIN);
  }
}

}  // namespace mg::net
