// Shared helpers for churn tests that must lose leases on purpose: in-process
// subsolve workers whose handler parks at a gate.  While every worker is
// parked, every connected channel provably carries a live lease, so a
// disrupt() issued then costs at least one round trip — churn decided by the
// test, not by how fast the solve happens to run.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "net/remote.hpp"

namespace mg::tests {

/// Holds every caller of enter() until open() is called.
class HandlerGate {
 public:
  void enter() {
    std::unique_lock<std::mutex> lock(m_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  /// Blocks until n callers have entered; false on timeout.
  bool wait_entered(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(m_);
    return cv_.wait_for(lock, timeout, [&] { return entered_ >= n; });
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::size_t entered_ = 0;
  bool open_ = false;
};

/// n worker threads serving subsolve work through run_worker_loop, each
/// handler waiting at `gate` before it computes.  The threads exit once the
/// endpoint shuts down, so shut it down before this object goes away.
struct GatedSubsolveWorkers {
  HandlerGate gate;
  std::vector<std::thread> threads;

  GatedSubsolveWorkers(std::uint16_t port, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, port] {
        net::run_worker_loop("127.0.0.1", port, [this](const std::vector<std::uint8_t>& work) {
          gate.enter();
          return mw::encode_result_item(mw::execute_work_item(mw::decode_work_item(work)));
        });
      });
    }
  }
  ~GatedSubsolveWorkers() {
    gate.open();
    for (auto& t : threads) t.join();
  }
  GatedSubsolveWorkers(const GatedSubsolveWorkers&) = delete;
  GatedSubsolveWorkers& operator=(const GatedSubsolveWorkers&) = delete;
};

/// Polls until the endpoint has closed at least n channels; false on timeout.
inline bool wait_for_disconnects(const net::RemoteEndpoint& endpoint, std::uint64_t n,
                                 std::chrono::milliseconds timeout) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  while (endpoint.counters().disconnects < n) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace mg::tests
