// The `tango serve` daemon core (docs/SERVER.md §deployment): one accept
// thread feeding a bounded queue of connections, a fixed pool of session
// workers draining it, and a compiled SpecRegistry shared read-only by
// every session. Backpressure is explicit: when the queue is full the
// accept thread answers `overloaded` and closes, so clients distinguish
// "busy, retry" from "down". Shutdown is graceful by construction —
// stop accepting, flip the draining flag (in-flight sessions conclude
// Inconclusive reason "shutdown" at their next pump boundary), join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/registry.hpp"
#include "server/session.hpp"

namespace tango::srv {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  std::uint16_t port = 0;
  /// Session worker threads (concurrent analyses).
  int workers = 4;
  /// Accepted-but-unclaimed connections beyond which new connects get an
  /// `overloaded` reply.
  std::size_t queue_max = 16;
  /// Non-zero: stop accepting after this many sessions have been taken on
  /// and report finished() once they completed — the deterministic-exit
  /// knob the tests and the CI smoke job drive.
  std::uint64_t max_sessions = 0;
  SessionConfig session;
};

class Server {
 public:
  Server(std::shared_ptr<const SpecRegistry> registry, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the threads. Throws std::runtime_error when
  /// the address cannot be bound.
  void start();

  /// Graceful drain; idempotent, callable from a signal-watching thread.
  /// Returns once every worker has joined.
  void shutdown();

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True once max_sessions were served to completion (always false when
  /// max_sessions is 0).
  [[nodiscard]] bool finished() const;

  [[nodiscard]] std::uint64_t sessions_accepted() const {
    return accepted_.load();
  }
  [[nodiscard]] std::uint64_t sessions_completed() const {
    return completed_.load();
  }
  [[nodiscard]] std::uint64_t sessions_rejected() const {
    return rejected_.load();
  }
  /// Accepted connections waiting for a worker.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  void accept_loop();
  void worker_loop();

  std::shared_ptr<const SpecRegistry> registry_;
  ServerConfig config_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> queue_;  // accepted fds awaiting a worker

  std::atomic<std::uint64_t> session_ticket_{0};  // 1-based session ids
  std::atomic<bool> stopping_{false};  // accept/worker loops wind down
  std::atomic<bool> draining_{false};  // sessions abort to "shutdown"
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace tango::srv
