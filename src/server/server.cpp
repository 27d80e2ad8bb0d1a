#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "server/framing.hpp"
#include "server/net.hpp"

namespace tango::srv {

Server::Server(std::shared_ptr<const SpecRegistry> registry,
               ServerConfig config)
    : registry_(std::move(registry)), config_(std::move(config)) {}

Server::~Server() {
  shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  ignore_sigpipe();
  std::string err;
  listen_fd_ = listen_on(config_.host, config_.port, err);
  if (listen_fd_ < 0) throw std::runtime_error(err);
  port_ = local_port(listen_fd_);

  if (config_.workers < 1) config_.workers = 1;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    // max_sessions reached: keep the thread alive (shutdown joins it) but
    // take no more work; queued connections are already counted accepted.
    if (config_.max_sessions != 0 &&
        accepted_.load(std::memory_order_acquire) >= config_.max_sessions) {
      pollfd idle{listen_fd_, 0, 0};
      ::poll(&idle, 1, 50);
      continue;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_nodelay(fd);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() < config_.queue_max) {
        queue_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      accepted_.fetch_add(1, std::memory_order_acq_rel);
      cv_.notify_one();
    } else {
      // Backpressure: a structured reply, not a silent RST — the client
      // can tell "busy" from "broken" and retry with a delay. Counted
      // first, so a client that saw the reply also sees the count.
      rejected_.fetch_add(1, std::memory_order_acq_rel);
      Frame f;
      f.type = FrameType::Overloaded;
      f.message = "session queue full; retry later";
      (void)send_all(fd, encode_frame(f));
      ::close(fd);
    }
  }
}

void Server::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping and nothing left to drain
      fd = queue_.front();
      queue_.pop_front();
    }
    const std::uint64_t next_id =
        session_ticket_.fetch_add(1, std::memory_order_acq_rel) + 1;
    SessionContext ctx;
    ctx.registry = registry_.get();
    ctx.config = &config_.session;
    ctx.draining = &draining_;
    ctx.session_id = next_id;
    run_session(fd, ctx);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void Server::shutdown() {
  if (!started_ || joined_) return;
  draining_.store(true, std::memory_order_release);
  {
    // Under mu_: a worker that found stopping_ false is already waiting
    // on cv_ by now, so the notify below cannot slip past it.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
}

bool Server::finished() const {
  return config_.max_sessions != 0 &&
         completed_.load(std::memory_order_acquire) >= config_.max_sessions;
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace tango::srv
