#include "acic/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "acic/common/error.hpp"

namespace acic::net {

namespace {

// epoll_event.data.u64 sentinels for the two non-connection fds.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    int rc;
    do {
      rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
    fd = -1;
  }
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

in_addr_t parse_host(const std::string& host) {
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  in_addr addr{};
  ACIC_EXPECTS(::inet_pton(AF_INET, resolved.c_str(), &addr) == 1,
               "listen host '" << host
                               << "' is not an IPv4 dotted-quad address");
  return addr.s_addr;
}

}  // namespace

Server::Server(ServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  ACIC_EXPECTS(handler_ != nullptr, "server needs a request handler");
  ACIC_EXPECTS(options_.max_frame_bytes > 0, "max_frame_bytes must be > 0");
  if (options_.max_connections == 0) options_.max_connections = 1024;
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;

  auto& registry = obs::MetricsRegistry::global();
  metrics_.connections_accepted =
      &registry.counter("net.connections_accepted");
  metrics_.connections_rejected =
      &registry.counter("net.connections_rejected");
  metrics_.connections_closed = &registry.counter("net.connections_closed");
  metrics_.connections_active = &registry.gauge("net.connections_active");
  metrics_.frames_in = &registry.counter("net.frames_in");
  metrics_.frames_out = &registry.counter("net.frames_out");
  metrics_.bytes_in = &registry.counter("net.bytes_in");
  metrics_.bytes_out = &registry.counter("net.bytes_out");
  metrics_.protocol_errors = &registry.counter("net.protocol_errors");
  metrics_.idle_disconnects = &registry.counter("net.idle_disconnects");
  metrics_.write_stall_disconnects =
      &registry.counter("net.write_stall_disconnects");
  metrics_.backpressure_pauses =
      &registry.counter("net.backpressure_pauses");
  metrics_.queue_shed = &registry.counter("net.queue_shed");
  metrics_.requests = &registry.counter("net.requests");
  metrics_.request_latency_us =
      &registry.histogram("net.request_latency_us");
  metrics_.drain_forced_closes =
      &registry.counter("net.drain_forced_closes");

  // Wake channel: an AF_UNIX socketpair instead of a pipe/eventfd so the
  // waker side uses send() — async-signal-safe, and no naked ::write
  // outside the durability layer.
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   sv) != 0) {
    throw Error(errno_text("socketpair(wake channel)"));
  }
  wake_rx_ = sv[0];
  wake_tx_ = sv[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    const std::string msg = errno_text("socket(listener)");
    close_fd(wake_rx_);
    close_fd(wake_tx_);
    throw Error(msg);
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = parse_host(options_.host);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string msg = errno_text("bind/listen");
    close_fd(listen_fd_);
    close_fd(wake_rx_);
    close_fd(wake_tx_);
    throw Error(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const std::string msg = errno_text("epoll_create1");
    close_fd(listen_fd_);
    close_fd(wake_rx_);
    close_fd(wake_tx_);
    throw Error(msg);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ACIC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
             "epoll_ctl(listener) failed");
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ACIC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_rx_, &ev) == 0,
             "epoll_ctl(wake) failed");
}

Server::~Server() {
  // run() closes connection fds on its way out; whatever remains (a
  // server destroyed without run(), or after a forced drain) is closed
  // here.
  for (auto& [id, conn] : conns_) close_fd(conn->fd);
  conns_.clear();
  close_fd(listen_fd_);
  close_fd(epoll_fd_);
  close_fd(wake_rx_);
  close_fd(wake_tx_);
}

void Server::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  wake_loop();
}

void Server::wake_loop() noexcept {
  const char byte = 1;
  // Best effort: EAGAIN means a wake byte is already pending, which is
  // all a level-triggered loop needs.  send() is async-signal-safe.
  (void)::send(wake_tx_, &byte, 1, MSG_NOSIGNAL | MSG_DONTWAIT);
}

void Server::start_workers() {
  unsigned n = options_.workers;
  if (n == 0) {
    n = std::min(std::max(1u, std::thread::hardware_concurrency()), 8u);
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void Server::stop_workers() {
  {
    MutexLock lock(&queue_mutex_);
    workers_stop_ = true;
  }
  work_available_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

bool Server::pop_work(WorkItem* item) {
  MutexLock lock(&queue_mutex_);
  while (!workers_stop_ && work_queue_.empty()) {
    work_available_.wait(queue_mutex_);
  }
  if (work_queue_.empty()) return false;  // stop requested, queue drained
  *item = std::move(work_queue_.front());
  work_queue_.pop_front();
  return true;
}

void Server::push_completion(Completion c) {
  MutexLock lock(&queue_mutex_);
  completions_.push_back(std::move(c));
}

void Server::worker_main() {
  WorkItem item;
  while (pop_work(&item)) {
    std::string response;
    try {
      response = handler_(item.request);
    } catch (const std::exception& e) {
      response = std::string("error handler failure: ") + e.what() + "\n";
    } catch (...) {
      response = "error handler failure\n";
    }
    // The framing layer is strict in both directions; make any response
    // representable rather than poisoning the connection.
    if (response.empty()) response = "error empty handler response\n";
    std::replace(response.begin(), response.end(), '\0', '?');
    if (response.size() > options_.max_frame_bytes) {
      response = "error response exceeded the frame cap\n";
    }
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - item.request.received_at)
            .count();
    metrics_.request_latency_us->observe(latency_us);
    push_completion({item.conn_id, std::move(response)});
    wake_loop();
  }
}

void Server::run() {
  start_workers();
  std::vector<epoll_event> events(64);
  std::vector<std::uint64_t> doomed;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (drain_requested_.load(std::memory_order_acquire) &&
        !drain_started_) {
      begin_drain();
    }
    if (drain_started_) {
      if (conns_.empty()) break;
      if (now >= drain_deadline_) {
        // Out of budget: force-close the stragglers.  Their queued work
        // is abandoned too — nobody is left to receive it.
        metrics_.drain_forced_closes->add(
            static_cast<double>(conns_.size()));
        doomed.clear();
        for (const auto& [id, conn] : conns_) doomed.push_back(id);
        for (const auto id : doomed) close_conn(id);
        {
          MutexLock lock(&queue_mutex_);
          work_queue_.clear();
        }
        break;
      }
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               static_cast<int>(next_timeout_ms(now)));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_text("epoll_wait"));
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (tag == kWakeTag) {
        char buf[256];
        while (::recv(wake_rx_, buf, sizeof(buf), MSG_DONTWAIT) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0 &&
          (mask & (EPOLLIN | EPOLLRDHUP)) == 0) {
        close_conn(tag);
        continue;
      }
      if ((mask & (EPOLLIN | EPOLLRDHUP)) != 0) conn_readable(conn);
      // conn_readable may have closed the connection.
      const auto again = conns_.find(tag);
      if (again == conns_.end()) continue;
      if ((mask & EPOLLOUT) != 0) conn_writable(*again->second);
    }
    drain_completions();
    sweep_deadlines(std::chrono::steady_clock::now());
  }
  stop_workers();
  drain_completions();  // conns are gone; drop whatever remains
}

long Server::next_timeout_ms(
    std::chrono::steady_clock::time_point now) const {
  using std::chrono::milliseconds;
  auto earliest = now + milliseconds(500);
  if (drain_started_) earliest = std::min(earliest, drain_deadline_);
  if (options_.idle_timeout_ms > 0) {
    for (const auto& [id, conn] : conns_) {
      auto deadline = conn->last_progress +
                      milliseconds(options_.idle_timeout_ms);
      if (conn->mid_frame) {
        deadline = std::min(
            deadline,
            conn->frame_started + milliseconds(options_.idle_timeout_ms));
      }
      earliest = std::min(earliest, deadline);
    }
  }
  const auto delta =
      std::chrono::duration_cast<milliseconds>(earliest - now).count();
  return std::max<long>(1, std::min<long>(500, delta));
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error — the loop retries
    }
    if (conns_.size() >= options_.max_connections) {
      // Best-effort typed rejection; whatever fits in the socket buffer.
      static const std::string kReject = encode_frame(
          "error server at connection capacity; retry later\n");
      (void)::send(fd, kReject.data(), kReject.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      int tmp = fd;
      close_fd(tmp);
      metrics_.connections_rejected->inc();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_progress = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      int tmp = fd;
      close_fd(tmp);
      continue;
    }
    metrics_.connections_accepted->inc();
    conns_.emplace(conn->id, std::move(conn));
    metrics_.connections_active->set(static_cast<double>(conns_.size()));
  }
}

void Server::dispatch_or_shed(Conn& conn, std::string payload) {
  metrics_.requests->inc();
  const auto received_at = std::chrono::steady_clock::now();
  bool queued = false;
  {
    MutexLock lock(&queue_mutex_);
    if (work_queue_.size() < options_.max_queue_depth) {
      work_queue_.push_back(
          WorkItem{conn.id, Request{std::move(payload), received_at}});
      queued = true;
    }
  }
  if (queued) {
    conn.in_dispatch++;
    work_available_.notify_one();
  } else {
    // The dispatch queue is the one overload gate: a full queue sheds
    // with a typed response the client can branch on.
    metrics_.queue_shed->inc();
    queue_response(conn, "shed server work queue full; retry later\n");
  }
}

void Server::conn_readable(Conn& conn) {
  if (conn.read_closed || drain_started_ || !conn.want_read) {
    update_interest(conn);
    return;
  }
  char buf[16 * 1024];
  for (;;) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn.id);  // ECONNRESET and friends
      return;
    }
    if (got == 0) {
      // Half-close: the peer finished sending.  Every request already
      // received still gets its response before we close our side.
      conn.read_closed = true;
      if (conn.decoder.mid_frame()) {
        // A truncated frame is a protocol violation, not a clean close.
        metrics_.protocol_errors->inc();
      }
      conn.close_after_flush = true;
      break;
    }
    metrics_.bytes_in->add(static_cast<double>(got));
    conn.last_progress = std::chrono::steady_clock::now();
    conn.decoder.feed(buf, static_cast<std::size_t>(got));
    for (;;) {
      auto result = conn.decoder.next();
      if (result.status == FrameDecoder::Status::kNeedMore) break;
      if (result.status == FrameDecoder::Status::kError) {
        // Strict parser: one typed error response, then done reading.
        metrics_.protocol_errors->inc();
        queue_response(conn, "error net " + result.error + "\n");
        conn.read_closed = true;
        conn.close_after_flush = true;
        break;
      }
      metrics_.frames_in->inc();
      dispatch_or_shed(conn, std::move(result.payload));
    }
    if (conn.read_closed) break;
    // Backpressure: stop reading while this connection owes us drain.
    const bool paused =
        conn.outbuf.size() - conn.out_offset > options_.max_output_bytes ||
        conn.in_dispatch >= options_.max_pipeline;
    if (paused) {
      if (conn.want_read) metrics_.backpressure_pauses->inc();
      conn.want_read = false;
      break;
    }
    if (static_cast<std::size_t>(got) < sizeof(buf)) break;
  }
  // Track frame-assembly progress for the slow-loris sweep.
  if (conn.decoder.mid_frame()) {
    if (!conn.mid_frame) {
      conn.mid_frame = true;
      conn.frame_started = std::chrono::steady_clock::now();
    }
  } else {
    conn.mid_frame = false;
  }
  if (conn.close_after_flush && conn.in_dispatch == 0 &&
      conn.out_offset == conn.outbuf.size()) {
    close_conn(conn.id);
    return;
  }
  update_interest(conn);
}

void Server::queue_response(Conn& conn, std::string_view payload) {
  // Responses originate here (handler output is pre-sanitised in the
  // worker; the rest are our own literals), but a tiny max_frame_bytes
  // in a test must never make the encoder throw on the loop thread.
  if (payload.size() > options_.max_frame_bytes) {
    payload = payload.substr(0, options_.max_frame_bytes);
  }
  conn.outbuf.append(encode_frame(payload, options_.max_frame_bytes));
  metrics_.frames_out->inc();
  flush_some(conn);
  update_interest(conn);
}

void Server::flush_some(Conn& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    const ssize_t sent =
        ::send(conn.fd, conn.outbuf.data() + conn.out_offset,
               conn.outbuf.size() - conn.out_offset,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Broken pipe / reset: nobody will read this output.  Drop it and
      // let the next close check reap the connection.
      conn.close_after_flush = true;
      conn.outbuf.clear();
      conn.out_offset = 0;
      return;
    }
    conn.out_offset += static_cast<std::size_t>(sent);
    metrics_.bytes_out->add(static_cast<double>(sent));
    conn.last_progress = std::chrono::steady_clock::now();
  }
  conn.outbuf.clear();
  conn.out_offset = 0;
}

void Server::conn_writable(Conn& conn) {
  flush_some(conn);
  if (conn.close_after_flush && conn.in_dispatch == 0 &&
      conn.out_offset == conn.outbuf.size()) {
    close_conn(conn.id);
    return;
  }
  // Output drained below the watermark: resume reading.
  if (!conn.read_closed && !drain_started_ && !conn.want_read &&
      conn.outbuf.size() - conn.out_offset <= options_.max_output_bytes &&
      conn.in_dispatch < options_.max_pipeline) {
    conn.want_read = true;
  }
  update_interest(conn);
}

void Server::update_interest(Conn& conn) {
  const bool want_write = conn.out_offset < conn.outbuf.size();
  const bool want_read = conn.want_read && !conn.read_closed &&
                         !drain_started_;
  std::uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN | EPOLLRDHUP;
  if (want_write) mask |= EPOLLOUT;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn.id;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_write = want_write;
}

void Server::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  close_fd(conn.fd);
  conns_.erase(it);
  metrics_.connections_closed->inc();
  metrics_.connections_active->set(static_cast<double>(conns_.size()));
}

void Server::begin_drain() {
  drain_started_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_timeout_ms);
  // Stop accepting: close the listener so the OS refuses new peers
  // instead of parking them in the backlog.
  if (listen_fd_ >= 0) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close_fd(listen_fd_);
  }
  // Stop reading everywhere; finish what is in flight, flush, close.
  std::vector<std::uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    conn->read_closed = true;
    conn->close_after_flush = true;
    if (conn->in_dispatch == 0 &&
        conn->out_offset == conn->outbuf.size()) {
      idle.push_back(id);
    } else {
      update_interest(*conn);
    }
  }
  for (const auto id : idle) close_conn(id);
}

void Server::sweep_deadlines(std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout_ms <= 0) return;
  const auto budget = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<std::uint64_t> doomed_idle;
  std::vector<std::uint64_t> doomed_stalled;
  for (const auto& [id, conn] : conns_) {
    const bool output_pending = conn->out_offset < conn->outbuf.size();
    if (output_pending && now - conn->last_progress > budget) {
      // The peer stopped draining its responses.
      doomed_stalled.push_back(id);
      continue;
    }
    if (conn->mid_frame && now - conn->frame_started > budget) {
      // Slow loris: a frame that never finishes assembling.
      doomed_idle.push_back(id);
      continue;
    }
    if (!output_pending && conn->in_dispatch == 0 && !conn->read_closed &&
        now - conn->last_progress > budget) {
      doomed_idle.push_back(id);
    }
  }
  for (const auto id : doomed_idle) {
    metrics_.idle_disconnects->inc();
    close_conn(id);
  }
  for (const auto id : doomed_stalled) {
    metrics_.write_stall_disconnects->inc();
    close_conn(id);
  }
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    MutexLock lock(&queue_mutex_);
    batch.swap(completions_);
  }
  for (auto& c : batch) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    Conn& conn = *it->second;
    ACIC_DCHECK(conn.in_dispatch > 0, "completion without a dispatch");
    if (conn.in_dispatch > 0) conn.in_dispatch--;
    queue_response(conn, c.response);
    const auto again = conns_.find(c.conn_id);
    if (again == conns_.end()) continue;
    if (conn.close_after_flush && conn.in_dispatch == 0 &&
        conn.out_offset == conn.outbuf.size()) {
      close_conn(c.conn_id);
      continue;
    }
    // A completed request frees pipeline budget: maybe resume reading.
    if (!conn.read_closed && !drain_started_ && !conn.want_read &&
        conn.outbuf.size() - conn.out_offset <= options_.max_output_bytes &&
        conn.in_dispatch < options_.max_pipeline) {
      conn.want_read = true;
      update_interest(conn);
    }
  }
}

}  // namespace acic::net
