#include "acic/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace acic::net {

namespace {

void close_quietly(int& fd) noexcept {
  if (fd >= 0) {
    int rc;
    do {
      rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
    fd = -1;
  }
}

}  // namespace

BlockingClient::BlockingClient(BlockingClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      error_(std::move(other.error_)) {}

BlockingClient& BlockingClient::operator=(BlockingClient&& other) noexcept {
  if (this != &other) {
    close_quietly(fd_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    error_ = std::move(other.error_);
  }
  return *this;
}

BlockingClient::~BlockingClient() { close_quietly(fd_); }

bool BlockingClient::wait_io(short events, long timeout_ms) {
  pollfd p{};
  p.fd = fd_;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, static_cast<int>(timeout_ms));
    if (rc < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (rc == 0) {
      error_ = "timeout";
      return false;
    }
    return true;
  }
}

bool BlockingClient::connect(const std::string& host, std::uint16_t port,
                             long timeout_ms) {
  close_quietly(fd_);
  decoder_ = FrameDecoder();
  error_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    error_ = "host '" + host + "' is not an IPv4 address";
    close_quietly(fd_);
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno == EINPROGRESS) {
    if (!wait_io(POLLOUT, timeout_ms)) {
      close_quietly(fd_);
      return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      error_ = std::string("connect: ") + std::strerror(err);
      close_quietly(fd_);
      return false;
    }
    rc = 0;
  }
  if (rc < 0) {
    error_ = std::string("connect: ") + std::strerror(errno);
    close_quietly(fd_);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool BlockingClient::send_raw(std::string_view bytes, std::size_t chunk,
                              long pause_ms) {
  return send_bytes(bytes, chunk, pause_ms, std::nullopt);
}

bool BlockingClient::send_bytes(
    std::string_view bytes, std::size_t chunk, long pause_ms,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    std::size_t want = bytes.size() - off;
    if (chunk > 0) want = std::min(want, chunk);
    const ssize_t sent = ::send(fd_, bytes.data() + off, want,
                                MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Without a deadline each stall may last 5 s (the chaos drip's
        // budget); with one, all stalls together share what is left.
        long wait_ms = 5000;
        if (deadline) {
          wait_ms = static_cast<long>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  *deadline - std::chrono::steady_clock::now())
                  .count());
          if (wait_ms <= 0) {
            error_ = "timeout";
            return false;
          }
        }
        if (!wait_io(POLLOUT, wait_ms)) return false;
        continue;
      }
      error_ = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(sent);
    if (pause_ms > 0 && off < bytes.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    }
  }
  return true;
}

bool BlockingClient::send_request(std::string_view line, long timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string frame;
  try {
    frame = encode_frame(line);
  } catch (const std::exception& e) {
    error_ = e.what();
    return false;
  }
  return send_bytes(frame, 0, 0, deadline);
}

std::optional<std::string> BlockingClient::read_response(long timeout_ms) {
  if (fd_ < 0) {
    error_ = "not connected";
    return std::nullopt;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[16 * 1024];
  for (;;) {
    auto result = decoder_.next();
    if (result.status == FrameDecoder::Status::kFrame) {
      return std::move(result.payload);
    }
    if (result.status == FrameDecoder::Status::kError) {
      error_ = "protocol: " + result.error;
      return std::nullopt;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      error_ = "timeout";
      return std::nullopt;
    }
    if (!wait_io(POLLIN, left)) return std::nullopt;
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      error_ = std::string("recv: ") + std::strerror(errno);
      return std::nullopt;
    }
    if (got == 0) {
      error_ = decoder_.mid_frame() ? "eof mid-frame" : "eof";
      return std::nullopt;
    }
    decoder_.feed(buf, static_cast<std::size_t>(got));
  }
}

std::optional<std::string> BlockingClient::call(std::string_view line,
                                                long timeout_ms) {
  if (!send_request(line, timeout_ms)) return std::nullopt;
  return read_response(timeout_ms);
}

void BlockingClient::half_close() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void BlockingClient::close() { close_quietly(fd_); }

}  // namespace acic::net
