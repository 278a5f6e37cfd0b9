// Minimal blocking client for the framed ACIC protocol — the test and
// load-harness counterpart of net::Server.  One connection, synchronous
// calls, explicit timeouts via poll(2); also exposes the raw socket
// verbs (send_raw / half_close) that the chaos clients in
// bench/acic_slap.cpp use to misbehave on purpose.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "acic/net/frame.hpp"

namespace acic::net {

class BlockingClient {
 public:
  BlockingClient() = default;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;
  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;
  ~BlockingClient();

  /// Connect to host:port (IPv4 dotted-quad or "localhost") within
  /// `timeout_ms`.  Returns false (with last_error() set) on failure.
  bool connect(const std::string& host, std::uint16_t port,
               long timeout_ms = 5000);

  bool connected() const { return fd_ >= 0; }

  /// Frame `line` and send it fully within `timeout_ms`.  False on any
  /// socket error, or with last_error() "timeout" when the peer does not
  /// drain the frame in time.
  bool send_request(std::string_view line, long timeout_ms = 5000);

  /// Read one response frame.  std::nullopt on timeout, clean EOF, or a
  /// protocol/socket error — last_error() distinguishes them ("timeout",
  /// "eof", or a description).
  std::optional<std::string> read_response(long timeout_ms = 5000);

  /// Convenience: send_request + read_response.
  std::optional<std::string> call(std::string_view line,
                                  long timeout_ms = 5000);

  // --- chaos verbs ----------------------------------------------------
  /// Push raw bytes down the socket, unframed, optionally dripping them
  /// `chunk` bytes at a time with `pause_ms` between chunks.  Each stall
  /// on a full send buffer may wait up to 5 s.
  bool send_raw(std::string_view bytes, std::size_t chunk = 0,
                long pause_ms = 0);
  /// shutdown(SHUT_WR): we are done sending; responses still flow back.
  void half_close();
  /// Abrupt close (mid-frame disconnect chaos).
  void close();

  const std::string& last_error() const { return error_; }
  int fd() const { return fd_; }

 private:
  bool wait_io(short events, long timeout_ms);
  /// send_raw's loop; with a `deadline`, stalls share it instead of
  /// waiting up to 5 s each.
  bool send_bytes(
      std::string_view bytes, std::size_t chunk, long pause_ms,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::string error_;
};

}  // namespace acic::net
