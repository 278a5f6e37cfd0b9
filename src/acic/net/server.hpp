// Overload-resilient epoll TCP front end for the ACIC query service.
//
// One event-loop thread owns the listener, every connection, and all
// socket I/O; a small worker pool runs the request handler (typically
// `QueryService::handle`, which is thread-safe) so a slow `simulate`
// cannot stall the sockets.  The loop and the workers meet at two
// bounded, mutex-protected queues: requests flow out through the work
// queue, responses flow back through the completion queue plus a wake
// byte on an AF_UNIX socketpair.  Connections are addressed by a
// monotonically increasing id, never by pointer, so a completion for a
// connection that died mid-request is silently dropped.  Responses leave
// in request order: the protocol carries no request id, so each frame a
// connection sends gets a sequence number, and an answer that is ready
// before an earlier one (a fast request behind a slow one on another
// worker, or a shed or error frame behind a queued request) waits on the
// connection until every earlier answer has gone out.
//
// Robustness budgets (all per ServerOptions, all metered in `net.*`):
//
//  * Strict framing — any protocol violation (garbage, oversized or
//    zero length, embedded NUL; see frame.hpp) earns one typed `error`
//    frame and a close.  There is no resync on a length-prefixed
//    stream.
//  * Slow-loris defense — a connection that stays completely idle, or
//    dribbles a frame for longer than `idle_timeout_ms` without
//    completing it, is disconnected.  The clock is *frame progress*,
//    not raw bytes, so a byte-per-second client cannot hold a slot.
//  * Write-stall defense — a peer that stops draining its responses for
//    `idle_timeout_ms` while output is pending is disconnected.
//  * Backpressure — while a connection's output buffer exceeds
//    `max_output_bytes`, or it has `max_pipeline` frames unanswered
//    (in flight, or answered and waiting for an earlier answer), the
//    loop stops *reading* from it (EPOLLIN off).  Memory per
//    connection is bounded; a fast requester is throttled to its own
//    drain rate instead of growing the heap.
//  * Bounded dispatch — the worker pool caps concurrent handler calls,
//    and when the work queue in front of it is full the request is
//    answered immediately with a typed `shed` frame.  This is the one
//    overload gate: the handler itself admits everything it is given.
//  * Connection cap — accepts beyond `max_connections` get a typed
//    `error` frame (best-effort) and an immediate close.
//
// Lifecycle: `run()` owns the loop until `request_drain()` — which is
// async-signal-safe, so SIGTERM/SIGINT handlers may call it directly —
// flips the server into drain mode: the listener closes, reading stops,
// in-flight and already-queued requests finish and flush, and `run()`
// returns once every connection is closed or `drain_timeout_ms`
// expires (stragglers are force-closed and counted).  Half-closed
// peers (shutdown(SHUT_WR)) still receive every response they are owed
// before the server closes its side.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "acic/common/mutex.hpp"
#include "acic/common/thread_annotations.hpp"
#include "acic/net/frame.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::net {

struct ServerOptions {
  /// Bind address, IPv4 dotted-quad (or "localhost").  Port 0 binds an
  /// ephemeral port; read it back with Server::port().
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Hard cap on simultaneously open connections (0 = a safe default).
  std::size_t max_connections = 1024;
  /// Hard cap on one frame's payload bytes.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Read-idle / frame-assembly / write-stall deadline, milliseconds.
  long idle_timeout_ms = 10000;
  /// Drain budget after request_drain(), milliseconds.
  long drain_timeout_ms = 5000;
  /// Per-connection output-buffer high watermark (backpressure).
  std::size_t max_output_bytes = 256 * 1024;
  /// Per-connection frames read but not yet answered (pipelining cap).
  std::size_t max_pipeline = 32;
  /// Bounded work queue between the loop and the workers; requests
  /// beyond it are shed with a typed response.
  std::size_t max_queue_depth = 256;
  /// Handler worker threads (0 = min(hardware_concurrency, 8)).
  unsigned workers = 0;
};

/// One decoded request as the handler sees it.
struct Request {
  std::string line;  ///< frame payload (protocol line)
  /// When the complete frame arrived — queue wait counts against the
  /// service deadline (QueryService::handle(line, admitted_at)).
  std::chrono::steady_clock::time_point received_at;
};

using Handler = std::function<std::string(const Request&)>;

class Server {
 public:
  /// Binds and listens (throws acic::Error on failure); the loop does
  /// not start until run().  Connections made before run() sit in the
  /// accept backlog.
  Server(ServerOptions options, Handler handler);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Resolved listening port (after the constructor bound it).
  std::uint16_t port() const { return port_; }

  /// Event loop: accepts, reads, dispatches, writes.  Returns after a
  /// drain completes.  Call from exactly one thread.
  void run();

  /// Flip into drain mode.  Async-signal-safe (one atomic store + one
  /// send() on the wake socketpair); callable from any thread or from a
  /// SIGTERM/SIGINT handler.  Idempotent.
  void request_drain() noexcept;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    std::string outbuf;          ///< encoded frames awaiting send()
    std::size_t out_offset = 0;  ///< sent prefix of outbuf
    /// Sequence number of the next frame read and of the next answer to
    /// queue for sending: frames [next_answer, next_frame) are
    /// unanswered.
    std::uint64_t next_frame = 0;
    std::uint64_t next_answer = 0;
    /// Answers ready before an earlier one, by sequence number.
    std::map<std::uint64_t, std::string> held;
    bool want_read = true;       ///< EPOLLIN currently armed
    bool want_write = false;     ///< EPOLLOUT currently armed
    bool read_closed = false;    ///< peer half-closed or we stopped reading
    bool close_after_flush = false;
    std::chrono::steady_clock::time_point last_progress;
    /// Set while an incomplete frame is buffered; bounds frame assembly.
    std::chrono::steady_clock::time_point frame_started;
    bool mid_frame = false;

    explicit Conn(std::size_t max_frame) : decoder(max_frame) {}

    std::uint64_t unanswered() const { return next_frame - next_answer; }
  };

  struct WorkItem {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  ///< the frame's sequence number on its conn
    Request request;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string response;
  };

  // --- event-loop internals (single-threaded; no lock needed) --------
  void accept_ready();
  void conn_readable(Conn& conn);
  void conn_writable(Conn& conn);
  /// Answer frame `seq`: queue it for sending once every earlier frame's
  /// answer is queued, together with any later ones it held up.
  void answer(Conn& conn, std::uint64_t seq, std::string payload);
  void queue_response(Conn& conn, std::string_view payload);
  void flush_some(Conn& conn);
  void update_interest(Conn& conn);
  void close_conn(std::uint64_t id);
  void begin_drain();
  void sweep_deadlines(std::chrono::steady_clock::time_point now);
  void drain_completions();
  void dispatch_or_shed(Conn& conn, std::string payload);
  long next_timeout_ms(std::chrono::steady_clock::time_point now) const;

  // --- worker-pool plumbing ------------------------------------------
  void worker_main();
  void start_workers();
  void stop_workers();
  bool pop_work(WorkItem* item) ACIC_EXCLUDES(queue_mutex_);
  void push_completion(Completion c) ACIC_EXCLUDES(queue_mutex_);
  void wake_loop() noexcept;

  ServerOptions options_;
  Handler handler_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_rx_ = -1;  ///< loop end of the socketpair
  int wake_tx_ = -1;  ///< worker / signal end

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake fd
  std::atomic<bool> drain_requested_{false};
  bool drain_started_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  Mutex queue_mutex_;
  CondVar work_available_;
  std::deque<WorkItem> work_queue_ ACIC_GUARDED_BY(queue_mutex_);
  std::vector<Completion> completions_ ACIC_GUARDED_BY(queue_mutex_);
  bool workers_stop_ ACIC_GUARDED_BY(queue_mutex_) = false;
  std::vector<std::thread> workers_;

  // net.* instruments, registered once here (single-site rule).
  struct Metrics {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_rejected = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Gauge* connections_active = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* idle_disconnects = nullptr;
    obs::Counter* write_stall_disconnects = nullptr;
    obs::Counter* backpressure_pauses = nullptr;
    obs::Counter* queue_shed = nullptr;
    obs::Counter* requests = nullptr;
    obs::Histogram* request_latency_us = nullptr;
    obs::Counter* drain_forced_closes = nullptr;
  };
  Metrics metrics_;
};

}  // namespace acic::net
