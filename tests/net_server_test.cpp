// Loopback tests for the epoll front end (src/acic/net/server.*): echo
// round-trips, pipelining, shed-under-load, idle and slow-loris
// disconnects, strict-framing rejections, half-close semantics, the
// connection cap, backpressure, and graceful drain; plus the blocking
// client's send deadline against a peer that never reads.  Every server
// binds port 0 (ephemeral) so tests never collide; handlers are lambdas,
// so no training or simulation runs here.  The concurrency-heavy cases
// are in the tsan preset's filter (tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "acic/net/client.hpp"
#include "acic/net/frame.hpp"
#include "acic/net/server.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::net {
namespace {

/// Owns a Server plus the thread running its event loop; drains on
/// destruction so a failing assertion can't leak a live loop.
struct TestServer {
  TestServer(ServerOptions options, Handler handler)
      : server(std::move(options), std::move(handler)),
        thread([this] { server.run(); }) {}
  ~TestServer() { stop(); }
  void stop() {
    server.request_drain();
    if (thread.joinable()) thread.join();
  }
  std::uint16_t port() { return server.port(); }

  Server server;
  std::thread thread;
};

Handler echo_handler() {
  return [](const Request& req) { return "ok echo " + req.line + "\n"; };
}

TEST(NetServer, EchoRoundTrip) {
  TestServer ts({}, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000))
      << client.last_error();
  const auto resp = client.call("hello", 2000);
  ASSERT_TRUE(resp.has_value()) << client.last_error();
  EXPECT_EQ(*resp, "ok echo hello\n");
  // The connection stays usable for more requests.
  const auto again = client.call("again", 2000);
  ASSERT_TRUE(again.has_value()) << client.last_error();
  EXPECT_EQ(*again, "ok echo again\n");
}

TEST(NetServer, PipelinedRequestsAllAnswered) {
  TestServer ts({}, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client.send_request("req" + std::to_string(i), 2000));
  }
  int answered = 0;
  for (int i = 0; i < kCount; ++i) {
    const auto resp = client.read_response(5000);
    ASSERT_TRUE(resp.has_value()) << client.last_error();
    EXPECT_EQ(resp->rfind("ok echo req", 0), 0u) << *resp;
    ++answered;
  }
  EXPECT_EQ(answered, kCount);
}

// The protocol carries no request id, so a pipelining client pairs
// answers with requests by order alone.  With two workers a fast request
// behind a slow one finishes first; its answer must still go out second.
// Shed answers wait their turn the same way.
TEST(NetServer, PipelinedResponsesKeepRequestOrder) {
  const Handler handler = [](const Request& req) {
    if (req.line.rfind("slow", 0) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return "ok " + req.line + "\n";
  };
  {
    ServerOptions options;
    options.workers = 2;
    TestServer ts(options, handler);
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
    ASSERT_TRUE(client.send_request("slow", 2000));
    ASSERT_TRUE(client.send_request("fast", 2000));
    const auto first = client.read_response(5000);
    const auto second = client.read_response(5000);
    ASSERT_TRUE(first.has_value() && second.has_value())
        << client.last_error();
    EXPECT_EQ(*first, "ok slow\n");
    EXPECT_EQ(*second, "ok fast\n");
  }
  // One worker and a one-slot queue: behind a slow request, part of the
  // burst is shed at once.  Every answer, shed or not, belongs to the
  // request in its position.
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  TestServer ts(options, handler);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  const std::vector<std::string> burst = {"slow0", "fast1", "fast2",
                                          "slow3", "fast4", "fast5"};
  for (const auto& line : burst) ASSERT_TRUE(client.send_request(line, 2000));
  int shed = 0;
  for (const auto& line : burst) {
    const auto resp = client.read_response(5000);
    ASSERT_TRUE(resp.has_value()) << client.last_error();
    if (resp->rfind("shed", 0) == 0) {
      ++shed;
    } else {
      EXPECT_EQ(*resp, "ok " + line + "\n");
    }
  }
  EXPECT_GE(shed, 1);
}

// Run under the tsan preset: many client threads against one server;
// every request must get exactly its own response (the handler echoes
// the request text back, so mixups are detectable).
TEST(NetServer, ConcurrentClientsGetTheirOwnResponses) {
  TestServer ts({}, echo_handler());
  constexpr int kThreads = 8;
  constexpr int kRequests = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      BlockingClient client;
      if (!client.connect("127.0.0.1", ts.port(), 5000)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::string tag =
            "t" + std::to_string(t) + "r" + std::to_string(i);
        const auto resp = client.call(tag, 5000);
        if (!resp || *resp != "ok echo " + tag + "\n") {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NetServer, FullWorkQueueShedsWithTypedResponse) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  TestServer ts(options, [](const Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return "ok slow " + req.line + "\n";
  });
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  constexpr int kCount = 8;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client.send_request("burst" + std::to_string(i), 2000));
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < kCount; ++i) {
    const auto resp = client.read_response(5000);
    ASSERT_TRUE(resp.has_value()) << client.last_error();
    if (resp->rfind("ok", 0) == 0) {
      ++ok;
    } else if (resp->rfind("shed", 0) == 0) {
      ++shed;
      EXPECT_NE(resp->find("retry later"), std::string::npos) << *resp;
    } else {
      ADD_FAILURE() << "unexpected response type: " << *resp;
    }
  }
  // One worker, queue depth one, zero-delay burst: most of the burst
  // must shed, but every single request got a typed answer.
  EXPECT_EQ(ok + shed, kCount);
  EXPECT_GE(shed, 1);
  EXPECT_GE(ok, 1);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* count = snap.counter("net.queue_shed");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(*count, 0.0);
}

TEST(NetServer, IdleConnectionIsDisconnected) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts(options, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  // Send nothing at all: the server must reclaim the slot.
  const auto resp = client.read_response(3000);
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(client.last_error(), "eof");
}

// Slow loris: a frame that never completes.  The deadline is on frame
// *assembly*, so trickling bytes does not reset it.
TEST(NetServer, MidFrameStallIsDisconnected) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts(options, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  const std::string frame = encode_frame(std::string(1024, 'x'));
  ASSERT_TRUE(client.send_raw(frame.substr(0, frame.size() / 2)));
  const auto resp = client.read_response(3000);
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(client.last_error(), "eof");
}

TEST(NetServer, GarbageBytesGetTypedErrorThenClose) {
  TestServer ts({}, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  ASSERT_TRUE(client.send_raw("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
  const auto resp = client.read_response(3000);
  ASSERT_TRUE(resp.has_value()) << client.last_error();
  EXPECT_EQ(resp->rfind("error", 0), 0u) << *resp;
  EXPECT_NE(resp->find("magic"), std::string::npos) << *resp;
  // After the typed error the server closes; nothing else arrives.
  const auto next = client.read_response(3000);
  EXPECT_FALSE(next.has_value());
  EXPECT_EQ(client.last_error(), "eof");
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* count = snap.counter("net.protocol_errors");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(*count, 0.0);
}

TEST(NetServer, OversizedFrameIsRejectedFromItsHeader) {
  ServerOptions options;
  options.max_frame_bytes = 64;
  TestServer ts(options, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  // Encode under a roomier client-side cap so the client can even build
  // the frame the server must refuse.
  ASSERT_TRUE(client.send_raw(encode_frame(std::string(100, 'y'), 1024)));
  const auto resp = client.read_response(3000);
  ASSERT_TRUE(resp.has_value()) << client.last_error();
  EXPECT_EQ(resp->rfind("error", 0), 0u) << *resp;
  EXPECT_NE(resp->find("exceeds the cap"), std::string::npos) << *resp;
  const auto next = client.read_response(3000);
  EXPECT_FALSE(next.has_value());
}

// shutdown(SHUT_WR) after sending: the read side is intact, so the
// response must still be delivered before the server closes.
TEST(NetServer, HalfClosedPeerStillReceivesItsResponse) {
  TestServer ts({}, echo_handler());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  ASSERT_TRUE(client.send_request("parting words", 2000));
  client.half_close();
  const auto resp = client.read_response(3000);
  ASSERT_TRUE(resp.has_value()) << client.last_error();
  EXPECT_EQ(*resp, "ok echo parting words\n");
  const auto next = client.read_response(3000);
  EXPECT_FALSE(next.has_value());
  EXPECT_EQ(client.last_error(), "eof");
}

TEST(NetServer, ConnectionCapRejectsWithTypedError) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer ts(options, echo_handler());
  BlockingClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", ts.port(), 2000));
  // Prove the first slot is really established server-side.
  ASSERT_TRUE(first.call("hold", 2000).has_value());
  BlockingClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", ts.port(), 2000));
  const auto resp = second.read_response(3000);
  if (resp.has_value()) {
    EXPECT_EQ(resp->rfind("error", 0), 0u) << *resp;
    EXPECT_NE(resp->find("capacity"), std::string::npos) << *resp;
  } else {
    // The reject frame is best-effort; a straight close is acceptable.
    EXPECT_EQ(second.last_error(), "eof");
  }
  // The occupied slot is unaffected.
  const auto still = first.call("still here", 2000);
  ASSERT_TRUE(still.has_value()) << first.last_error();
  EXPECT_EQ(*still, "ok echo still here\n");
}

// Backpressure: a tiny output watermark plus a client that stops
// reading.  The server must pause reads instead of buffering without
// bound, then finish everything once the client drains.
TEST(NetServer, BackpressurePausesAndRecovers) {
  ServerOptions options;
  options.max_output_bytes = 1024;
  options.max_pipeline = 4;
  const std::string big(2000, 'z');
  TestServer ts(options,
                [&big](const Request&) { return "ok " + big + "\n"; });
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  constexpr int kCount = 16;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client.send_request("r" + std::to_string(i), 2000))
        << client.last_error();
  }
  // Let responses pile into the watermark before reading any.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < kCount; ++i) {
    const auto resp = client.read_response(5000);
    ASSERT_TRUE(resp.has_value()) << client.last_error() << " at " << i;
    EXPECT_EQ(resp->rfind("ok ", 0), 0u);
  }
}

// Drain completes in-flight work: the response outlives the listener.
TEST(NetServer, DrainDeliversInFlightResponsesThenStops) {
  ServerOptions options;
  options.drain_timeout_ms = 5000;
  TestServer ts(options, [](const Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return "ok eventually " + req.line + "\n";
  });
  const auto port = ts.port();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port, 2000));
  ASSERT_TRUE(client.send_request("in flight", 2000));
  // Give the loop a moment to dispatch, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ts.server.request_drain();
  const auto resp = client.read_response(5000);
  ASSERT_TRUE(resp.has_value()) << client.last_error();
  EXPECT_EQ(*resp, "ok eventually in flight\n");
  // run() returns once the drain finishes.
  ts.thread.join();
  // The listener is gone: new connections are refused.
  BlockingClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", port, 500));
}

// A handler that outlives the drain budget: the straggler's connection
// must be force-closed at the deadline.  (run() itself still joins the
// worker pool before returning — a thread stuck inside the handler
// cannot be killed safely; bounding handler *runtime* is the service
// deadline's job, bounding *connection* lifetime is the drain's.)
TEST(NetServer, DrainDeadlineForceClosesStragglers) {
  ServerOptions options;
  options.drain_timeout_ms = 100;
  TestServer ts(options, [](const Request& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return "ok late " + req.line + "\n";
  });
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port(), 2000));
  ASSERT_TRUE(client.send_request("too slow", 2000));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto drain_started = std::chrono::steady_clock::now();
  ts.server.request_drain();
  // The client is cut loose at the 100ms deadline, long before the
  // 600ms handler would have answered.
  const auto resp = client.read_response(2000);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - drain_started)
                          .count();
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(client.last_error(), "eof");
  EXPECT_LT(waited, 500) << "force-close did not respect the deadline";
  ts.thread.join();
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* forced = snap.counter("net.drain_forced_closes");
  ASSERT_NE(forced, nullptr);
  EXPECT_GT(*forced, 0.0);
}

TEST(NetServer, EphemeralPortIsResolved) {
  TestServer ts({}, echo_handler());
  EXPECT_NE(ts.port(), 0);
}

// A loopback peer that accepts and never reads: once the socket buffers
// fill, send_request must give up within its own timeout, not after a
// fixed 5 s per stall.
TEST(NetClient, SendRequestHonoursItsTimeoutAgainstANonReadingPeer) {
  struct Fd {
    int fd;
    ~Fd() {
      if (fd >= 0) ::close(fd);
    }
  };
  const int small = 4096;
  Fd listener{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  ASSERT_GE(listener.fd, 0);
  ::setsockopt(listener.fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener.fd, 1), 0);
  ASSERT_EQ(
      ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len),
      0);

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port), 2000))
      << client.last_error();
  ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  Fd peer{::accept(listener.fd, nullptr, nullptr)};
  ASSERT_GE(peer.fd, 0);

  const std::string line(60000, 'x');
  constexpr long kTimeoutMs = 200;
  for (int i = 0; i < 1000; ++i) {
    const auto started = std::chrono::steady_clock::now();
    const bool sent = client.send_request(line, kTimeoutMs);
    const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    if (sent) continue;
    EXPECT_EQ(client.last_error(), "timeout");
    EXPECT_GE(took, kTimeoutMs - 10);
    EXPECT_LT(took, 2000) << "send waited past its " << kTimeoutMs
                          << " ms timeout";
    return;
  }
  FAIL() << "the peer never stopped draining";
}

}  // namespace
}  // namespace acic::net
