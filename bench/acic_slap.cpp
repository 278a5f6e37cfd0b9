// acic_slap — chaos load generator for the acic::net framed front end
// (the drizzleslap of this codebase).  Ramps concurrent connections
// against a running `example_acic_serve --listen`, mixes protocol verbs,
// and — because an overload story that was never exercised is a slogan,
// not a property — deliberately misbehaves: every Nth connection is a
// chaos client that sends garbage bytes, disconnects mid-frame,
// half-closes after its request, or drips one byte at a time like a
// slow loris.  The server must answer every well-formed request with a
// typed response (ok/error/shed/timeout), survive every chaos client,
// and never hang or crash.
//
// Usage:
//   acic_slap --port N [--host 127.0.0.1] [--ramp 1,4,16]
//             [--requests 25] [--chaos] [--chaos-every 4]
//             [--slow-bps 64] [--timeout-ms 10000] [--seed 1]
//             [--expect-drain] [--verbose]
//
// Numeric flags fail closed: a malformed, negative, zero (where a count
// must be positive) or out-of-range value exits 2 with an error naming
// the flag, before any connection is made.
//
// Output: per-step and total tallies (sent / answered by type) plus
// latency percentiles.  Exit status 0 when every normal request was
// answered with a typed response; nonzero otherwise.  --expect-drain
// tolerates responses cut off by a server drain (the SIGTERM-mid-ramp
// CI job sends the signal while a ramp is in flight, so tail requests
// legitimately see EOF instead of an answer).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <csignal>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/net/client.hpp"
#include "acic/net/frame.hpp"
#include "acic/service/query_service.hpp"

namespace {

using acic::net::BlockingClient;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::vector<int> ramp = {1, 4, 16};
  int requests_per_conn = 25;
  bool chaos = false;
  int chaos_every = 4;  ///< every Nth connection misbehaves
  int slow_bps = 64;
  long timeout_ms = 10000;
  std::uint64_t seed = 1;
  bool expect_drain = false;
  bool verbose = false;
};

enum class ChaosKind { kNone, kGarbage, kMidFrame, kHalfClose, kSlowByte };

const char* chaos_name(ChaosKind k) {
  switch (k) {
    case ChaosKind::kGarbage: return "garbage";
    case ChaosKind::kMidFrame: return "midframe";
    case ChaosKind::kHalfClose: return "halfclose";
    case ChaosKind::kSlowByte: return "slowbyte";
    default: return "normal";
  }
}

/// One worker thread's tally; merged single-threaded after join.
struct Tally {
  long sent = 0;
  long ok = 0, error = 0, shed = 0, timeout = 0, other = 0;
  long no_response = 0;       ///< sent but no frame back (EOF/timeout)
  long connect_failures = 0;
  long chaos_clients = 0;
  long chaos_survived = 0;  ///< server reacted sanely (typed error or close)
  std::vector<double> latencies_us;

  void merge(const Tally& t) {
    sent += t.sent;
    ok += t.ok;
    error += t.error;
    shed += t.shed;
    timeout += t.timeout;
    other += t.other;
    no_response += t.no_response;
    connect_failures += t.connect_failures;
    chaos_clients += t.chaos_clients;
    chaos_survived += t.chaos_survived;
    latencies_us.insert(latencies_us.end(), t.latencies_us.begin(),
                        t.latencies_us.end());
  }
};

const char* kVerbs[] = {
    "stats",
    "rank top=5",
    "help",
    "recommend objective=performance top_k=3 np=64 io_procs=64 "
    "interface=MPI-IO iterations=4 data=4MiB request=1MiB op=write "
    "collective=yes shared=yes",
    "recommend objective=cost top_k=2 np=16 io_procs=16 interface=POSIX "
    "iterations=1 data=64MiB request=4MiB op=read shared=no",
};

void classify(const std::string& response, Tally& tally) {
  if (response.rfind("ok", 0) == 0) {
    tally.ok++;
  } else if (response.rfind("error", 0) == 0) {
    tally.error++;
  } else if (response.rfind("shed", 0) == 0) {
    tally.shed++;
  } else if (response.rfind("timeout", 0) == 0) {
    tally.timeout++;
  } else {
    tally.other++;
  }
}

void run_normal_client(const Options& opt, std::mt19937_64& rng,
                       Tally& tally) {
  BlockingClient client;
  if (!client.connect(opt.host, opt.port, opt.timeout_ms)) {
    tally.connect_failures++;
    return;
  }
  std::uniform_int_distribution<std::size_t> pick(
      0, std::size(kVerbs) - 1);
  for (int r = 0; r < opt.requests_per_conn; ++r) {
    const char* verb = kVerbs[pick(rng)];
    const auto started = std::chrono::steady_clock::now();
    if (!client.send_request(verb, opt.timeout_ms)) {
      tally.no_response++;  // connection died under us (drain or fault)
      return;
    }
    tally.sent++;
    const auto response = client.read_response(opt.timeout_ms);
    if (!response) {
      tally.no_response++;
      return;
    }
    tally.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count());
    classify(*response, tally);
  }
}

void run_chaos_client(const Options& opt, ChaosKind kind,
                      std::mt19937_64& rng, Tally& tally) {
  tally.chaos_clients++;
  BlockingClient client;
  if (!client.connect(opt.host, opt.port, opt.timeout_ms)) {
    tally.connect_failures++;
    return;
  }
  switch (kind) {
    case ChaosKind::kGarbage: {
      // Not even close to a frame.  Expect one typed error, then close.
      std::string junk(128, '\0');
      for (auto& c : junk) {
        c = static_cast<char>(rng() & 0xFF);
      }
      if (junk[0] == static_cast<char>(0xAC)) junk[0] = 'X';
      (void)client.send_raw(junk);
      const auto response = client.read_response(opt.timeout_ms);
      // Either a typed "error net ..." frame or an immediate close is a
      // sane reaction; hanging or crashing is not.
      if (!response) {
        const bool clean = client.last_error() == "eof" ||
                           client.last_error().rfind("recv", 0) == 0;
        if (clean) tally.chaos_survived++;
      } else {
        if (response->rfind("error", 0) == 0) tally.chaos_survived++;
      }
      break;
    }
    case ChaosKind::kMidFrame: {
      // A header promising 512 bytes, then half of them, then RST.
      std::string frame = acic::net::encode_frame(std::string(512, 'x'));
      (void)client.send_raw(frame.substr(0, frame.size() / 2));
      client.close();
      tally.chaos_survived++;  // nothing to observe; the server must cope
      break;
    }
    case ChaosKind::kHalfClose: {
      // One valid request, shutdown(SHUT_WR) — the response must still
      // arrive on the intact read side.
      if (!client.send_request("stats", opt.timeout_ms)) break;
      client.half_close();
      const auto response = client.read_response(opt.timeout_ms);
      if (response && response->rfind("ok", 0) == 0) {
        tally.chaos_survived++;
      }
      break;
    }
    case ChaosKind::kSlowByte: {
      // A valid small frame, dripped at ~slow_bps bytes/second.  If the
      // server's idle budget is generous enough it answers; if not, it
      // must disconnect us — never sit on the slot forever.
      const std::string frame = acic::net::encode_frame("help");
      const long pause_ms =
          opt.slow_bps > 0 ? std::max(1L, 1000L / opt.slow_bps) : 1;
      if (!client.send_raw(frame, 1, pause_ms)) {
        tally.chaos_survived++;  // kicked mid-drip: the loris defense
        break;
      }
      const auto response = client.read_response(opt.timeout_ms);
      if (response) {
        tally.chaos_survived++;  // answered: we were within budget
      } else if (client.last_error() == "eof" ||
                 client.last_error().rfind("recv", 0) == 0) {
        tally.chaos_survived++;  // disconnected: also fine
      }
      break;
    }
    case ChaosKind::kNone:
      break;
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void print_usage() {
  std::printf(
      "usage: acic_slap --port N [--host H] [--ramp 1,4,16]\n"
      "                 [--requests N] [--chaos] [--chaos-every K]\n"
      "                 [--slow-bps N] [--timeout-ms N] [--seed S]\n"
      "                 [--expect-drain] [--verbose]\n");
}

constexpr std::size_t kIntMax = std::numeric_limits<int>::max();

/// service::parse_count, also rejecting zero: for flags where 0 would
/// make the run meaningless (no connections, no time to answer).
std::size_t parse_positive(const std::string& flag, const std::string& text,
                           std::size_t max) {
  const std::size_t v = acic::service::parse_count(flag, text, max);
  if (v == 0) {
    throw acic::Error(flag + " must be at least 1, got '" + text + "'");
  }
  return v;
}

/// Comma-separated connection counts, one ramp step each; every step
/// is a thread per connection, so the bound keeps a typo off the box.
std::vector<int> parse_ramp(const std::string& spec) {
  std::vector<int> ramp;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    ramp.push_back(static_cast<int>(parse_positive("--ramp", tok, 4096)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ramp;
}

}  // namespace

int main(int argc, char** argv) {
  using acic::service::parse_count;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw acic::Error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "--host") {
        opt.host = value();
      } else if (arg == "--port") {
        opt.port = static_cast<std::uint16_t>(
            parse_positive(arg, value(), 65535));
      } else if (arg == "--ramp") {
        opt.ramp = parse_ramp(value());
      } else if (arg == "--requests") {
        opt.requests_per_conn =
            static_cast<int>(parse_count(arg, value(), kIntMax));
      } else if (arg == "--chaos") {
        opt.chaos = true;
      } else if (arg == "--chaos-every") {
        opt.chaos_every =
            static_cast<int>(parse_positive(arg, value(), kIntMax));
      } else if (arg == "--slow-bps") {
        opt.slow_bps = static_cast<int>(parse_count(arg, value(), kIntMax));
      } else if (arg == "--timeout-ms") {
        // poll(2) takes an int timeout.
        opt.timeout_ms =
            static_cast<long>(parse_positive(arg, value(), kIntMax));
      } else if (arg == "--seed") {
        opt.seed = static_cast<std::uint64_t>(parse_count(arg, value()));
      } else if (arg == "--expect-drain") {
        opt.expect_drain = true;
      } else if (arg == "--verbose") {
        opt.verbose = true;
      } else {
        throw acic::Error("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage();
    return 2;
  }
  if (opt.port == 0) {
    print_usage();
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a draining server mid-send is routine

  Tally total;
  const auto bench_started = std::chrono::steady_clock::now();
  int chaos_cursor = 0;
  for (std::size_t step = 0; step < opt.ramp.size(); ++step) {
    const int conns = opt.ramp[step];
    std::vector<Tally> tallies(static_cast<std::size_t>(conns));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      ChaosKind kind = ChaosKind::kNone;
      if (opt.chaos && (c % opt.chaos_every) == opt.chaos_every - 1) {
        // Cycle through the four chaos personalities deterministically.
        constexpr ChaosKind kKinds[] = {
            ChaosKind::kGarbage, ChaosKind::kMidFrame,
            ChaosKind::kHalfClose, ChaosKind::kSlowByte};
        kind = kKinds[chaos_cursor++ % 4];
      }
      threads.emplace_back([&opt, &tallies, c, kind, step] {
        std::mt19937_64 rng(opt.seed + step * 1000 +
                            static_cast<std::uint64_t>(c));
        if (kind == ChaosKind::kNone) {
          run_normal_client(opt, rng, tallies[static_cast<std::size_t>(c)]);
        } else {
          run_chaos_client(opt, kind, rng,
                           tallies[static_cast<std::size_t>(c)]);
        }
        if (opt.verbose) {
          std::fprintf(stderr, "[slap] conn %d (%s) done\n", c,
                       chaos_name(kind));
        }
      });
    }
    for (auto& t : threads) t.join();
    Tally step_tally;
    for (const auto& t : tallies) step_tally.merge(t);
    std::printf(
        "[slap] step %zu: conns=%d sent=%ld ok=%ld error=%ld shed=%ld "
        "timeout=%ld no_response=%ld connect_failures=%ld chaos=%ld/%ld\n",
        step + 1, conns, step_tally.sent, step_tally.ok, step_tally.error,
        step_tally.shed, step_tally.timeout, step_tally.no_response,
        step_tally.connect_failures, step_tally.chaos_survived,
        step_tally.chaos_clients);
    total.merge(step_tally);
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_started)
          .count();
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  const long answered =
      total.ok + total.error + total.shed + total.timeout + total.other;
  std::printf("[slap] total: sent=%ld answered=%ld (ok=%ld error=%ld "
              "shed=%ld timeout=%ld other=%ld) no_response=%ld "
              "connect_failures=%ld chaos=%ld/%ld wall=%.2fs rps=%.0f\n",
              total.sent, answered, total.ok, total.error, total.shed,
              total.timeout, total.other, total.no_response,
              total.connect_failures, total.chaos_survived,
              total.chaos_clients, wall_s,
              wall_s > 0 ? static_cast<double>(answered) / wall_s : 0.0);
  if (!total.latencies_us.empty()) {
    std::printf("[slap] latency_us: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
                percentile(total.latencies_us, 0.50),
                percentile(total.latencies_us, 0.90),
                percentile(total.latencies_us, 0.99),
                total.latencies_us.back());
  }

  // Exit status: every normal request answered with a typed response.
  // Under --expect-drain a SIGTERM cut the run short on purpose, so
  // EOF-instead-of-answer on the tail is the contract, not a failure —
  // but the server must still have answered *something* overall.
  if (opt.expect_drain) {
    return answered > 0 ? 0 : 1;
  }
  if (total.no_response > 0 || total.connect_failures > 0) return 1;
  if (total.chaos_clients > 0 && total.chaos_survived < total.chaos_clients) {
    return 1;
  }
  return 0;
}
