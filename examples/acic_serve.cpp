// ACIC query server — the production-shaped front end over
// acic::service::QueryService.  Two transports:
//
//  * stdin/stdout (default): protocol lines are read until EOF or
//    "quit"/"exit" and answered one at a time, in order — the
//    interactive and scripted front end ('help' lists the verbs).
//  * --listen host:port: the acic::net epoll front end — concurrent
//    framed requests over TCP with backpressure, idle deadlines,
//    bounded dispatch, and graceful drain (see src/acic/net/server.hpp).
//    Overload is shed there: --threads workers run requests, and a
//    request that finds the --net-queue work queue full gets a typed
//    "shed ..." frame.  bench/acic_slap is the matching load generator.
//
// With a CSV argument the service answers from that shared database
// (e.g. the acic_shared_db.csv that example_crowdsourced_training
// writes to the temp directory); without one it bootstraps a fresh
// database on the simulated cloud.  The database is fixed for the
// process lifetime: serving a new one means starting a new server.
//
// Usage:
//   example_acic_serve [training_db.csv] [--listen host:port]
//                      [--threads N] [--deadline-us X] [--idle-ms N]
//                      [--drain-ms N] [--max-conns N] [--net-queue N]
//                      [--learner NAME[,NAME...]] [--quick]
//                      [--demo] [--help]
//
// --deadline-us arms the per-request compute deadline ("timeout ..."
// responses); in --listen mode the clock starts when the frame arrives,
// so queue wait counts.  --quick skips PB screening (identity ranking)
// and, without a CSV, the training bootstrap (empty database → fallback
// answers), so smoke tests and the CI loopback job start in milliseconds
// instead of minutes; with a CSV the models still train on it.  --demo
// answers a mixed burst of concurrent requests across --threads workers.
// Numeric flags fail closed: a malformed, negative or out-of-range value
// exits 1 with an error naming the flag, before any screening runs.
//
// Signals: SIGPIPE is ignored (a dead peer must not kill the server);
// SIGINT/SIGTERM route into the drain path — in --listen mode the
// listener closes, in-flight requests finish under the drain deadline,
// and the process exits 0; in stdin mode the blocking read is
// interrupted and the process exits 0.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/parallel.hpp"
#include "acic/core/ranking.hpp"
#include "acic/net/server.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/service/query_service.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: example_acic_serve [training_db.csv] [--listen host:port]\n"
      "                          [--threads N] [--deadline-us X]\n"
      "                          [--idle-ms N] [--drain-ms N]\n"
      "                          [--max-conns N] [--net-queue N]\n"
      "                          [--learner NAME[,NAME...]]\n"
      "                          [--quick] [--demo] [--help]\n"
      "  Answers the line-oriented ACIC query protocol from stdin, one\n"
      "  line at a time; 'help' on the stream lists the protocol verbs.\n"
      "  --listen host:port  concurrent framed-TCP front end instead\n"
      "  --threads N       net workers / --demo threads (0 = hardware)\n"
      "  --deadline-us X   per-request deadline incl. queue wait (0 = off)\n"
      "  --idle-ms N       net: idle/slow-loris/write-stall deadline\n"
      "  --drain-ms N      net: drain budget after SIGTERM/SIGINT\n"
      "  --max-conns N     net: connection cap\n"
      "  --net-queue N     net: work queue depth; a request that finds\n"
      "                    it full is answered with a typed shed\n"
      "  --learner NAMES   learner plugin(s) to train, comma-separated;\n"
      "                    the first is the primary (default: cart)\n"
      "  --quick           no PB screening; without a CSV no training\n"
      "                    either (fallback mode)\n"
      "  SIGINT/SIGTERM drain gracefully and exit 0 in both modes.\n"
      "\n"
      "registered plugins:\n");
  for (const auto& info : acic::plugin::inventory()) {
    std::printf("  %s %s\n", acic::plugin::to_string(info.kind),
                info.name.c_str());
  }
}

// Signal routing: handlers may only touch async-signal-safe state.  In
// --listen mode they forward into Server::request_drain() (an atomic
// store plus send() on the wake socketpair); in stdin mode the unblocked
// read returns EINTR and std::getline fails, ending the read loop.
std::sig_atomic_t g_stop_requested = 0;
acic::net::Server* g_server = nullptr;

void handle_stop_signal(int) {
  g_stop_requested = 1;
  if (g_server != nullptr) g_server->request_drain();
}

void install_signal_handlers() {
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the stdin read must return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// --quick: a do-nothing ranking (identity importance, zero effects) so
/// the service starts without running the PB screening simulations.
acic::core::PbRankingResult identity_ranking() {
  acic::core::PbRankingResult r;
  for (int d = 0; d < acic::core::kNumDims; ++d) {
    r.importance.push_back(d);
    r.rank_of_each.push_back(d + 1);
    r.effects.push_back(0.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acic;

  std::string db_path;
  bool listen = false;
  unsigned threads = 0;  // hardware concurrency
  bool demo = false;
  bool quick = false;
  service::ServiceOptions service_options;
  net::ServerOptions net_options;
  constexpr auto kMaxMs =
      static_cast<std::size_t>(std::numeric_limits<long>::max());
  using service::parse_count;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "--demo") {
        demo = true;
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--listen") {
        const std::string spec = value();
        const auto colon = spec.rfind(':');
        if (colon == std::string::npos) {
          throw Error("--listen expects host:port, got '" + spec + "'");
        }
        net_options.host = spec.substr(0, colon);
        net_options.port = static_cast<std::uint16_t>(
            parse_count("--listen port", spec.substr(colon + 1), 65535));
        listen = true;
      } else if (arg == "--threads") {
        // Beyond this a worker count is a typo, not a machine.
        threads = static_cast<unsigned>(parse_count(arg, value(), 1024));
      } else if (arg == "--deadline-us") {
        service_options.deadline_us =
            service::parse_nonneg_double(arg, value());
      } else if (arg == "--idle-ms") {
        net_options.idle_timeout_ms =
            static_cast<long>(parse_count(arg, value(), kMaxMs));
      } else if (arg == "--drain-ms") {
        net_options.drain_timeout_ms =
            static_cast<long>(parse_count(arg, value(), kMaxMs));
      } else if (arg == "--max-conns") {
        net_options.max_connections = parse_count(arg, value());
      } else if (arg == "--net-queue") {
        net_options.max_queue_depth = parse_count(arg, value());
      } else if (arg == "--learner") {
        service_options.learners.clear();
        const std::string names = value();
        std::size_t start = 0;
        while (start <= names.size()) {
          const std::size_t comma = names.find(',', start);
          const std::string name = names.substr(
              start,
              comma == std::string::npos ? std::string::npos : comma - start);
          if (!name.empty()) service_options.learners.push_back(name);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        if (service_options.learners.empty()) {
          throw Error("--learner needs at least one name");
        }
      } else if (arg.rfind("--", 0) == 0) {
        throw Error("unknown flag " + arg + " (try --help)");
      } else {
        db_path = arg;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  net_options.workers = threads;

  install_signal_handlers();

  core::PbRankingResult ranking;
  if (quick) {
    std::fprintf(stderr, "[serve] --quick: identity ranking, no PB run\n");
    ranking = identity_ranking();
  } else {
    std::fprintf(stderr, "[serve] PB screening...\n");
    ranking = core::run_pb_ranking();
  }

  core::TrainingDatabase db;
  if (!db_path.empty()) {
    try {
      db = core::TrainingDatabase::load(db_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", db_path.c_str(), e.what());
      return 1;
    }
    std::fprintf(stderr, "[serve] loaded %zu shared samples from %s\n",
                 db.size(), db_path.c_str());
  } else if (quick) {
    std::fprintf(stderr,
                 "[serve] --quick: empty database (fallback answers)\n");
  } else {
    std::fprintf(stderr, "[serve] bootstrapping training database...\n");
    core::TrainingPlan plan;
    plan.dim_order = ranking.importance;
    plan.top_dims = 12;
    plan.max_samples = 300;
    core::collect_training_data(db, plan);
  }

  std::fprintf(stderr, "[serve] training models (%s)...\n",
               [&] {
                 std::string names;
                 for (const auto& n : service_options.learners) {
                   if (!names.empty()) names += ",";
                   names += n;
                 }
                 return names;
               }()
                   .c_str());
  std::optional<service::QueryService> service;
  try {
    service.emplace(std::move(db), std::move(ranking), service_options);
  } catch (const std::exception& e) {
    // e.g. a --learner typo: the registry's error lists what exists.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (demo) {
    // A mixed burst of concurrent clients: the same requests a load
    // balancer would fan in, answered across `threads` workers.
    const std::vector<std::string> burst = {
        "recommend objective=performance top_k=3 np=256 io_procs=256 "
        "interface=MPI-IO iterations=40 data=4MiB request=4MiB op=write "
        "collective=yes shared=yes",
        "recommend objective=cost top_k=2 np=64 io_procs=64 "
        "interface=POSIX iterations=1 data=1344MiB request=1MiB op=read "
        "shared=no",
        "predict config=pvfs.4.D.eph.4M np=64 io_procs=64 "
        "interface=MPI-IO iterations=2 data=256MiB request=64MiB "
        "op=read+write shared=yes",
        "rank top=5",
    };
    std::vector<std::string> requests;
    for (int repeat = 0; repeat < 8; ++repeat) {
      requests.insert(requests.end(), burst.begin(), burst.end());
    }
    std::vector<std::string> responses(requests.size());
    parallel_for(
        requests.size(),
        [&](std::size_t i) { responses[i] = service->handle(requests[i]); },
        threads);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      std::printf("> %s\n%s", requests[i].c_str(), responses[i].c_str());
    }
    std::printf("> stats\n%s", service->handle("stats").c_str());
    return 0;
  }

  if (listen) {
    try {
      net::Server server(net_options, [&service](const net::Request& req) {
        return service->handle(req.line, req.received_at);
      });
      g_server = &server;
      if (g_stop_requested) server.request_drain();  // signal beat us here
      std::fprintf(stderr, "[serve] listening on %s:%u (framed protocol)\n",
                   net_options.host.c_str(), server.port());
      server.run();
      g_server = nullptr;
      std::fprintf(stderr, "[serve] drained; final metrics:\n%s",
                   obs::MetricsRegistry::global()
                       .snapshot()
                       .to_text("  ")
                       .c_str());
    } catch (const std::exception& e) {
      g_server = nullptr;
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "[serve] ready — protocol lines on stdin.\n");
  std::size_t served = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    std::cout << service->handle(line) << std::flush;
    ++served;
  }
  if (g_stop_requested) {
    std::fprintf(stderr, "[serve] stop signal: stopped reading stdin.\n");
  }
  std::fprintf(stderr, "[serve] served %zu requests; final metrics:\n%s",
               served,
               obs::MetricsRegistry::global().snapshot().to_text("  ").c_str());
  return 0;
}
