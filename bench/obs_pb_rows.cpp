// Per-row cost of the §4.1 Plackett–Burman screening: runs the 32
// foldover rows one at a time on one thread, exactly as
// core::run_pb_ranking() spells them (core::pb_screening_runs, seed 1),
// and prints for each row its configuration label, np, wall seconds,
// simulated events, nanoseconds per event and how many flow-network
// solves it made, and how many of those ran progressive filling.  The
// screening is as long as its slowest row, so this is where its time
// goes.  Every row is simulated: the rows run through a local executor
// with its cache tiers off, so a run store armed from ACIC_CACHE_DIR is
// neither read nor written.
//
//   obs_pb_rows        all 32 rows, then a total line
//   obs_pb_rows 28     row 28 only
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "acic/core/ranking.hpp"
#include "acic/exec/executor.hpp"
#include "acic/ior/ior.hpp"
#include "acic/obs/metrics.hpp"

namespace {

using namespace acic;

double counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

int main(int argc, char** argv) {
  const auto runs = core::pb_screening_runs();
  long only = -1;
  if (argc > 1) {
    char* end = nullptr;
    only = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || only < 0 ||
        only >= static_cast<long>(runs.size())) {
      std::fprintf(stderr, "usage: %s [row 0-%zu]\n", argv[0],
                   runs.size() - 1);
      return 2;
    }
  }

  exec::ExecutorOptions pass_through;
  pass_through.cache = false;
  exec::Executor engine(pass_through);

  std::printf("%-4s %-22s %5s %9s %11s %8s %10s %11s\n", "row", "config",
              "np", "wall_s", "sim_events", "ns/event", "solves",
              "full_solves");
  double wall = 0.0;
  double events = 0.0;
  double solves = 0.0;
  double full_solves = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (only >= 0 && i != static_cast<std::size_t>(only)) continue;
    const core::PbRun& run = runs[i];
    const double solves_before = counter("sim.flow.solves");
    const double full_before = counter("sim.flow.full_solves");
    const auto start = std::chrono::steady_clock::now();
    const io::RunResult r = ior::run_ior(run.workload, run.config,
                                         run.options, &engine);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double row_solves = counter("sim.flow.solves") - solves_before;
    const double row_full = counter("sim.flow.full_solves") - full_before;
    const double row_events = static_cast<double>(r.sim_events);
    std::printf("%-4zu %-22s %5d %9.3f %11.0f %8.0f %10.0f %11.0f\n", i,
                run.config.label().c_str(), run.workload.num_processes,
                seconds, row_events,
                row_events > 0.0 ? seconds * 1e9 / row_events : 0.0,
                row_solves, row_full);
    wall += seconds;
    events += row_events;
    solves += row_solves;
    full_solves += row_full;
  }
  std::printf("%-4s %-22s %5s %9.3f %11.0f %8.0f %10.0f %11.0f\n", "total",
              "", "", wall, events, events > 0.0 ? wall * 1e9 / events : 0.0,
              solves, full_solves);
  return 0;
}
