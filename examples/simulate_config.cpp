// What-if runner: execute one of the evaluation applications under any
// candidate configuration on the simulated cloud and print the outcome —
// the "try before you buy" companion to the recommender.
//
// Usage:
//   example_simulate_config [app] [np] [config-label] [options]
//     app           BTIO | FLASHIO | mpiBLAST | MADbench2   (default BTIO)
//     np            process count / scale                    (default 64)
//     config-label  e.g. pvfs.4.D.eph.4M, nfs.P.ebs; "all" sweeps every
//                   candidate                                (default all)
//   options:
//     --detailed-pricing   include EBS volume-hour + per-I/O charges
//     --chaos=NAME         start from a registered fault-model preset
//                          (none, outages, brownouts, stragglers,
//                          lossy-az, spot-preempt); later flags override
//     --failures=R         transient outages per hour (default 0)
//     --brownouts=R        brownouts per hour (default 0)
//     --brownout-fraction=F  remaining capacity during a brownout (0.2)
//     --stragglers=R       slow-disk windows per hour (default 0)
//     --straggler-factor=F remaining device speed of a straggler (0.35)
//     --correlated=P       probability an outage hits every server (0)
//     --permanent=P        probability an outage is a permanent loss (0)
//     --retry              arm client deadlines + retry/backoff
//     --timeout=S          per-request deadline, sim seconds (20)
//     --attempts=N         retry budget per request (4)
//     --watchdog=S         job watchdog, sim seconds (auto when faulted)
//     --seed=N             chaos seed (default 1); same seed = same run
//     --ssd                include SSD configurations in the sweep
//     --jobs=N             host threads for the sweep (default: hardware)
//     --no-cache           bypass the run cache (every row re-simulated)
//   A malformed or negative value, an unknown preset or an unknown flag
//   exits 1 with an error naming it, before any simulation runs.
//
// The sweep goes through the execution engine: set ACIC_CACHE_DIR to
// persist results and a re-run answers from cache instead of
// re-simulating.  Cache statistics are printed to stderr so stdout
// stays byte-comparable between cold and warm runs.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/service/query_service.hpp"

namespace {

using namespace acic;

io::Workload app_by_name(const std::string& name, int np) {
  if (name == "BTIO") return apps::btio(np);
  if (name == "FLASHIO") return apps::flashio(np);
  if (name == "mpiBLAST") return apps::mpiblast(np);
  if (name == "MADbench2") return apps::madbench2(np);
  throw Error("unknown application '" + name +
              "' (BTIO, FLASHIO, mpiBLAST, MADbench2)");
}

void print_exec_stats() {
  auto& reg = obs::MetricsRegistry::global();
  std::fprintf(stderr,
               "[exec] runs_executed=%.0f cache_hits=%.0f memo_hits=%.0f "
               "store_hits=%.0f dedup_collapsed=%.0f coalesced_waits=%.0f "
               "uncacheable=%.0f store_degraded=%.0f\n",
               reg.counter("exec.runs_executed").value(),
               reg.counter("exec.cache_hits").value(),
               reg.counter("exec.memo_hits").value(),
               reg.counter("exec.store_hits").value(),
               reg.counter("exec.dedup_collapsed").value(),
               reg.counter("exec.coalesced_waits").value(),
               reg.counter("exec.uncacheable_runs").value(),
               reg.gauge("exec.store.degraded").value());
  if (reg.gauge("exec.store.degraded").value() != 0.0) {
    std::fprintf(stderr,
                 "[exec] warning: run store degraded to memo-only — this "
                 "sweep's results will not persist to ACIC_CACHE_DIR\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acic;
  try {
    std::string app = "BTIO", label = "all";
    int np = 64;
    io::RunOptions opts;
    bool ssd = false;
    bool no_cache = false;
    unsigned jobs = 0;
    int positional = 0;
    constexpr auto kMaxInt =
        static_cast<std::size_t>(std::numeric_limits<int>::max());
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // "--name=value": the value is parsed strictly, and any error
      // names the flag.
      const auto eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      const std::string text =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      const auto rate = [&] {
        return service::parse_nonneg_double(flag, text);
      };
      const auto count = [&](std::size_t max) {
        return service::parse_count(flag, text, max);
      };
      if (arg == "--detailed-pricing") {
        opts.detailed_pricing = cloud::DetailedPricing{};
      } else if (flag == "--chaos") {
        // Whole-model preset from the table; an unknown name throws a
        // PluginError listing the registered presets.  Field flags
        // after this one still override individual knobs.
        opts.fault_model = plugin::fault_models().lookup(text).model;
      } else if (flag == "--failures") {
        opts.fault_model.outages_per_hour = rate();
      } else if (flag == "--brownouts") {
        opts.fault_model.brownouts_per_hour = rate();
      } else if (flag == "--brownout-fraction") {
        opts.fault_model.brownout_fraction = rate();
      } else if (flag == "--stragglers") {
        opts.fault_model.stragglers_per_hour = rate();
      } else if (flag == "--straggler-factor") {
        opts.fault_model.straggler_factor = rate();
      } else if (flag == "--correlated") {
        opts.fault_model.correlated_outage_probability = rate();
      } else if (flag == "--permanent") {
        opts.fault_model.permanent_loss_probability = rate();
      } else if (arg == "--retry") {
        opts.tuning.retry.enabled = true;
      } else if (flag == "--timeout") {
        opts.tuning.retry.request_timeout = rate();
      } else if (flag == "--attempts") {
        opts.tuning.retry.max_attempts = static_cast<int>(count(kMaxInt));
      } else if (flag == "--watchdog") {
        opts.watchdog_sim_time = rate();
      } else if (flag == "--seed") {
        opts.seed = count(std::numeric_limits<std::size_t>::max());
      } else if (arg == "--ssd") {
        ssd = true;
      } else if (flag == "--jobs") {
        jobs = static_cast<unsigned>(
            count(std::numeric_limits<unsigned>::max()));
      } else if (arg == "--no-cache") {
        no_cache = true;
      } else if (arg.rfind("--", 0) == 0) {
        throw Error("unknown flag " + arg);
      } else if (positional == 0) {
        app = arg;
        ++positional;
      } else if (positional == 1) {
        np = static_cast<int>(service::parse_count("np", arg, kMaxInt));
        ++positional;
      } else {
        label = arg;
        ++positional;
      }
    }

    const auto w = app_by_name(app, np);
    auto candidates = ssd ? cloud::IoConfig::enumerate_candidates_with_ssd()
                          : cloud::IoConfig::enumerate_candidates();
    if (label != "all") {
      std::vector<cloud::IoConfig> picked;
      for (const auto& c : candidates) {
        if (c.label() == label) picked.push_back(c);
      }
      if (picked.empty()) throw Error("unknown config label: " + label);
      candidates = picked;
    }

    const bool chaos = opts.fault_model.any() || opts.tuning.retry.enabled;
    std::vector<std::string> columns = {"config", "time", "cost", "I/O time",
                                        "instances", "fs requests"};
    if (chaos) {
      columns.push_back("outcome");
      columns.push_back("retries");
    }
    // The whole sweep is one deduplicating batch against the engine;
    // --no-cache swaps in a pass-through executor (fresh simulations,
    // nothing recorded), --jobs bounds the fan-out.
    exec::ExecutorOptions pass_through;
    pass_through.cache = false;
    exec::Executor uncached(std::move(pass_through));
    exec::Executor& engine =
        no_cache ? uncached : exec::Executor::global();
    std::vector<exec::RunRequest> requests;
    requests.reserve(candidates.size());
    for (const auto& cfg : candidates) {
      requests.push_back(exec::RunRequest{w, cfg, opts});
    }
    const auto results = engine.run_batch(requests, jobs, nullptr);

    TextTable t(columns);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto& r = results[i];
      std::vector<std::string> row = {
          candidates[i].label(), format_time(r.total_time),
          format_money(r.cost), format_time(r.io_time),
          std::to_string(r.num_instances), std::to_string(r.fs_requests)};
      if (chaos) {
        row.push_back(io::to_string(r.outcome));
        row.push_back(std::to_string(r.retries));
      }
      t.add_row(row);
    }
    std::printf("%s np=%d on the simulated cloud (%zu configuration%s)\n\n",
                app.c_str(), np, candidates.size(),
                candidates.size() == 1 ? "" : "s");
    std::printf("%s", t.to_string().c_str());
    print_exec_stats();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
