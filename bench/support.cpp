#include "support.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>

#include "acic/common/error.hpp"
#include "acic/common/stats.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"

namespace acic::benchsup {

namespace {

constexpr std::uint64_t kMeasureSeed = 42;

/// Bench artifact directory.  ACIC_CACHE_DIR wins when set; the default
/// is an absolute path under the system temp directory — the old
/// cwd-relative "acic_bench_cache" sprayed a fresh cache into whatever
/// directory each bench happened to be launched from.
std::filesystem::path cache_dir() {
  static const std::filesystem::path dir = [] {
    std::filesystem::path d;
    if (const char* env = std::getenv("ACIC_CACHE_DIR"); env && *env) {
      d = std::filesystem::absolute(env);
    } else {
      d = std::filesystem::temp_directory_path() / "acic_bench_cache";
    }
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// The bench executor: the process-wide engine with its persistent tier
/// armed at the bench cache directory, so raw simulation results survive
/// across bench binaries (Executor::global() already armed it when the
/// user exported ACIC_CACHE_DIR; arm_store is idempotent).
exec::Executor& bench_executor() {
  static exec::Executor& engine = []() -> exec::Executor& {
    auto& e = exec::Executor::global();
    e.arm_store((cache_dir() / "runs").string());
    if (e.store_degraded()) {
      // The bench still runs — results just won't survive this process.
      std::fprintf(stderr,
                   "[bench] run store degraded to memo-only; raw runs will "
                   "not be shared across bench binaries\n");
    }
    return e;
  }();
  return engine;
}

io::RunOptions measure_opts(std::uint64_t salt) {
  io::RunOptions o;
  o.seed = kMeasureSeed ^ salt;
  return o;
}

std::uint64_t label_salt(const std::string& label) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string app_key(const std::string& app, int scale) {
  return app + "/" + std::to_string(scale);
}

Measurement measure(const apps::AppRun& run, const cloud::IoConfig& config) {
  // No by-label scan of the ground-truth table needed: the engine's
  // canonical key makes a repeated measurement a cache hit, including
  // the 9x56 grid warmed by ground_truth().
  const auto r = bench_executor().run(exec::RunRequest{
      run.workload, config, measure_opts(label_salt(config.label()))});
  return Measurement{config.label(), r.total_time, r.cost};
}

const std::map<std::string, std::vector<Measurement>>& ground_truth() {
  static std::map<std::string, std::vector<Measurement>> cache;
  static std::once_flag once;
  std::call_once(once, [] {
    // The old hand-rolled ground_truth.csv is gone: the 504-cell grid is
    // one deduplicating batch against the engine, and the persistent run
    // store under cache_dir() is what makes the second bench process
    // load instead of simulate.
    std::fprintf(stderr,
                 "[bench] measuring ground truth (9 app runs x 56 candidate"
                 " configs)...\n");
    const auto candidates = cloud::IoConfig::enumerate_candidates();
    std::vector<exec::RunRequest> requests;
    std::vector<std::pair<std::string, std::string>> cells;  // app, label
    for (const auto& run : apps::evaluation_suite()) {
      for (const auto& cfg : candidates) {
        requests.push_back(exec::RunRequest{
            run.workload, cfg, measure_opts(label_salt(cfg.label()))});
        cells.emplace_back(app_key(run.app, run.scale), cfg.label());
      }
    }
    const auto results = bench_executor().run_batch(requests);
    for (std::size_t i = 0; i < results.size(); ++i) {
      cache[cells[i].first].push_back(Measurement{
          cells[i].second, results[i].total_time, results[i].cost});
    }
  });
  return cache;
}

const core::PbRankingResult& pb_ranking() {
  static core::PbRankingResult result;
  static std::once_flag once;
  std::call_once(once, [] {
    // Armed first: the 32 runs go through the process-wide engine, so a
    // warm run store answers them without simulating.
    bench_executor();
    std::fprintf(stderr, "[bench] running PB screening (32 IOR runs)...\n");
    result = core::run_pb_ranking();
  });
  return result;
}

const core::TrainingDatabase& training_db(int top_dims,
                                          std::size_t max_samples,
                                          std::uint64_t seed) {
  static std::map<std::string, core::TrainingDatabase> dbs;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  const std::string key = std::to_string(top_dims) + "_" +
                          std::to_string(max_samples) + "_" +
                          std::to_string(seed);
  auto it = dbs.find(key);
  if (it != dbs.end()) return it->second;

  std::fprintf(stderr,
               "[bench] collecting training db (top %d dims, <=%zu "
               "samples)...\n",
               top_dims, max_samples);
  core::TrainingDatabase db;
  core::TrainingPlan plan;
  plan.dim_order = pb_ranking().importance;
  plan.top_dims = top_dims;
  plan.max_samples = max_samples;
  plan.seed = seed;
  plan.executor = &bench_executor();
  core::collect_training_data(db, plan);
  return dbs.emplace(key, std::move(db)).first->second;
}

const Measurement& find_measurement(const std::vector<Measurement>& ms,
                                    const std::string& label) {
  for (const auto& m : ms) {
    if (m.label == label) return m;
  }
  throw Error("no measurement for config " + label);
}

double median_time(const std::vector<Measurement>& ms) {
  std::vector<double> v;
  for (const auto& m : ms) v.push_back(m.time);
  return median_of(v);
}

double median_cost(const std::vector<Measurement>& ms) {
  std::vector<double> v;
  for (const auto& m : ms) v.push_back(m.cost);
  return median_of(v);
}

const Measurement& best_time(const std::vector<Measurement>& ms) {
  return *std::min_element(ms.begin(), ms.end(),
                           [](const Measurement& a, const Measurement& b) {
                             return a.time < b.time;
                           });
}

const Measurement& best_cost(const std::vector<Measurement>& ms) {
  return *std::min_element(ms.begin(), ms.end(),
                           [](const Measurement& a, const Measurement& b) {
                             return a.cost < b.cost;
                           });
}

const Measurement& baseline(const std::vector<Measurement>& ms) {
  return find_measurement(ms, cloud::IoConfig::baseline().label());
}

double value_of(const Measurement& m, core::Objective objective) {
  return objective == core::Objective::kPerformance ? m.time : m.cost;
}

Measurement measured_top_choice(const core::Acic& acic,
                                const apps::AppRun& run,
                                core::Objective objective) {
  const auto recs = acic.recommend(run.workload, 0);  // all, sorted
  ACIC_CHECK(!recs.empty());
  const double top = recs.front().predicted_improvement;
  std::vector<Measurement> champions;
  for (const auto& r : recs) {
    if (r.predicted_improvement < top - 1e-9) break;
    champions.push_back(measure(run, r.config));
  }
  std::sort(champions.begin(), champions.end(),
            [&](const Measurement& a, const Measurement& b) {
              return value_of(a, objective) < value_of(b, objective);
            });
  return champions[champions.size() / 2];
}

double best_measured_of_topk(const core::Acic& acic,
                             const apps::AppRun& run, std::size_t k,
                             core::Objective objective) {
  const auto recs = acic.recommend(run.workload, k);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& rec : recs) {
    best = std::min(best, value_of(measure(run, rec.config), objective));
  }
  return best;
}

}  // namespace acic::benchsup
