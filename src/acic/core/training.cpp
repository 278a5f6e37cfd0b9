#include "acic/core/training.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <type_traits>

#include "acic/common/error.hpp"
#include "acic/common/mutex.hpp"
#include "acic/common/parallel.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/stats.hpp"
#include "acic/ior/ior.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::core {

const char* to_string(Objective o) {
  return o == Objective::kPerformance ? "performance" : "cost";
}

void TrainingDatabase::insert(TrainingSample sample) {
  // Reject corrupt measurements at the door: a zero or negative time/cost
  // (e.g. a mangled CSV row) would yield an inf/negative improvement
  // label and silently poison every model trained from the database.
  ACIC_CHECK_MSG(std::isfinite(sample.time) && sample.time > 0.0 &&
                     std::isfinite(sample.cost) && sample.cost > 0.0,
                 "training sample has non-positive measurement: time="
                     << sample.time << " cost=" << sample.cost);
  ACIC_CHECK_MSG(std::isfinite(sample.baseline_time) &&
                     sample.baseline_time > 0.0 &&
                     std::isfinite(sample.baseline_cost) &&
                     sample.baseline_cost > 0.0,
                 "training sample has non-positive baseline: baseline_time="
                     << sample.baseline_time
                     << " baseline_cost=" << sample.baseline_cost);
  sample.sequence = next_sequence_++;
  samples_.push_back(sample);
}

void TrainingDatabase::age_out(std::size_t keep_latest) {
  if (samples_.size() <= keep_latest) return;
  samples_.erase(samples_.begin(),
                 samples_.end() - static_cast<std::ptrdiff_t>(keep_latest));
}

ml::Dataset TrainingDatabase::to_dataset(Objective objective) const {
  ml::Dataset data;
  data.x.reserve(samples_.size());
  data.y.reserve(samples_.size());
  for (const auto& s : samples_) {
    data.add(std::vector<double>(s.point.begin(), s.point.end()),
             s.improvement(objective));
  }
  return data;
}

namespace {

/// The training CSV's one layout: the 15 dimension names, the four
/// measurements, then sequence and the three provenance columns.
std::vector<std::string> csv_header() {
  std::vector<std::string> header;
  for (const auto& d : ParamSpace::dimensions()) {
    std::string name = d.name;
    std::replace(name.begin(), name.end(), ' ', '_');
    header.push_back(name);
  }
  header.insert(header.end(),
                {"time", "cost", "baseline_time", "baseline_cost",
                 "sequence", "repeats", "rejected", "retries"});
  return header;
}

/// Parses one whole CSV cell.  std::stod/std::stoi stop at the first bad
/// character, so "50junk" would load as 50 and a repeats cell "3.9" as 3;
/// a cell is corrupt unless the number spans all of it.  std::from_chars
/// also accepts "nan" and "inf", which no sampled point or measurement
/// can be.
template <typename T>
T parse_cell(const CsvTable& table, std::size_t row_number, std::size_t col) {
  const std::string& cell = table.rows[row_number - 1][col];
  const char* end = cell.data() + cell.size();
  T value{};
  const auto [stop, error] = std::from_chars(cell.data(), end, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (error != std::errc() || stop != end || !finite) {
    throw Error("training CSV row " + std::to_string(row_number) +
                " has a malformed numeric field '" + cell + "' in column '" +
                table.header[col] + "'");
  }
  return value;
}

}  // namespace

CsvTable TrainingDatabase::to_csv() const {
  CsvTable t;
  t.header = csv_header();
  for (const auto& s : samples_) {
    std::vector<std::string> row;
    char buf[64];
    for (double v : s.point) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      row.emplace_back(buf);
    }
    for (double v : {s.time, s.cost, s.baseline_time, s.baseline_cost}) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      row.emplace_back(buf);
    }
    row.push_back(std::to_string(s.sequence));
    row.push_back(std::to_string(s.repeats));
    row.push_back(std::to_string(s.rejected));
    row.push_back(std::to_string(s.retries));
    t.rows.push_back(std::move(row));
  }
  return t;
}

TrainingDatabase TrainingDatabase::from_csv(const CsvTable& table) {
  // The header must be exactly the one to_csv() writes: a file whose
  // columns are missing, reordered or renamed would otherwise load its
  // values into the wrong fields.
  const std::vector<std::string> expected = csv_header();
  ACIC_CHECK_MSG(table.header == expected,
                 "training CSV header does not match the "
                     << expected.size() << "-column layout");
  TrainingDatabase db;
  for (std::size_t r = 1; r <= table.rows.size(); ++r) {
    ACIC_CHECK_MSG(table.rows[r - 1].size() == expected.size(),
                   "training CSV row " << r << " has the wrong arity");
    const auto dims = static_cast<std::size_t>(kNumDims);
    TrainingSample s;
    for (std::size_t d = 0; d < dims; ++d) {
      s.point[d] = parse_cell<double>(table, r, d);
    }
    s.time = parse_cell<double>(table, r, dims + 0);
    s.cost = parse_cell<double>(table, r, dims + 1);
    s.baseline_time = parse_cell<double>(table, r, dims + 2);
    s.baseline_cost = parse_cell<double>(table, r, dims + 3);
    parse_cell<std::uint64_t>(table, r, dims + 4);  // insert() renumbers
    s.repeats = parse_cell<int>(table, r, dims + 5);
    s.rejected = parse_cell<int>(table, r, dims + 6);
    s.retries = parse_cell<int>(table, r, dims + 7);
    db.insert(s);  // rejects non-positive measurements (see above)
  }
  return db;
}

void TrainingDatabase::save(const std::string& path) const {
  write_csv_file(path, to_csv());
}

TrainingDatabase TrainingDatabase::load(const std::string& path) {
  return from_csv(read_csv_file(path));
}

Point default_point() {
  Point p{};
  p[kDevice] = 0;        // EBS
  p[kFileSystem] = 0;    // NFS
  p[kInstanceType] = 1;  // cc2.8xlarge
  p[kIoServers] = 1;
  p[kPlacement] = 1;  // dedicated
  p[kStripeSize] = 0;
  p[kNumProcs] = 64;
  p[kNumIoProcs] = 64;
  p[kInterface] = 1;  // MPI-IO
  p[kIterations] = 10;
  p[kDataSize] = 16.0 * MiB;
  p[kRequestSize] = 4.0 * MiB;
  p[kOpType] = 1;  // write
  p[kCollective] = 0;
  p[kFileSharing] = 1;
  return ParamSpace::repaired(p);
}

namespace {

/// Deterministic key for caching baseline runs per distinct workload.
std::string workload_key(const Point& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%g|%g|%g|%g|%g|%g|%g|%g|%g",
                p[kNumProcs], p[kNumIoProcs], p[kInterface], p[kIterations],
                p[kDataSize], p[kRequestSize], p[kOpType], p[kCollective],
                p[kFileSharing]);
  return buf;
}

std::string point_key(const Point& p) {
  std::string key;
  char buf[32];
  for (double v : p) {
    std::snprintf(buf, sizeof(buf), "%g|", v);
    key += buf;
  }
  return key;
}

/// One fault-tolerant measurement: up to `max_attempts` runs per repeat
/// (failed outcomes retried on a perturbed seed), MAD-based outlier
/// rejection across the surviving repeats, median of what is left.
struct Measurement {
  double time = 0.0;
  double cost = 0.0;
  int repeats = 0;   ///< successful repeats that produced the medians
  int rejected = 0;  ///< repeats dropped by the outlier cut
  int retries = 0;   ///< failed attempts that were retried
  bool ok = false;   ///< false = every repeat failed (quarantine)
};

Measurement measure_point(const io::Workload& workload,
                          const cloud::IoConfig& config,
                          std::uint64_t base_seed, const TrainingPlan& plan,
                          TrainingStats& stats, Mutex& stats_mutex) {
  const SweepResilience& res = plan.resilience;
  const int repeats = std::max(1, res.repeats);
  const int attempts = std::max(1, res.max_attempts);

  Measurement m;
  std::vector<double> times;
  std::vector<double> costs;
  times.reserve(static_cast<std::size_t>(repeats));
  costs.reserve(static_cast<std::size_t>(repeats));
  for (int k = 0; k < repeats; ++k) {
    for (int a = 0; a < attempts; ++a) {
      io::RunOptions opts;
      // Repeat 0 / attempt 0 reproduces the legacy single-shot seed
      // exactly (the XOR terms vanish), so default plans stay
      // bit-identical with pre-resilience sweeps.
      opts.seed = base_seed ^
                  (static_cast<std::uint64_t>(k) * 0x7f4a7c15ULL) ^
                  (static_cast<std::uint64_t>(a) * 0xc2b2ae35ULL);
      opts.jitter_sigma = plan.jitter_sigma;
      opts.fault_model = res.fault_model;
      opts.tuning.retry = res.retry;
      opts.watchdog_sim_time = res.watchdog_sim_time;
      const auto r = ior::run_ior(workload, config, opts, plan.executor);
      const bool failed = r.outcome == io::RunOutcome::kFailed;
      const bool will_retry = failed && a + 1 < attempts;
      {
        MutexLock lock(&stats_mutex);
        ++stats.runs;
        stats.simulated_hours += r.total_time / kHour;
        stats.money += r.cost;
        if (failed) ++stats.failed_runs;
        if (will_retry) ++stats.retried_runs;
      }
      if (!failed) {
        times.push_back(r.total_time);
        costs.push_back(r.cost);
        break;
      }
      if (will_retry) ++m.retries;
    }
  }
  if (times.empty()) return m;  // ok stays false: quarantine

  const auto filter = reject_outliers(times, res.outlier_mad_threshold);
  std::vector<double> kept_times;
  std::vector<double> kept_costs;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (!filter.keep[i]) continue;
    kept_times.push_back(times[i]);
    kept_costs.push_back(costs[i]);
  }
  m.time = median_of(kept_times);
  m.cost = median_of(kept_costs);
  m.repeats = static_cast<int>(kept_times.size());
  m.rejected = static_cast<int>(filter.rejected);
  m.ok = true;
  if (filter.rejected > 0) {
    MutexLock lock(&stats_mutex);
    stats.rejected_outliers += filter.rejected;
  }
  return m;
}

}  // namespace

TrainingStats collect_training_data(TrainingDatabase& db,
                                    const TrainingPlan& plan) {
  ACIC_CHECK(plan.top_dims >= 1 &&
             plan.top_dims <= static_cast<int>(plan.dim_order.size()));

  const std::vector<int> explored = explored_dims(
      plan.dim_order, plan.top_dims, plan.always_explore_system_dims);

  // Enumerate (or sub-sample) the cartesian product of explored dims.
  const auto* overrides =
      plan.value_overrides.entries.empty() ? nullptr : &plan.value_overrides;
  std::vector<std::size_t> radix;
  double product = 1.0;
  for (int d : explored) {
    const auto& values =
        ParamSpace::values_of(static_cast<Dim>(d), overrides);
    radix.push_back(values.size());
    product *= static_cast<double>(values.size());
  }

  Rng rng(plan.seed);
  std::set<std::string> seen;
  std::vector<Point> points;
  auto add_combo = [&](double combo_index) {
    Point p = default_point();
    double idx = combo_index;
    for (std::size_t i = 0; i < explored.size(); ++i) {
      const auto& values =
          ParamSpace::values_of(static_cast<Dim>(explored[i]), overrides);
      const std::size_t v =
          static_cast<std::size_t>(std::fmod(idx, radix[i]));
      idx = std::floor(idx / static_cast<double>(radix[i]));
      p[explored[i]] = values[v];
    }
    p = ParamSpace::repaired(p, overrides);
    if (seen.insert(point_key(p)).second) points.push_back(p);
  };

  if (product <= static_cast<double>(plan.max_samples)) {
    for (double c = 0; c < product; c += 1.0) add_combo(c);
  } else {
    // Uniform sub-sampling of the product (the paper's sparse-sampling
    // bootstrap); repair-dedup may return slightly fewer points.
    std::size_t attempts = 0;
    const std::size_t max_attempts = plan.max_samples * 40;
    while (points.size() < plan.max_samples && attempts++ < max_attempts) {
      add_combo(std::floor(rng.uniform() * product));
    }
  }

  // Baseline runs: one per distinct workload half.
  std::map<std::string, std::pair<double, double>> baselines;
  std::vector<Point> baseline_points;
  for (const auto& p : points) {
    const auto key = workload_key(p);
    if (!baselines.count(key)) {
      baselines[key] = {0.0, 0.0};
      baseline_points.push_back(p);
    }
  }

  TrainingStats stats;
  Mutex stats_mutex;
  const auto baseline_cfg = cloud::IoConfig::baseline();

  const auto quarantine = [&](const Point& p) {
    MutexLock lock(&stats_mutex);
    ++stats.quarantined;
    stats.quarantined_labels.push_back(ParamSpace::config_of(p).label() +
                                       "|" + workload_key(p));
  };

  parallel_for(
      baseline_points.size(),
      [&](std::size_t i) {
        const Point& p = baseline_points[i];
        const auto m =
            measure_point(ParamSpace::workload_of(p), baseline_cfg,
                          plan.seed ^ 0xb5e11eULL ^ i, plan, stats,
                          stats_mutex);
        if (!m.ok) {
          // An unmeasurable baseline poisons every point that shares the
          // workload: leave the (0, 0) placeholder and quarantine them
          // below rather than divide by a failed measurement.
          return;
        }
        MutexLock lock(&stats_mutex);
        baselines[workload_key(p)] = {m.time, m.cost};
      },
      plan.threads);

  std::vector<TrainingSample> collected(points.size());
  parallel_for(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        const auto m = measure_point(
            ParamSpace::workload_of(p), ParamSpace::config_of(p),
            plan.seed ^ (i * 0x9e3779b9ULL + 17), plan, stats, stats_mutex);
        if (!m.ok) {
          quarantine(p);
          return;  // collected[i].time stays 0: skipped at insert below
        }
        TrainingSample s;
        s.point = p;
        s.time = m.time;
        s.cost = m.cost;
        s.repeats = m.repeats;
        s.rejected = m.rejected;
        s.retries = m.retries;
        collected[i] = s;
      },
      plan.threads);

  std::size_t inserted = 0;
  for (auto& s : collected) {
    if (s.time <= 0.0) continue;  // quarantined point
    const auto& base = baselines.at(workload_key(s.point));
    if (base.first <= 0.0) {
      // Baseline itself was quarantined; the relative label is undefined.
      quarantine(s.point);
      continue;
    }
    s.baseline_time = base.first;
    s.baseline_cost = base.second;
    db.insert(s);
    ++inserted;
  }

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("training.sweeps").inc();
  registry.counter("training.runs").add(static_cast<double>(stats.runs));
  registry.counter("training.simulated_hours").add(stats.simulated_hours);
  registry.counter("training.samples").add(static_cast<double>(inserted));
  if (stats.retried_runs > 0) {
    registry.counter("training.retried_runs")
        .add(static_cast<double>(stats.retried_runs));
  }
  if (stats.failed_runs > 0) {
    registry.counter("training.failed_runs")
        .add(static_cast<double>(stats.failed_runs));
  }
  if (stats.rejected_outliers > 0) {
    registry.counter("training.rejected_outliers")
        .add(static_cast<double>(stats.rejected_outliers));
  }
  if (stats.quarantined > 0) {
    registry.counter("training.quarantined")
        .add(static_cast<double>(stats.quarantined));
  }
  return stats;
}

std::vector<int> explored_dims(const std::vector<int>& dim_order,
                               int top_dims,
                               bool always_explore_system_dims) {
  ACIC_CHECK(top_dims >= 1 &&
             top_dims <= static_cast<int>(dim_order.size()));
  std::vector<int> explored;
  if (always_explore_system_dims) {
    for (const auto& d : ParamSpace::dimensions()) {
      if (d.is_system) explored.push_back(d.dim);
    }
    ACIC_CHECK_MSG(top_dims >= static_cast<int>(explored.size()),
                   "top_dims must cover at least the system dimensions");
    for (int d : dim_order) {
      if (static_cast<int>(explored.size()) >= top_dims) break;
      if (std::find(explored.begin(), explored.end(), d) == explored.end()) {
        explored.push_back(d);
      }
    }
  } else {
    explored.assign(dim_order.begin(), dim_order.begin() + top_dims);
  }
  return explored;
}

double enumeration_size(const std::vector<int>& dim_order, int top_dims) {
  double n = 1.0;
  for (int d : explored_dims(dim_order, top_dims)) {
    n *= static_cast<double>(
        ParamSpace::dimension(static_cast<Dim>(d)).values.size());
  }
  return n;
}

Money full_training_cost(const std::vector<int>& dim_order, int top_dims,
                         Money avg_run_cost) {
  return enumeration_size(dim_order, top_dims) * avg_run_cost;
}

}  // namespace acic::core
