// Training-data collection and the crowdsourced training database
// (§2, §4.1): IOR runs over PB-selected dimensions of the exploration
// space, stored as relative improvement over the baseline configuration
// so that results from different reporters are comparable (§4.2's
// "relative fitness" trick).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acic/cloud/failure.hpp"
#include "acic/common/check.hpp"
#include "acic/common/csv.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/fs/retry.hpp"
#include "acic/ml/dataset.hpp"

namespace acic::exec {
class Executor;
}  // namespace acic::exec

namespace acic::core {

enum class Objective {
  kPerformance,  ///< minimise total execution time
  kCost,         ///< minimise monetary cost (paper Eq. 1)
};

const char* to_string(Objective o);

struct TrainingSample {
  Point point{};
  double time = 0.0;           ///< measured run time, s
  double cost = 0.0;           ///< measured run cost, $
  double baseline_time = 0.0;  ///< same workload on the baseline config
  double baseline_cost = 0.0;
  std::uint64_t sequence = 0;  ///< insertion order (for data aging)
  /// Measurement provenance (resilient sweeps): how many successful
  /// repeats back this sample, how many were rejected as outliers, and
  /// how many failed attempts had to be retried along the way.
  int repeats = 1;
  int rejected = 0;
  int retries = 0;

  /// Relative improvement over baseline (higher is better).  Division is
  /// safe because TrainingDatabase::insert rejects non-positive
  /// measurements — a zero-time sample (corrupt CSV row) would otherwise
  /// turn into an inf label and poison CART training.
  double improvement(Objective o) const {
    ACIC_DCHECK(time > 0.0 && cost > 0.0, "unvalidated training sample");
    return o == Objective::kPerformance ? baseline_time / time
                                        : baseline_cost / cost;
  }
};

/// The shareable performance/cost database.  Incremental inserts model
/// community contributions; `age_out` drops the oldest entries after a
/// platform upgrade.
class TrainingDatabase {
 public:
  void insert(TrainingSample sample);
  const std::vector<TrainingSample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Keep only the newest `keep_latest` samples.
  void age_out(std::size_t keep_latest);

  /// Feature matrix = the 15-D points, target = improvement(objective).
  ml::Dataset to_dataset(Objective objective) const;

  CsvTable to_csv() const;
  static TrainingDatabase from_csv(const CsvTable& table);
  void save(const std::string& path) const;
  static TrainingDatabase load(const std::string& path);

 private:
  std::vector<TrainingSample> samples_;
  std::uint64_t next_sequence_ = 1;
};

/// Fault-tolerant measurement settings for a sweep.  The default is the
/// legacy single-shot protocol: one run per point, no faults, no retry —
/// bit-identical seeds and results.
struct SweepResilience {
  /// Measurements per point; the median of the survivors is recorded.
  int repeats = 1;
  /// Attempts per measurement before it is written off as failed.
  int max_attempts = 1;
  /// Faults injected into every measurement run (chaos training).
  cloud::FaultModel fault_model;
  /// Client-side deadline/retry reaction passed to the runs.
  fs::RetryPolicy retry;
  /// Per-run watchdog bound (0 = runner default when faults are armed).
  SimTime watchdog_sim_time = 0.0;
};

/// How to sample the space when bootstrapping the database.  Every run
/// uses io::RunOptions' default jitter.
struct TrainingPlan {
  /// Explore `top_dims` dimensions in total; the rest stay at their
  /// defaults.  The six system dimensions are always in the explored
  /// set — a recommender can only rank configuration knobs it has
  /// actually varied — and the PB ranking in `dim_order` selects which
  /// workload dimensions join them.
  std::vector<int> dim_order;
  int top_dims = 10;
  /// Expandability hook: replacement sampled-value sets per dimension
  /// (e.g. device {EBS, ephemeral, SSD} after a platform upgrade).  New
  /// values extend the database without invalidating collected data.
  ParamSpace::ValueOverrides value_overrides;
  /// Upper bound on collected samples; the cartesian product of the
  /// explored dimensions is sub-sampled uniformly when larger.
  std::size_t max_samples = 500;
  std::uint64_t seed = 1;
  /// Host threads for the independent simulations (0 = hardware).
  unsigned threads = 0;
  /// Fault tolerance for the measurement runs (defaults = legacy
  /// single-shot protocol).
  SweepResilience resilience;
  /// Execution engine for the measurement runs.  nullptr routes through
  /// the process-wide exec::Executor::global(): repeated sweeps (and
  /// sweeps overlapping walker probes or service queries) answer
  /// already-simulated points from the run cache.
  exec::Executor* executor = nullptr;
};

struct TrainingStats {
  std::size_t runs = 0;            ///< IOR runs executed (incl. baselines)
  double simulated_hours = 0.0;    ///< total simulated machine time
  Money money = 0.0;               ///< what the runs would have cost on EC2
  std::size_t retried_runs = 0;    ///< failed attempts that were retried
  std::size_t failed_runs = 0;     ///< runs graded RunOutcome::kFailed
  std::size_t rejected_outliers = 0;  ///< repeats dropped by the MAD cut
  std::size_t quarantined = 0;     ///< points with no usable measurement
  /// `config|workload` keys of quarantined points (repeatedly failing
  /// configurations a crowdsourcing deployment should stop assigning).
  std::vector<std::string> quarantined_labels;
};

/// The neutral defaults used for unexplored dimensions (baseline config +
/// a typical mid-range workload).
Point default_point();

/// Collect IOR training samples into `db` following `plan`.
TrainingStats collect_training_data(TrainingDatabase& db,
                                    const TrainingPlan& plan);

/// The dimensions a TrainingPlan with these settings explores: the six
/// system dimensions, then `dim_order`'s first others up to `top_dims`.
std::vector<int> explored_dims(const std::vector<int>& dim_order,
                               int top_dims);

/// Size of the full cartesian product over the explored dimensions
/// (Fig. 8's exponential x-axis).
double enumeration_size(const std::vector<int>& dim_order, int top_dims);

/// Estimated dollars to *exhaustively* train with `top_dims` dimensions,
/// given an observed average per-run cost (Fig. 8, right axis).
Money full_training_cost(const std::vector<int>& dim_order, int top_dims,
                         Money avg_run_cost);

}  // namespace acic::core
