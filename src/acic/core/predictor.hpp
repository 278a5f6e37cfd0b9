// The ACIC predictor (§4.2): joins an application's I/O characteristics
// with every candidate system configuration, predicts each candidate's
// improvement over the baseline with a learner trained on the IOR
// database, and returns the top-k recommendations.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/cloud/pricing.hpp"
#include "acic/common/units.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/training.hpp"
#include "acic/io/workload.hpp"
#include "acic/ml/dataset.hpp"

namespace acic::core {

struct Recommendation {
  cloud::IoConfig config;
  double predicted_improvement = 0.0;  ///< over baseline; higher is better
};

/// One ranked row of the default candidate grid (CandidateGrid).
struct GridPick {
  std::size_t row = 0;
  double predicted_improvement = 0.0;  ///< over baseline; higher is better
};

/// First-order spot-market preemption model for restart-aware ranking.
/// Configurations with more I/O servers face proportionally more
/// reclaims; configurations with slower storage pay more for every
/// checkpoint dump — the recommender folds both into the ranking via
/// Daly's checkpoint/restart slowdown formula.
struct PreemptionModel {
  /// Spot reclaim rate per I/O server (matches
  /// FaultModel::preemptions_per_hour).
  double preemptions_per_hour = 0.0;
  /// Checkpoint cadence and dump size the job will run with.
  SimTime checkpoint_interval = 600.0;
  Bytes checkpoint_bytes = 0.0;
  /// Billing terms for the cost objective.
  cloud::SpotPricing spot;

  bool active() const { return preemptions_per_hour > 0.0; }
};

/// Expected execution-time slowdown factor (>= 1) of `config` under the
/// preemption model: (1 + delta/tau) * (1 + lambda * (tau/2 + R)) with
/// delta the dump-write time through the config's aggregate storage
/// bandwidth, tau the checkpoint interval, lambda the whole-cluster
/// reclaim rate and R a fixed 120 s replacement acquisition and rebind
/// plus the restore read.  With checkpointing off the replay term uses a
/// pessimistic one-hour mean (lost work since t=0 grows with elapsed
/// runtime).
double expected_preemption_slowdown(const cloud::IoConfig& config,
                                    const PreemptionModel& model);

class Acic {
 public:
  /// Factory producing a fresh learner (defaults to the "cart" plugin).
  using LearnerFactory = std::function<std::unique_ptr<ml::Learner>()>;

  /// Train a model for `objective` from the database.
  Acic(const TrainingDatabase& db, Objective objective,
       LearnerFactory make_learner = nullptr);

  /// Train with the named registered learner ("cart", "forest", "knn",
  /// "linear", ...); throws plugin::PluginError listing the registered
  /// names when nothing answers to `learner_name`.
  Acic(const TrainingDatabase& db, Objective objective,
       std::string_view learner_name);

  Objective objective() const { return objective_; }
  const ml::Learner& model() const { return *model_; }

  /// Predicted improvement of one (config, characteristics) pair.
  double predict(const cloud::IoConfig& config,
                 const io::Workload& traits) const;

  /// Batch-predict many candidate configurations for one application:
  /// encodes the workload once and each config's system columns (copied
  /// from the CandidateGrid when `configs` is the default grid) into one
  /// contiguous matrix and evaluates it in one pass.
  std::vector<double> predict_batch(std::span<const cloud::IoConfig> configs,
                                    const io::Workload& traits) const;

  /// The one ranking routine over the default candidate grid: scores
  /// `rows` of it (every row when empty) in one batch pass, applies an
  /// active `preemption` model as the restart-aware overload below
  /// does, and returns the top_k rows (all when 0) best first, ties in
  /// row order — the order a stable sort by score gives.
  std::vector<GridPick> rank_grid(const io::Workload& traits,
                                  std::size_t top_k,
                                  std::span<const std::size_t> rows,
                                  const PreemptionModel& preemption) const;

  /// Rank all candidate configurations for an application, best first.
  /// `candidates` defaults to the full Table 1 system enumeration.
  std::vector<Recommendation> recommend(
      const io::Workload& traits, std::size_t top_k = 1,
      const std::vector<cloud::IoConfig>& candidates =
          cloud::IoConfig::enumerate_candidates()) const;

  /// Restart-aware ranking: each candidate's predicted improvement is
  /// scaled by its preemption-adjusted expected slowdown (and, for the
  /// cost objective, the spot discount and per-restart reacquisition
  /// fees) relative to the baseline's, so a config that wins on raw
  /// bandwidth can lose to one that checkpoints or recovers cheaper.
  /// An inactive model degrades to the plain ranking above.
  std::vector<Recommendation> recommend(
      const io::Workload& traits, const PreemptionModel& preemption,
      std::size_t top_k = 1,
      const std::vector<cloud::IoConfig>& candidates =
          cloud::IoConfig::enumerate_candidates()) const;

  /// Table 1 row names (feature naming for tree dumps).
  static std::vector<std::string> feature_names();

 private:
  Objective objective_;
  std::unique_ptr<ml::Learner> model_;
};

}  // namespace acic::core
