#include "acic/core/predictor.hpp"

#include <algorithm>
#include <numeric>

#include "acic/cloud/instance.hpp"
#include "acic/common/error.hpp"
#include "acic/core/candidate_grid.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/io/checkpoint.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/storage/device.hpp"

namespace acic::core {

namespace {

/// Replacement acquisition + rebind cost per restart, seconds.
constexpr SimTime kRestartOverhead = 120.0;

/// Aggregate streaming bandwidth of the config's I/O tier, bytes/s
/// (RAID-0 set per server, NIC-capped for network-attached devices).
double aggregate_io_bandwidth(const cloud::IoConfig& config, bool for_write) {
  const auto& dev = storage::device_spec(config.device);
  double per_server = storage::raid0_bandwidth(
      dev, config.effective_raid_members(), for_write);
  if (dev.network_attached) {
    per_server = std::min(
        per_server, cloud::instance_spec(config.instance).nic_bandwidth);
  }
  return std::max(per_server * static_cast<double>(config.io_servers), 1.0);
}

/// The objective-specific expected penalty multiplier (>= time slowdown
/// for the cost objective: the spot discount is common to every
/// candidate, but the per-restart reacquisition fees scale with the
/// reclaim rate relative to the I/O tier's hourly bill).
double preemption_penalty(const cloud::IoConfig& config,
                          const PreemptionModel& model,
                          Objective objective) {
  const double slowdown = expected_preemption_slowdown(config, model);
  if (objective == Objective::kPerformance) return slowdown;
  const double reclaims_per_hour =
      model.preemptions_per_hour * static_cast<double>(config.io_servers);
  const double hourly_bill =
      std::max(cloud::instance_spec(config.instance).price_per_hour *
                   static_cast<double>(config.io_servers),
               1e-9);
  const double fee_share =
      reclaims_per_hour * model.spot.per_restart_cost / hourly_bill;
  return slowdown * (model.spot.price_factor + fee_share);
}

/// Scores `n` candidates of one application in one batch pass: the
/// workload is encoded once and copied into every row of an n x
/// kNumDims matrix, and `fill_system(i, row)` writes row i's system
/// columns.
template <class FillSystem>
std::vector<double> score_rows(const ml::Learner& model, std::size_t n,
                               const io::Workload& traits,
                               FillSystem fill_system) {
  std::vector<double> scores(n);
  if (n == 0) return scores;
  Point workload{};
  ParamSpace::encode_workload(traits, workload.data());
  std::vector<double> matrix(n * kNumDims);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = matrix.data() + i * kNumDims;
    fill_system(i, row);
    std::copy(workload.begin() + kNumSystemDims, workload.end(),
              row + kNumSystemDims);
  }
  model.predict_batch(matrix, n, scores);
  return scores;
}

/// Restart-aware adjustment: improvements are ratios against the
/// paper's baseline, and the baseline suffers preemptions too, so each
/// candidate's penalty is taken relative to the baseline's own.
template <class ConfigAt>
void adjust_for_preemption(std::vector<double>& scores, ConfigAt config_at,
                           const PreemptionModel& preemption,
                           Objective objective) {
  if (!preemption.active()) return;
  const double baseline_penalty =
      preemption_penalty(cloud::IoConfig::baseline(), preemption, objective);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double penalty =
        preemption_penalty(config_at(i), preemption, objective);
    scores[i] = scores[i] * baseline_penalty / penalty;
  }
}

/// Positions of the top_k scores (all of them when top_k is 0), best
/// first and ties in position order: exactly what a stable sort by
/// descending score followed by a resize to top_k returns.
std::vector<std::size_t> top_positions(const std::vector<double>& scores,
                                       std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t k =
      top_k == 0 ? order.size() : std::min(top_k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&scores](std::size_t a, std::size_t b) {
                      if (scores[a] > scores[b]) return true;
                      return !(scores[b] > scores[a]) && a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace

Acic::Acic(const TrainingDatabase& db, Objective objective,
           LearnerFactory make_learner)
    : objective_(objective) {
  ACIC_CHECK_MSG(!db.empty(), "cannot train ACIC on an empty database");
  if (make_learner) {
    model_ = make_learner();
  } else {
    model_ = plugin::make_learner("cart");
  }
  model_->fit(db.to_dataset(objective));
}

Acic::Acic(const TrainingDatabase& db, Objective objective,
           std::string_view learner_name)
    : Acic(db, objective,
           [factory = plugin::learners().lookup(learner_name).make] {
             return factory();
           }) {}

double Acic::predict(const cloud::IoConfig& config,
                     const io::Workload& traits) const {
  const Point p = ParamSpace::encode(config, traits);
  return model_->predict(std::span<const double>(p.data(), p.size()));
}

std::vector<double> Acic::predict_batch(
    std::span<const cloud::IoConfig> configs,
    const io::Workload& traits) const {
  const CandidateGrid& grid = CandidateGrid::get();
  const bool is_grid = configs.data() == grid.configs().data() &&
                       configs.size() == grid.size();
  return score_rows(*model_, configs.size(), traits,
                    [&](std::size_t i, double* row) {
                      if (is_grid) {
                        const auto system = grid.system_columns(i);
                        std::copy(system.begin(), system.end(), row);
                      } else {
                        ParamSpace::encode_system(configs[i], row);
                      }
                    });
}

std::vector<GridPick> Acic::rank_grid(
    const io::Workload& traits, std::size_t top_k,
    std::span<const std::size_t> rows,
    const PreemptionModel& preemption) const {
  const CandidateGrid& grid = CandidateGrid::get();
  const auto row_at = [&rows](std::size_t i) {
    return rows.empty() ? i : rows[i];
  };
  std::vector<double> scores = score_rows(
      *model_, rows.empty() ? grid.size() : rows.size(), traits,
      [&](std::size_t i, double* row) {
        const auto system = grid.system_columns(row_at(i));
        std::copy(system.begin(), system.end(), row);
      });
  adjust_for_preemption(
      scores,
      [&](std::size_t i) -> const cloud::IoConfig& {
        return grid.configs()[row_at(i)];
      },
      preemption, objective_);
  std::vector<GridPick> picks;
  for (const std::size_t i : top_positions(scores, top_k)) {
    picks.push_back(GridPick{row_at(i), scores[i]});
  }
  return picks;
}

std::vector<Recommendation> Acic::recommend(
    const io::Workload& traits, std::size_t top_k,
    const std::vector<cloud::IoConfig>& candidates) const {
  return recommend(traits, PreemptionModel{}, top_k, candidates);
}

double expected_preemption_slowdown(const cloud::IoConfig& config,
                                    const PreemptionModel& model) {
  if (!model.active()) return 1.0;
  const double lambda = model.preemptions_per_hour *
                        static_cast<double>(config.io_servers) / kHour;
  double dump_time = 0.0;
  double restore_time = 0.0;
  double tau =
      std::max(model.checkpoint_interval, io::CheckpointPolicy::kMinInterval);
  if (model.checkpoint_bytes > 0.0) {
    dump_time =
        model.checkpoint_bytes / aggregate_io_bandwidth(config, true);
    restore_time =
        model.checkpoint_bytes / aggregate_io_bandwidth(config, false);
  } else {
    // No checkpoints: a reclaim replays everything since t=0.  The mean
    // replay grows with elapsed runtime; a fixed pessimistic one-hour
    // stand-in keeps the formula first-order without knowing the job
    // length.
    tau = kHour;
  }
  const double recovery = kRestartOverhead + restore_time;
  return (1.0 + dump_time / tau) * (1.0 + lambda * (tau / 2.0 + recovery));
}

std::vector<Recommendation> Acic::recommend(
    const io::Workload& traits, const PreemptionModel& preemption,
    std::size_t top_k, const std::vector<cloud::IoConfig>& candidates) const {
  ACIC_CHECK(!candidates.empty());
  std::vector<double> scores = predict_batch(candidates, traits);
  adjust_for_preemption(
      scores,
      [&candidates](std::size_t i) -> const cloud::IoConfig& {
        return candidates[i];
      },
      preemption, objective_);
  std::vector<Recommendation> recs;
  for (const std::size_t i : top_positions(scores, top_k)) {
    recs.push_back(Recommendation{candidates[i], scores[i]});
  }
  return recs;
}

std::vector<std::string> Acic::feature_names() {
  std::vector<std::string> names;
  for (const auto& d : ParamSpace::dimensions()) names.push_back(d.name);
  return names;
}

}  // namespace acic::core
