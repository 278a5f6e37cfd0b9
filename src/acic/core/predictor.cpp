#include "acic/core/predictor.hpp"

#include <algorithm>

#include "acic/cloud/instance.hpp"
#include "acic/common/error.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/storage/device.hpp"

namespace acic::core {

namespace {

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
  std::vector<double> out(configs.size());
  if (configs.empty()) return out;
  std::vector<double> matrix;
  matrix.reserve(configs.size() * kNumDims);
  for (const auto& c : configs) {
    const Point p = ParamSpace::encode(c, traits);
    matrix.insert(matrix.end(), p.begin(), p.end());
  }
  model_->predict_batch(matrix, configs.size(), out);
  return out;
}

std::vector<Recommendation> Acic::recommend(
    const io::Workload& traits, std::size_t top_k,
    const std::vector<cloud::IoConfig>& candidates) const {
  ACIC_CHECK(!candidates.empty());
  const std::vector<double> scores = predict_batch(candidates, traits);
  std::vector<Recommendation> recs;
  recs.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    recs.push_back(Recommendation{candidates[i], scores[i]});
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.predicted_improvement >
                            b.predicted_improvement;
                   });
  if (top_k > 0 && recs.size() > top_k) recs.resize(top_k);
  return recs;
}

double expected_preemption_slowdown(const cloud::IoConfig& config,
                                    const PreemptionModel& model) {
  if (!model.active()) return 1.0;
  const double lambda = model.preemptions_per_hour *
                        static_cast<double>(config.io_servers) / kHour;
  double dump_time = 0.0;
  double restore_time = 0.0;
  double tau = std::max(model.checkpoint_interval, 1.0);
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
  const double recovery = model.restart_overhead + restore_time;
  return (1.0 + dump_time / tau) * (1.0 + lambda * (tau / 2.0 + recovery));
}

std::vector<Recommendation> Acic::recommend(
    const io::Workload& traits, const PreemptionModel& preemption,
    std::size_t top_k, const std::vector<cloud::IoConfig>& candidates) const {
  if (!preemption.active()) return recommend(traits, top_k, candidates);
  ACIC_CHECK(!candidates.empty());
  const std::vector<double> scores = predict_batch(candidates, traits);
  // Improvements are ratios against the paper's baseline; the baseline
  // suffers preemptions too, so each candidate's penalty is taken
  // relative to the baseline's own.
  const double baseline_penalty =
      preemption_penalty(cloud::IoConfig::baseline(), preemption, objective_);
  std::vector<Recommendation> recs;
  recs.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double penalty =
        preemption_penalty(candidates[i], preemption, objective_);
    recs.push_back(
        Recommendation{candidates[i], scores[i] * baseline_penalty / penalty});
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.predicted_improvement >
                            b.predicted_improvement;
                   });
  if (top_k > 0 && recs.size() > top_k) recs.resize(top_k);
  return recs;
}

std::vector<std::string> Acic::feature_names() {
  std::vector<std::string> names;
  for (const auto& d : ParamSpace::dimensions()) names.push_back(d.name);
  return names;
}

}  // namespace acic::core
