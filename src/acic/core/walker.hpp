// PB-guided space walking (§4.3) and the random-walk control (§5.5).
//
// When the training database is not yet populated, ACIC can still give a
// recommendation by greedily walking the *system* configuration
// dimensions in PB-rank order: for each dimension it probes every value
// (running short IOR tests shaped like the application) while holding the
// already-fixed dimensions and leaving the rest at the baseline, then
// fixes the best value and moves on.  Random walk does the same with a
// random dimension order — the paper's control showing PB guidance is
// what makes walking work.
#pragma once

#include <functional>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/common/rng.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/io/workload.hpp"

namespace acic::core {

class Acic;

class SpaceWalker {
 public:
  /// Measures one candidate configuration; returns the objective value
  /// (lower is better: seconds or dollars).  In production this runs IOR
  /// on the cloud (e.g. ior::run_ior through the execution engine, whose
  /// RunKey cache dedupes probes across walks); benches pass a simulator
  /// or synthetic probe.
  using Probe = std::function<double(const cloud::IoConfig&)>;

  struct Result {
    cloud::IoConfig best = cloud::IoConfig::baseline();
    double best_measure = 0.0;
    int probes = 0;  ///< number of IOR test runs spent
  };

  /// The six system dimensions in Table 1 order.
  static std::vector<Dim> system_dims();

  /// Restrict a full 15-dimension PB ranking (parameter indices, most
  /// important first) to the system dimensions.
  static std::vector<Dim> system_dims_ranked(
      const std::vector<int>& full_ranking);

  /// Greedy dimension-by-dimension walk from the baseline, probing every
  /// value of each dimension in `order`.  Probes are cached per config.
  /// This is the paper's single-pass §4.3 procedure.
  static Result walk(const Probe& probe, const std::vector<Dim>& order);

  /// Extension: iterate the greedy pass until a full sweep makes no
  /// further improvement (coordinate descent, at most `max_passes`).
  /// Escapes the single-pass local optima that ordering interactions
  /// cause (e.g. server count walked before device type), at the price
  /// of a handful more probe runs.
  static Result walk_converged(const Probe& probe,
                               const std::vector<Dim>& order,
                               int max_passes = 3);

  /// Random-ordered walk (the control).  Deterministic per seed.
  static Result random_walk(const Probe& probe, Rng& rng);

  /// Model-driven walk: probes are batch predictions from a trained
  /// model instead of simulations — each dimension's whole value row is
  /// scored in one flat-tree pass, so a full converged walk costs
  /// microseconds and zero simulations (Result::probes stays 0; rows
  /// scored roll into the `walker.predicted_rows` counter).  NOTE the
  /// objective inversion relative to the sim-backed walks: the model
  /// predicts *improvement over baseline* (higher is better), so
  /// Result::best_measure is the predicted improvement of the chosen
  /// configuration, not a seconds/dollars measure to minimise.
  static Result predicted_walk(const Acic& model, const io::Workload& traits,
                               const std::vector<Dim>& order,
                               int max_passes = 3);
};

}  // namespace acic::core
