// The paper's §4.1 screening experiment: a foldover PB design over all 15
// dimensions (N = 15, N' = 16, 32 IOR runs) that produces the importance
// ranking in Table 1's rightmost column.  The ranking then drives both
// incremental training (explore important dimensions first) and
// PB-guided space walking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/core/pbdesign.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/training.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"

namespace acic::core {

struct PbRankingResult {
  PbMatrix design;                ///< the 32 foldover rows actually run
  std::vector<double> response;   ///< measured run time per run, s
  std::vector<double> effects;    ///< per-dimension PB effects
  std::vector<int> importance;    ///< dimension indices, most important first
  std::vector<int> rank_of_each;  ///< 1-based rank per dimension
  TrainingStats stats;            ///< what the 32 runs cost
};

struct PbRankingOptions {
  std::uint64_t seed = 1;
  unsigned threads = 0;
};

/// One screening run: the IOR workload and configuration a foldover row
/// maps to, and the options it runs with.
struct PbRun {
  io::Workload workload;
  cloud::IoConfig config;
  io::RunOptions options;
};

/// The 32 screening runs in foldover row order, seeded from `seed` the
/// way run_pb_ranking() runs them.
std::vector<PbRun> pb_screening_runs(std::uint64_t seed = 1);

/// Execute the 32-run foldover screening with IOR on the simulated cloud
/// (io::RunOptions' default jitter) and rank all 15 dimensions by their
/// effect on log(run time).
PbRankingResult run_pb_ranking(const PbRankingOptions& options = {});

/// Model-side importance of one system dimension for a specific
/// application: the spread (max minus min) of the mean predicted
/// improvement across the dimension's candidate values.
struct DimensionSpread {
  Dim dim = kDevice;
  std::string name;
  double spread = 0.0;
};

/// Complement to the PB screening: instead of 32 fresh simulations, one
/// batch prediction over the default candidate grid (a single
/// flat-tree pass) measures how much the *trained model* thinks each
/// system dimension matters for this application.  Sorted most important
/// first; free once a model exists, and workload-specific where the PB
/// ranking is global.
std::vector<DimensionSpread> model_dimension_spread(
    const Acic& model, const io::Workload& traits);

}  // namespace acic::core
