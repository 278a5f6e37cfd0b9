// Shared infrastructure for the paper-reproduction bench harnesses.
//
// Several figures need the same expensive artifacts: the exhaustive
// ground-truth measurement of all 9 application runs under all 56
// candidate configurations, the 32-run PB screening, and a bootstrapped
// training database.  Every simulation behind them goes through the
// execution engine (exec::Executor), whose persistent run store lives in
// the bench cache directory, so a later bench process rebuilds each
// artifact from stored runs instead of simulating.  The run store is the
// only cache: it keys every run on all of its inputs, so artifacts from
// an older simulator are never reused.  The directory is ACIC_CACHE_DIR
// when set, else an absolute path under the system temp directory — so
// every bench binary shares one cache no matter where it is launched
// from.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"

namespace acic::benchsup {

/// One measured (config, objective) cell of the ground truth.
struct Measurement {
  std::string label;  ///< IoConfig::label()
  double time = 0.0;  ///< seconds
  double cost = 0.0;  ///< dollars
};

/// "BTIO/64", "mpiBLAST/128", ...
std::string app_key(const std::string& app, int scale);

/// Exhaustive measurement of every evaluation-suite run under every
/// candidate configuration (the paper's gray-dot spectra).  Cached.
const std::map<std::string, std::vector<Measurement>>& ground_truth();

/// Look up one config's measurement (runs it fresh if absent — manual
/// policies can propose configs outside the 56-candidate grid).
Measurement measure(const apps::AppRun& run, const cloud::IoConfig& config);

/// The 32-run PB screening over the 15-D space.  Once per process.
const core::PbRankingResult& pb_ranking();

/// Bootstrapped IOR training database over the top `top_dims` PB-ranked
/// dimensions.  Once per process and (top_dims, max_samples, seed).
const core::TrainingDatabase& training_db(int top_dims = 12,
                                          std::size_t max_samples = 1200,
                                          std::uint64_t seed = 1);

// --- Small helpers over measurement vectors --------------------------
const Measurement& find_measurement(const std::vector<Measurement>& ms,
                                    const std::string& label);
double median_time(const std::vector<Measurement>& ms);
double median_cost(const std::vector<Measurement>& ms);
const Measurement& best_time(const std::vector<Measurement>& ms);
const Measurement& best_cost(const std::vector<Measurement>& ms);
const Measurement& baseline(const std::vector<Measurement>& ms);

/// Objective-aware accessor.
double value_of(const Measurement& m, core::Objective objective);

/// Measured value of the best candidate among the model's top-k
/// recommendations (the paper's top-k verification protocol).
double best_measured_of_topk(const core::Acic& acic,
                             const apps::AppRun& run, std::size_t k,
                             core::Objective objective);

/// The paper's co-champion rule (§5.3): when the model predicts several
/// configurations as joint best, report the *median* measured result
/// among them.
Measurement measured_top_choice(const core::Acic& acic,
                                const apps::AppRun& run,
                                core::Objective objective);

}  // namespace acic::benchsup
