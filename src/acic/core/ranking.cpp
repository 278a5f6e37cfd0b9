#include "acic/core/ranking.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "acic/common/mutex.hpp"
#include "acic/common/parallel.hpp"
#include "acic/core/candidate_grid.hpp"
#include "acic/ior/ior.hpp"

namespace acic::core {

std::vector<PbRun> pb_screening_runs(std::uint64_t seed) {
  const PbMatrix design = PbDesign::foldover(PbDesign::runs_for(kNumDims));
  // Row -> concrete exploration-space point: +1 takes the dimension's
  // high end, -1 its low end; the validity repair mirrors what the paper
  // had to do for combinations like "NFS with 4 servers".
  std::vector<PbRun> runs;
  runs.reserve(design.size());
  for (std::size_t i = 0; i < design.size(); ++i) {
    Point p{};
    for (int d = 0; d < kNumDims; ++d) {
      const Dim dim = static_cast<Dim>(d);
      p[d] = design[i][static_cast<std::size_t>(d)] > 0 ? ParamSpace::high(dim)
                                                        : ParamSpace::low(dim);
    }
    p = ParamSpace::repaired(p);
    PbRun run{ParamSpace::workload_of(p), ParamSpace::config_of(p), {}};
    run.options.seed = seed ^ (0x9b97f4a7ULL + i);
    runs.push_back(std::move(run));
  }
  return runs;
}

PbRankingResult run_pb_ranking(const PbRankingOptions& options) {
  PbRankingResult result;
  const int runs = PbDesign::runs_for(kNumDims);  // 16 for N = 15
  result.design = PbDesign::foldover(runs);       // 32 rows
  const std::vector<PbRun> screening_runs = pb_screening_runs(options.seed);

  result.response.assign(screening_runs.size(), 0.0);
  Mutex stats_mutex;
  parallel_for(
      screening_runs.size(),
      [&](std::size_t i) {
        const PbRun& run = screening_runs[i];
        const auto r = ior::run_ior(run.workload, run.config, run.options);
        result.response[i] = r.total_time;
        MutexLock lock(&stats_mutex);
        ++result.stats.runs;
        result.stats.simulated_hours += r.total_time / kHour;
        result.stats.money += r.cost;
      },
      options.threads);

  // Effects on log(response): the PB rows span three orders of magnitude
  // in I/O volume, so raw-scale effects are dominated by the volume
  // dimensions; the log transform measures multiplicative impact and
  // lets configuration dimensions register.
  std::vector<double> screening = result.response;
  for (double& r : screening) r = std::log(std::max(r, 1e-9));
  result.effects = PbDesign::effects(result.design, screening, kNumDims);
  result.importance = PbDesign::ranking(result.effects);
  result.rank_of_each = PbDesign::rank_of_each(result.effects);
  return result;
}

std::vector<DimensionSpread> model_dimension_spread(
    const Acic& model, const io::Workload& traits) {
  // One contiguous pass over the candidate grid; the per-dimension
  // grouping below then only shuffles its precomputed scores around.
  const CandidateGrid& grid = CandidateGrid::get();
  const std::vector<double> scores =
      model.predict_batch(grid.configs(), traits);

  std::vector<DimensionSpread> spreads;
  for (const auto& spec : ParamSpace::dimensions()) {
    if (!spec.is_system) continue;
    // Mean predicted improvement per value this dimension actually takes
    // across the (validity-filtered) candidate set.
    const auto& groups = grid.value_groups(spec.dim);
    DimensionSpread s;
    s.dim = spec.dim;
    s.name = spec.name;
    if (groups.size() >= 2) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const auto& rows : groups) {
        double sum = 0.0;
        for (const std::size_t row : rows) sum += scores[row];
        const double mean = sum / static_cast<double>(rows.size());
        lo = std::min(lo, mean);
        hi = std::max(hi, mean);
      }
      s.spread = hi - lo;
    }
    spreads.push_back(std::move(s));
  }
  std::stable_sort(spreads.begin(), spreads.end(),
                   [](const DimensionSpread& a, const DimensionSpread& b) {
                     return a.spread > b.spread;
                   });
  return spreads;
}

}  // namespace acic::core
