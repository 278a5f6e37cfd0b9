// The query-service tests' shared fixture: a synthetic training
// database and PB ranking, small enough to train on in milliseconds,
// and the masking that makes ACIC_CHECK answers comparable.
#pragma once

#include <string>

#include "acic/cloud/ioconfig.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "acic/storage/device.hpp"

namespace acic::service {

/// A tiny synthetic database: PVFS2-4-ephemeral points improve over
/// baseline, everything else does not.  Enough structure for CART to
/// learn a preference without running a single simulation.
inline core::TrainingDatabase synthetic_db() {
  core::TrainingDatabase db;
  const auto defaults = core::default_point();
  int tick = 0;
  for (const auto& cfg : cloud::IoConfig::enumerate_candidates()) {
    for (double data : {4.0 * MiB, 128.0 * MiB}) {
      core::Point p = defaults;
      p = core::ParamSpace::encode(
          cfg, core::ParamSpace::workload_of(defaults));
      p[core::kDataSize] = data;
      p = core::ParamSpace::repaired(p);
      core::TrainingSample s;
      s.point = p;
      const bool good = cfg.fs == cloud::FileSystemType::kPvfs2 &&
                        cfg.io_servers == 4 &&
                        cfg.device == storage::DeviceType::kEphemeral;
      s.baseline_time = 100.0;
      s.time = good ? 25.0 + (tick % 3) : 110.0 + (tick % 7);
      s.baseline_cost = 10.0;
      s.cost = good ? 4.0 : 11.0;
      db.insert(s);
      ++tick;
    }
  }
  return db;
}

inline core::PbRankingResult synthetic_ranking() {
  core::PbRankingResult r;
  for (int d = 0; d < core::kNumDims; ++d) {
    r.importance.push_back(d);
    r.rank_of_each.push_back(d + 1);
    r.effects.push_back(core::kNumDims - d);
  }
  return r;
}

/// `answer` with an ACIC_CHECK's source position ("at <file>:<line> in
/// <fn>") replaced by "at <location>": the rest of the text is the
/// protocol's, the position is the source tree's.
inline std::string masked_location(std::string answer) {
  const auto check = answer.find("ACIC_CHECK failed: (");
  if (check == std::string::npos) return answer;
  const auto at = answer.find(") at ", check);
  if (at == std::string::npos) return answer;
  const auto in = answer.find(" in ", at);
  if (in == std::string::npos) return answer;
  const auto end = answer.find_first_of(" \n", in + 4);
  answer.replace(at + 1, end - (at + 1), " at <location>");
  return answer;
}

}  // namespace acic::service
