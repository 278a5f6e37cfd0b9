// Pricing models.
//
// The paper evaluates with Eq. (1): cost = time x instances x unit price.
// Real 2013 EBS billing additionally charged for provisioned volume-hours
// and per-I/O operations (§3.1 notes the devices' "different pricing
// policies").  DetailedPricing adds those terms as an opt-in refinement;
// every reproduced figure uses Eq. (1) unless stated otherwise.
#pragma once

#include <cstdint>

#include "acic/cloud/cluster.hpp"
#include "acic/common/units.hpp"

namespace acic::cloud {

struct DetailedPricing {
  /// 2013 EBS standard-volume rates.
  static constexpr Money kEbsGbMonth = 0.10;
  static constexpr Money kEbsPerMillionIos = 0.10;
  /// Provisioned size per RAID member volume.
  static constexpr Bytes kEbsVolumeSize = 200.0 * GiB;
  /// Hours per billing month (AWS convention).
  static constexpr double kHoursPerMonth = 720.0;

  /// Eq. (1) instance bill plus, for EBS-backed clusters, volume-hour
  /// and per-I/O charges.  `io_operations` is the device-level request
  /// count observed during the run.
  Money run_cost(const ClusterModel& cluster, SimTime duration,
                 std::uint64_t io_operations) const;

  /// The EBS surcharge alone (0 for non-EBS clusters).
  Money ebs_surcharge(const ClusterModel& cluster, SimTime duration,
                      std::uint64_t io_operations) const;
};

/// Spot-market billing: instances cost a fraction of the on-demand rate,
/// but every preemption restart pays a reacquisition fee (the partial
/// billing hour lost on the reclaimed server plus provisioning spin-up).
/// Net effect: the cost objective now trades the spot discount against
/// the preemption-recovery tax, which is exactly the restart-aware
/// ranking the recommender needs.
struct SpotPricing {
  /// Spot price as a fraction of the on-demand rate (2013 spot markets
  /// hovered around a third of on-demand for steady bids).
  double price_factor = 0.35;
  /// Dollars charged per replacement-server acquisition.
  Money per_restart_cost = 0.08;

  /// Discounted Eq. (1) bill plus the per-restart reacquisition fees.
  Money run_cost(const ClusterModel& cluster, SimTime duration,
                 std::uint64_t restarts) const;
};

}  // namespace acic::cloud
