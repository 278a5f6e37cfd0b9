#include "acic/cloud/pricing.hpp"

#include "acic/storage/device.hpp"

namespace acic::cloud {

Money DetailedPricing::ebs_surcharge(const ClusterModel& cluster,
                                     SimTime duration,
                                     std::uint64_t io_operations) const {
  const auto& cfg = cluster.options().config;
  if (!storage::device_spec(cfg.device).network_attached) return 0.0;
  const double volumes =
      static_cast<double>(cluster.num_io_servers()) *
      static_cast<double>(cfg.effective_raid_members());
  const double volume_hours = volumes * duration / kHour;
  const Money capacity_charge = volume_hours *
                                (kEbsVolumeSize / GiB) * kEbsGbMonth /
                                kHoursPerMonth;
  const Money io_charge = static_cast<double>(io_operations) / 1e6 *
                          kEbsPerMillionIos;
  return capacity_charge + io_charge;
}

Money DetailedPricing::run_cost(const ClusterModel& cluster,
                                SimTime duration,
                                std::uint64_t io_operations) const {
  return cluster.cost_of(duration) +
         ebs_surcharge(cluster, duration, io_operations);
}

Money SpotPricing::run_cost(const ClusterModel& cluster, SimTime duration,
                            std::uint64_t restarts) const {
  return cluster.cost_of(duration) * price_factor +
         static_cast<double>(restarts) * per_restart_cost;
}

}  // namespace acic::cloud
