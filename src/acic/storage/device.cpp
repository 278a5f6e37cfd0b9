#include "acic/storage/device.hpp"

#include <algorithm>

#include "acic/common/error.hpp"

namespace acic::storage {

const DeviceSpec& device_spec(DeviceType type) {
  static const DeviceSpec kEphemeral{
      /*name=*/"ephemeral",
      /*read_bandwidth=*/mb_per_s(95.0),
      /*write_bandwidth=*/mb_per_s(90.0),
      /*per_op_latency=*/8.0 * kMillisecond,
      /*network_attached=*/false,
  };
  static const DeviceSpec kEbs{
      /*name=*/"EBS",
      /*read_bandwidth=*/mb_per_s(60.0),
      /*write_bandwidth=*/mb_per_s(55.0),
      /*per_op_latency=*/10.0 * kMillisecond,
      /*network_attached=*/true,
  };
  static const DeviceSpec kSsd{
      /*name=*/"SSD",
      /*read_bandwidth=*/mb_per_s(250.0),
      /*write_bandwidth=*/mb_per_s(220.0),
      /*per_op_latency=*/0.1 * kMillisecond,
      /*network_attached=*/false,
  };
  switch (type) {
    case DeviceType::kEphemeral:
      return kEphemeral;
    case DeviceType::kEbs:
      return kEbs;
    case DeviceType::kSsd:
      return kSsd;
  }
  throw acic::Error("unknown device type");
}

const char* to_string(DeviceType type) {
  switch (type) {
    case DeviceType::kEphemeral:
      return "ephemeral";
    case DeviceType::kEbs:
      return "EBS";
    case DeviceType::kSsd:
      return "SSD";
  }
  return "?";
}

double raid0_bandwidth(const DeviceSpec& spec, int count, bool for_write) {
  ACIC_EXPECTS(count >= 1, "RAID-0 needs at least one member, got " << count);
  const double base = for_write ? spec.write_bandwidth : spec.read_bandwidth;
  // mdraid chunking overhead eats a few percent per extra member.
  const double efficiency = 1.0 - 0.03 * static_cast<double>(count - 1);
  const double bandwidth = base * count * std::max(efficiency, 0.7);
  ACIC_ENSURES(bandwidth >= base, "RAID-0 of " << count << " x " << spec.name
                                               << " slower than one member");
  return bandwidth;
}

SimTime raid0_latency(const DeviceSpec& spec, int count) {
  ACIC_EXPECTS(count >= 1, "RAID-0 needs at least one member, got " << count);
  // Members are hit in parallel; splitting adds ~5 % per extra member.
  return spec.per_op_latency * (1.0 + 0.05 * static_cast<double>(count - 1));
}

}  // namespace acic::storage
