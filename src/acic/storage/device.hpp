// Storage device models: local ephemeral spindles, network-attached EBS
// volumes, and local SSDs, plus software RAID-0 aggregation.
//
// Bandwidths/latencies reflect published 2013 EC2 measurements: one
// ephemeral spindle streams ~95 MB/s; a standard EBS volume sustains
// ~55 MB/s and rides the instance NIC (that coupling is modelled by the
// cluster topology, not here); SSDs trade peak streaming bandwidth for two
// orders of magnitude lower per-operation latency.
#pragma once

#include <string>

#include "acic/common/units.hpp"

namespace acic::storage {

enum class DeviceType {
  kEphemeral,
  kEbs,
  kSsd,
};

struct DeviceSpec {
  std::string name;
  double read_bandwidth = 0.0;   // bytes/s, one device
  double write_bandwidth = 0.0;  // bytes/s, one device
  SimTime per_op_latency = 0.0;  // seek + queueing overhead per request
  /// True when the device hangs off the instance NIC (EBS).
  bool network_attached = false;
};

const DeviceSpec& device_spec(DeviceType type);

const char* to_string(DeviceType type);

/// Aggregate bandwidth of a `count`-member software RAID-0 built from the
/// given device.  RAID-0 striping scales streaming bandwidth nearly
/// linearly; we apply a small software-RAID efficiency factor.
double raid0_bandwidth(const DeviceSpec& spec, int count, bool for_write);

/// Per-request latency of the RAID-0 set (parallel members -> the op is as
/// slow as one member, chunk splitting adds a little).
SimTime raid0_latency(const DeviceSpec& spec, int count);

}  // namespace acic::storage
