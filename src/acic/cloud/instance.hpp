// EC2-style instance-type catalogue (2013-era Cluster Compute Instances).
//
// The two types below are the ones the paper's Table 1 explores.  Numbers
// are taken from the public 2013 EC2 specifications: both CCI generations
// attach 10-Gigabit Ethernet; they differ in core count, memory, local
// ("ephemeral") disk count, per-core throughput and hourly price.
#pragma once

#include <string>

#include "acic/common/units.hpp"

namespace acic::cloud {

enum class InstanceType {
  kCc1_4xlarge,
  kCc2_8xlarge,
};

struct InstanceSpec {
  std::string name;
  int cores = 0;
  double memory_gb = 0.0;
  /// NIC bandwidth in bytes/s (full duplex; one resource per direction).
  double nic_bandwidth = 0.0;
  /// Relative per-core compute throughput (cc2 Sandy Bridge ≈ 1.0).
  double core_speed = 1.0;
  int ephemeral_disks = 0;
  Bytes ephemeral_disk_capacity = 0.0;
  Money price_per_hour = 0.0;
};

/// Catalogue lookup; every InstanceType has an entry.
const InstanceSpec& instance_spec(InstanceType type);

const char* to_string(InstanceType type);

}  // namespace acic::cloud
