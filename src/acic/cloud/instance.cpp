#include "acic/cloud/instance.hpp"

#include "acic/common/error.hpp"

namespace acic::cloud {

const InstanceSpec& instance_spec(InstanceType type) {
  // 10 GbE = 10/8 GB/s raw; we budget ~85 % of line rate for goodput,
  // matching TCP-over-commodity-Ethernet efficiency on EC2.
  static const InstanceSpec kCc1{
      /*name=*/"cc1.4xlarge",
      /*cores=*/8,
      /*memory_gb=*/23.0,
      /*nic_bandwidth=*/1.06e9,
      /*core_speed=*/0.8,  // Nehalem-generation cores
      /*ephemeral_disks=*/2,
      /*ephemeral_disk_capacity=*/840.0 * GiB,
      /*price_per_hour=*/1.30,
  };
  static const InstanceSpec kCc2{
      /*name=*/"cc2.8xlarge",
      /*cores=*/16,
      /*memory_gb=*/60.5,
      /*nic_bandwidth=*/1.06e9,
      /*core_speed=*/1.0,  // Sandy Bridge
      /*ephemeral_disks=*/4,
      /*ephemeral_disk_capacity=*/840.0 * GiB,
      /*price_per_hour=*/2.40,
  };
  switch (type) {
    case InstanceType::kCc1_4xlarge:
      return kCc1;
    case InstanceType::kCc2_8xlarge:
      return kCc2;
  }
  throw Error("unknown instance type");
}

const char* to_string(InstanceType type) {
  return instance_spec(type).name.c_str();
}

}  // namespace acic::cloud
