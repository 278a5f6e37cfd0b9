// Cloud I/O system configuration — the six system-side dimensions of the
// paper's Table 1 (disk device, file system, instance type, number of I/O
// servers, server placement, PVFS2 stripe size).
#pragma once

#include <string>
#include <vector>

#include "acic/cloud/instance.hpp"
#include "acic/common/units.hpp"
#include "acic/storage/device.hpp"

namespace acic::cloud {

enum class FileSystemType {
  kNfs,
  kPvfs2,
  /// Extension value beyond the paper's Table 1 grid (§3.1 names Lustre
  /// as the parallel FS large clusters deploy; §8 plans such additions).
  kLustre,
};

enum class Placement {
  kPartTime,   ///< I/O servers share instances with compute ranks.
  kDedicated,  ///< I/O servers run on their own (billed) instances.
};

/// One point in the system-side configuration space.
struct IoConfig {
  storage::DeviceType device = storage::DeviceType::kEbs;
  FileSystemType fs = FileSystemType::kNfs;
  InstanceType instance = InstanceType::kCc2_8xlarge;
  int io_servers = 1;
  Placement placement = Placement::kDedicated;
  /// PVFS2 stripe size; ignored (and normalised to 0) for NFS.
  Bytes stripe_size = 4.0 * MiB;
  /// RAID-0 member count per server; 0 selects the platform default
  /// (all local disks for ephemeral/SSD, two volumes for EBS).
  int raid_members = 0;

  /// Validity rules from the paper: NFS has exactly one server and no
  /// stripe size; PVFS2 needs >= 1 server and a positive stripe size.
  bool valid() const;

  /// Effective RAID member count given the instance type.
  int effective_raid_members() const;

  /// Paper-style short label, e.g. "pvfs.4.D.eph" / "nfs.P.ebs".
  std::string label() const;

  /// The paper's reference point: one dedicated NFS server exporting a
  /// two-volume EBS RAID-0 on a cc2.8xlarge.
  static IoConfig baseline();

  /// Enumerate every *valid* configuration over the Table 1 system-side
  /// value ranges (56 candidates).
  static std::vector<IoConfig> enumerate_candidates();

  /// Extended enumeration including the SSD device class (84 candidates)
  /// — the "platform upgrade" scenario for ACIC's expandability story.
  static std::vector<IoConfig> enumerate_candidates_with_ssd();

  friend bool operator==(const IoConfig&, const IoConfig&) = default;
};

}  // namespace acic::cloud
