#include "acic/cloud/ioconfig.hpp"

#include <string>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::cloud {

bool IoConfig::valid() const {
  if (io_servers < 1) return false;
  const auto& substrate = plugin::filesystem_for(fs);
  if (substrate.single_server && io_servers != 1) return false;
  if (!substrate.single_server && stripe_size <= 0.0) return false;
  return true;
}

int IoConfig::effective_raid_members() const {
  switch (device) {
    case storage::DeviceType::kEphemeral:
      return instance_spec(instance).ephemeral_disks;
    case storage::DeviceType::kEbs:
      return 2;  // the common two-volume RAID-0 EBS setup
    case storage::DeviceType::kSsd:
      return 2;
  }
  return 1;
}

std::string IoConfig::label() const {
  const auto& substrate = plugin::filesystem_for(fs);
  std::string out = substrate.label_stem;
  if (!substrate.single_server) {
    out += '.';
    out += std::to_string(io_servers);
  }
  out += placement == Placement::kDedicated ? ".D" : ".P";
  switch (device) {
    case storage::DeviceType::kEphemeral:
      out += ".eph";
      break;
    case storage::DeviceType::kEbs:
      out += ".ebs";
      break;
    case storage::DeviceType::kSsd:
      out += ".ssd";
      break;
  }
  if (!substrate.single_server) {
    out += stripe_size >= MiB ? ".4M" : ".64K";
  }
  if (instance == InstanceType::kCc1_4xlarge) out += ".cc1";
  return out;
}

IoConfig IoConfig::baseline() {
  IoConfig c;
  c.device = storage::DeviceType::kEbs;
  c.fs = FileSystemType::kNfs;
  c.instance = InstanceType::kCc2_8xlarge;
  c.io_servers = 1;
  c.placement = Placement::kDedicated;
  c.stripe_size = 0.0;
  return c;
}

namespace {

std::vector<IoConfig> enumerate_over(
    const std::vector<storage::DeviceType>& devices);

}  // namespace

const std::vector<IoConfig>& IoConfig::enumerate_candidates() {
  static const std::vector<IoConfig> grid = enumerate_over(
      {storage::DeviceType::kEbs, storage::DeviceType::kEphemeral});
  return grid;
}

std::vector<IoConfig> IoConfig::enumerate_candidates_with_ssd() {
  return enumerate_over({storage::DeviceType::kEbs,
                         storage::DeviceType::kEphemeral,
                         storage::DeviceType::kSsd});
}

namespace {

std::vector<IoConfig> enumerate_over(
    const std::vector<storage::DeviceType>& devices) {
  std::vector<IoConfig> out;
  const InstanceType instances[] = {InstanceType::kCc1_4xlarge,
                                    InstanceType::kCc2_8xlarge};
  const Placement placements[] = {Placement::kPartTime, Placement::kDedicated};
  // Default-grid substrates in level order (NFS before PVFS2) with
  // their server and stripe grids reproduce the seed 56-candidate order
  // byte for byte (guarded by the golden-RunKey regression).
  const auto& grid = plugin::default_grid_filesystems();
  ACIC_CHECK_MSG(!grid.empty(), "no default-grid filesystem plugins");
  for (auto dev : devices) {
    for (auto inst : instances) {
      for (auto place : placements) {
        for (const plugin::FilesystemPlugin* substrate : grid) {
          IoConfig base;
          base.device = dev;
          base.instance = inst;
          base.placement = place;
          if (substrate->single_server) {
            substrate->configure(base);
            out.push_back(base);
            continue;
          }
          for (int servers : substrate->io_servers) {
            for (Bytes stripe : substrate->stripe_sizes) {
              IoConfig c = base;
              substrate->configure(c, servers, stripe);
              out.push_back(c);
            }
          }
        }
      }
    }
  }
  for (const auto& c : out) ACIC_CHECK(c.valid());
  return out;
}

}  // namespace

}  // namespace acic::cloud
