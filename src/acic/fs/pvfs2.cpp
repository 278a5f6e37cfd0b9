// PVFS2 substrate: the paper's striped parallel FS (point 1).  Its grids
// reproduce the Table 1 values: servers {1,2,4} and stripes {64 KiB,
// 4 MiB}.  Its costs are the FsTuning::pvfs_* fields: a higher
// per-request software cost than NFS, per-stripe splitting work, and no
// shared-file locking (PVFS2 has no POSIX lock semantics).
#include <memory>

#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::plugin {

FilesystemPlugin pvfs2_filesystem() {
  FilesystemPlugin p;
  p.name = "pvfs2";
  p.label_stem = "pvfs";
  p.aliases = {"PVFS2", "pvfs"};
  p.type = cloud::FileSystemType::kPvfs2;
  p.single_server = false;
  p.in_default_grid = true;
  p.io_servers = {1, 2, 4};
  p.stripe_sizes = {64.0 * KiB, 4.0 * MiB};
  p.make = [](cloud::ClusterModel& cluster,
              const fs::FsTuning& tuning) -> std::unique_ptr<fs::FileSystem> {
    const fs::StripedCosts costs{
        .client_overhead = tuning.pvfs_client_overhead,
        .per_stripe_cpu = tuning.pvfs_per_stripe_cpu,
        .server_overhead = tuning.pvfs_server_overhead,
        .write_latency_factor = tuning.pvfs_write_latency_factor,
        .read_latency_factor = tuning.pvfs_read_latency_factor,
        .shared_write_lock = 0.0,
        .open_cost = tuning.pvfs_mds_op_cost,
        .close_cost = tuning.pvfs_mds_op_cost};
    return std::make_unique<fs::StripedModel>(cluster, "PVFS2", costs);
  };
  return p;
}

}  // namespace acic::plugin
