// PVFS2 substrate: the paper's striped parallel FS (point 1).  Its grids
// reproduce the Table 1 values: servers {1,2,4} and stripes {64 KiB,
// 4 MiB}.  Its costs are the kPvfs2Costs table below: a higher
// per-request software cost than NFS, per-stripe splitting work (the
// run's FsTuning::pvfs_per_stripe_cpu), and no shared-file locking
// (PVFS2 has no POSIX lock semantics).
#include <memory>

#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::fs {

const StripedCosts kPvfs2Costs{
    .client_overhead = 0.45 * kMillisecond,
    .server_overhead = 0.20 * kMillisecond,
    .write_latency_factor = 0.9,  // direct I/O, no client cache
    .read_latency_factor = 1.0,
    .shared_write_lock = 0.0,
    .open_cost = 0.50 * kMillisecond,
    .close_cost = 0.50 * kMillisecond};

}  // namespace acic::fs

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
    fs::StripedCosts costs = fs::kPvfs2Costs;
    costs.per_stripe_cpu = tuning.pvfs_per_stripe_cpu;
    return std::make_unique<fs::StripedModel>(cluster, "PVFS2", costs);
  };
  return p;
}

}  // namespace acic::plugin
