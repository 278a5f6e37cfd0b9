// PVFS2 substrate registration: the paper's striped parallel FS (point
// 1).  Declared knobs reproduce the Table 1 grid: servers {1,2,4} and
// stripes {64 KiB, 4 MiB}.  Its costs are the FsTuning::pvfs_* fields:
// a higher per-request software cost than NFS, per-stripe splitting
// work, and no shared-file locking (PVFS2 has no POSIX lock semantics).
#include <memory>
#include <utility>

#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

ACIC_REGISTER_PLUGIN(pvfs2_filesystem) {
  acic::plugin::FilesystemPlugin p;
  p.name = "pvfs2";
  p.label_stem = "pvfs";
  p.aliases = {"PVFS2", "pvfs"};
  p.type = acic::cloud::FileSystemType::kPvfs2;
  p.single_server = false;
  p.in_default_grid = true;
  p.schema.version = 1;
  p.schema.knobs = {{"io_servers", {1.0, 2.0, 4.0}},
                    {"stripe_size", {64.0 * acic::KiB, 4.0 * acic::MiB}}};
  p.make = [](acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning) {
    const acic::fs::StripedCosts costs{
        .client_overhead = tuning.pvfs_client_overhead,
        .per_stripe_cpu = tuning.pvfs_per_stripe_cpu,
        .server_overhead = tuning.pvfs_server_overhead,
        .write_latency_factor = tuning.pvfs_write_latency_factor,
        .read_latency_factor = tuning.pvfs_read_latency_factor,
        .shared_write_lock = 0.0,
        .open_cost = tuning.pvfs_mds_op_cost,
        .close_cost = tuning.pvfs_mds_op_cost};
    return std::make_unique<acic::fs::StripedModel>(cluster, "PVFS2", costs);
  };
  acic::plugin::filesystems().add(std::move(p));
}
