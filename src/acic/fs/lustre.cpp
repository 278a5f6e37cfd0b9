// Lustre substrate — an extension file system (§3.1 names
// Lustre and GPFS as the parallel file systems large clusters deploy; §8
// plans support for "incrementally new I/O configurations").  It runs on
// the striped model PVFS2 uses, with Lustre's own cost table:
//
//  * object storage servers with threaded request pipelines — lower
//    per-request client and server cost and a slightly better write path
//    than our PVFS2 costs;
//  * distributed lock management (LDLM): shared-file writes pay a small
//    per-request lock acquisition, unlike PVFS2's lock-free semantics
//    (and far cheaper than NFS's whole-file consistency penalty);
//  * a dedicated metadata target with faster open/close service.
//
// In the filesystem table but outside the default grid, so
// enumerate_candidates() and the trained rankings are unchanged;
// simulate/predict reach it by name, and ACIC learns it from contributed
// training batches exactly like the SSD rollout.
#include <memory>

#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::plugin {

namespace {
constexpr SimTime kMdtOpCost = 0.25 * kMillisecond;
}  // namespace

FilesystemPlugin lustre_filesystem() {
  FilesystemPlugin p;
  p.name = "lustre";
  p.label_stem = "lustre";
  p.aliases = {"Lustre"};
  p.type = cloud::FileSystemType::kLustre;
  p.single_server = false;
  p.in_default_grid = false;
  p.io_servers = {1, 2, 4};
  p.stripe_sizes = {64.0 * KiB, 4.0 * MiB};
  p.make = [](cloud::ClusterModel& cluster,
              const fs::FsTuning& tuning) -> std::unique_ptr<fs::FileSystem> {
    const fs::StripedCosts costs{
        .client_overhead = 0.30 * kMillisecond,
        .per_stripe_cpu = tuning.pvfs_per_stripe_cpu,
        .server_overhead = 0.12 * kMillisecond,
        .write_latency_factor = 0.85,
        .read_latency_factor = 1.0,
        .shared_write_lock = 0.15 * kMillisecond,
        .open_cost = kMdtOpCost,
        .close_cost = kMdtOpCost * 0.6};
    return std::make_unique<fs::StripedModel>(cluster, "Lustre", costs);
  };
  return p;
}

}  // namespace acic::plugin
