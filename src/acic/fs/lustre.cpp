// Lustre substrate registration — an extension file system (§3.1 names
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
// Registered but outside the default grid, so enumerate_candidates() and
// the trained rankings are unchanged; simulate/predict reach it by name,
// and ACIC learns it from contributed training batches exactly like the
// SSD rollout.
#include <memory>
#include <utility>

#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

namespace {
constexpr acic::SimTime kMdtOpCost = 0.25 * acic::kMillisecond;
}  // namespace

ACIC_REGISTER_PLUGIN(lustre_filesystem) {
  acic::plugin::FilesystemPlugin p;
  p.name = "lustre";
  p.label_stem = "lustre";
  p.aliases = {"Lustre"};
  p.type = acic::cloud::FileSystemType::kLustre;
  p.single_server = false;
  p.in_default_grid = false;
  p.schema.version = 1;
  p.schema.knobs = {{"io_servers", {1.0, 2.0, 4.0}},
                    {"stripe_size", {64.0 * acic::KiB, 4.0 * acic::MiB}}};
  p.make = [](acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning) {
    const acic::fs::StripedCosts costs{
        .client_overhead = 0.30 * acic::kMillisecond,
        .per_stripe_cpu = tuning.pvfs_per_stripe_cpu,
        .server_overhead = 0.12 * acic::kMillisecond,
        .write_latency_factor = 0.85,
        .read_latency_factor = 1.0,
        .shared_write_lock = 0.15 * acic::kMillisecond,
        .open_cost = kMdtOpCost,
        .close_cost = kMdtOpCost * 0.6};
    return std::make_unique<acic::fs::StripedModel>(cluster, "Lustre", costs);
  };
  acic::plugin::filesystems().add(std::move(p));
}
