// Ablation benches for the substrate design choices DESIGN.md calls out,
// and the one caller that varies FsTuning's two cost fields:
//
//  (a) the NFS server write-back cache — disabling it should erase NFS's
//      edge on bursty checkpoint writers (the mechanism behind the
//      paper's NFS-optimal cells in Table 4);
//  (b) the striped systems' per-stripe CPU cost — zeroing it leaves the
//      64 KiB vs 4 MiB stripe-size gap unchanged, so that gap is a
//      per-operation fan-out effect, not a CPU-cost artifact;
//  (c) multi-tenant jitter — the configuration *ranking* should be
//      stable across jitter seeds (otherwise ACIC would be learning
//      noise).
#include <cstdio>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/io/runner.hpp"

namespace {

using namespace acic;

io::RunResult run(const io::Workload& w, const cloud::IoConfig& c,
                  const fs::FsTuning& tuning, std::uint64_t seed = 9) {
  io::RunOptions o;
  o.seed = seed;
  o.tuning = tuning;
  return io::run_workload(w, c, o);
}

void ablate_nfs_cache() {
  const auto w = apps::flashio(64);
  cloud::IoConfig nfs = cloud::IoConfig::baseline();
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.device = storage::DeviceType::kEphemeral;
  pvfs.io_servers = 4;
  pvfs.placement = cloud::Placement::kDedicated;
  pvfs.stripe_size = 4.0 * MiB;

  TextTable t({"write-back cache", "NFS baseline (s)", "PVFS2 x4 (s)",
               "NFS wins?"});
  for (double fraction : {0.5, 0.0}) {
    fs::FsTuning tuning;
    tuning.nfs_cache_fraction = fraction;
    const auto n = run(w, nfs, tuning);
    const auto p = run(w, pvfs, tuning);
    t.add_row({fraction > 0 ? "on" : "off",
               TextTable::num(n.total_time, 1),
               TextTable::num(p.total_time, 1),
               n.total_time < p.total_time ? "yes" : "no"});
  }
  std::printf("[ablation a] NFS write-back cache on FLASHIO-64:\n%s\n",
              t.to_string().c_str());
}

void ablate_stripe_cpu() {
  const auto w = apps::mpiblast(64);
  cloud::IoConfig fine, coarse;
  fine.fs = coarse.fs = cloud::FileSystemType::kPvfs2;
  fine.device = coarse.device = storage::DeviceType::kEphemeral;
  fine.io_servers = coarse.io_servers = 4;
  fine.placement = coarse.placement = cloud::Placement::kDedicated;
  fine.stripe_size = 64.0 * KiB;
  coarse.stripe_size = 4.0 * MiB;

  TextTable t({"per-stripe cpu", "64 KiB stripe (s)", "4 MiB stripe (s)",
               "gap"});
  for (double scale : {1.0, 0.0}) {
    fs::FsTuning tuning;
    tuning.pvfs_per_stripe_cpu *= scale;
    const auto f = run(w, fine, tuning);
    const auto c = run(w, coarse, tuning);
    t.add_row({scale > 0 ? "default" : "zeroed",
               TextTable::num(f.total_time, 1),
               TextTable::num(c.total_time, 1),
               TextTable::num(f.total_time / c.total_time, 2) + "x"});
  }
  std::printf("[ablation b] PVFS2 stripe-splitting cost on mpiBLAST-64:\n%s\n",
              t.to_string().c_str());
}

void ablate_jitter_stability() {
  const auto w = apps::madbench2(64);
  cloud::IoConfig good;  // known-good: pvfs.4.D.eph
  good.fs = cloud::FileSystemType::kPvfs2;
  good.device = storage::DeviceType::kEphemeral;
  good.io_servers = 4;
  good.placement = cloud::Placement::kDedicated;
  good.stripe_size = 4.0 * MiB;
  const auto bad = cloud::IoConfig::baseline();  // known-bad for this app

  int stable = 0;
  const int kSeeds = 10;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = run(w, good, fs::FsTuning{}, seed);
    const auto b = run(w, bad, fs::FsTuning{}, seed);
    stable += g.total_time < b.total_time;
  }
  std::printf(
      "[ablation c] MADbench2-64 ranking (pvfs.4.D.eph < nfs.D.ebs) held "
      "under %d/%d jitter seeds\n\n",
      stable, kSeeds);
}

}  // namespace

int main() {
  std::printf("=== substrate design-choice ablations ===\n\n");
  ablate_nfs_cache();
  ablate_stripe_cpu();
  ablate_jitter_stability();
  return 0;
}
