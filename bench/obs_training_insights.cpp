// §5.6 "Observations from training experience": targeted sweeps
// reproducing each of the paper's five qualitative findings.
#include <cstdio>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"

namespace {

using namespace acic;

cloud::IoConfig pvfs(int servers, storage::DeviceType dev,
                     cloud::Placement place, Bytes stripe = 4.0 * MiB) {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kPvfs2;
  c.device = dev;
  c.io_servers = servers;
  c.placement = place;
  c.stripe_size = stripe;
  return c;
}

io::RunResult run(const io::Workload& w, const cloud::IoConfig& c,
                  double outages_per_hour = 0.0) {
  io::RunOptions o;
  o.seed = 17;
  o.fault_model.outages_per_hour = outages_per_hour;
  return io::run_workload(w, c, o);
}

void obs1_parttime_with_aggregators() {
  // Obs 1: part-time beats dedicated on cost for collective (aggregator)
  // applications — the aggregator and the server share an instance.
  const auto w = apps::btio(64);  // collective writer
  const auto part = run(w, pvfs(4, storage::DeviceType::kEphemeral,
                                cloud::Placement::kPartTime));
  const auto ded = run(w, pvfs(4, storage::DeviceType::kEphemeral,
                               cloud::Placement::kDedicated));
  std::printf(
      "[obs 1] BTIO-64 (collective): part-time $%.2f vs dedicated $%.2f "
      "-> part-time is %s cost-effective\n",
      part.cost, ded.cost, part.cost < ded.cost ? "MORE" : "not");
}

void obs2_more_servers_help() {
  // Obs 2: more PVFS2 servers improve both time and cost.
  const auto w = apps::madbench2(256);
  TextTable t({"servers", "time (s)", "cost ($)"});
  double prev_time = 0.0;
  bool monotone = true;
  for (int servers : {1, 2, 4}) {
    const auto r = run(w, pvfs(servers, storage::DeviceType::kEphemeral,
                               cloud::Placement::kDedicated));
    if (prev_time > 0.0 && r.total_time > prev_time) monotone = false;
    prev_time = r.total_time;
    t.add_row({std::to_string(servers), TextTable::num(r.total_time, 1),
               TextTable::num(r.cost, 2)});
  }
  std::printf("[obs 2] MADbench2-256 over PVFS2 server counts "
              "(time should fall):\n%s        monotone: %s\n",
              t.to_string().c_str(), monotone ? "yes" : "NO");
}

void obs3_ephemeral_beats_ebs_multiserver() {
  // Obs 3: ephemeral beats EBS when more than one I/O server is used.
  const auto w = apps::mpiblast(64);
  const auto eph = run(w, pvfs(4, storage::DeviceType::kEphemeral,
                               cloud::Placement::kDedicated));
  const auto ebs = run(w, pvfs(4, storage::DeviceType::kEbs,
                               cloud::Placement::kDedicated));
  std::printf(
      "[obs 3] mpiBLAST-64, 4 servers: ephemeral %.1fs vs EBS %.1fs -> "
      "ephemeral %.2fx faster\n",
      eph.total_time, ebs.total_time, ebs.total_time / eph.total_time);
}

void obs4_nfs_for_small_posix() {
  // Obs 4: NFS works better for small POSIX I/O.
  const auto w = ior::IorBench()
                     .api("POSIX")
                     .tasks(32)
                     .block_size(4.0 * MiB)
                     .transfer_size(256.0 * KiB)
                     .segments(5)
                     .file_per_process(true)
                     .write_only()
                     .build();
  cloud::IoConfig nfs;
  nfs.fs = cloud::FileSystemType::kNfs;
  nfs.device = storage::DeviceType::kEphemeral;
  nfs.placement = cloud::Placement::kDedicated;
  nfs.stripe_size = 0.0;
  const auto n = run(w, nfs);
  const auto p = run(w, pvfs(4, storage::DeviceType::kEphemeral,
                             cloud::Placement::kDedicated));
  std::printf(
      "[obs 4] small POSIX writes: NFS %.1fs vs PVFS2x4 %.1fs -> NFS is "
      "%s\n",
      n.total_time, p.total_time,
      n.total_time < p.total_time ? "faster" : "slower");
}

void obs5_failures_matter() {
  // Obs 5: transient server-connection failures visibly stall runs
  // (~1 outage per experiment-hour was observed during training).
  const auto w = apps::flashio(64);
  const auto cfg = pvfs(2, storage::DeviceType::kEphemeral,
                        cloud::Placement::kDedicated);
  const auto calm = run(w, cfg, 0.0);
  const auto stormy = run(w, cfg, /*outages_per_hour=*/120.0);
  std::printf(
      "[obs 5] FLASHIO-64 with transient outages: %.1fs -> %.1fs "
      "(+%.0f%%); production runs must tolerate lost connections\n",
      calm.total_time, stormy.total_time,
      100.0 * (stormy.total_time - calm.total_time) / calm.total_time);
}

}  // namespace

int main() {
  std::printf("=== §5.6 observations from training experience ===\n\n");
  obs1_parttime_with_aggregators();
  obs2_more_servers_help();
  obs3_ephemeral_beats_ebs_multiserver();
  obs4_nfs_for_small_posix();
  obs5_failures_matter();
  return 0;
}
