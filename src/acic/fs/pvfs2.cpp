#include "acic/fs/pvfs2.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/simcore/join.hpp"

namespace acic::fs {

Pvfs2Model::Pvfs2Model(cloud::ClusterModel& cluster, FsTuning tuning)
    : cluster_(cluster),
      tuning_(tuning),
      stripe_(cluster.options().config.stripe_size),
      servers_(cluster.num_io_servers()) {
  ACIC_EXPECTS(stripe_ > 0.0, "non-positive PVFS2 stripe size " << stripe_);
  ACIC_EXPECTS(servers_ >= 1,
               "PVFS2 needs at least one I/O server, got " << servers_);
}

int Pvfs2Model::servers_touched(Bytes bytes) const {
  const int stripes =
      static_cast<int>(std::ceil(bytes / stripe_));
  return std::min(std::max(stripes, 1), servers_);
}

sim::Task Pvfs2Model::server_chunk(int rank, int server, Bytes bytes,
                                   bool is_write, double op_weight) {
  ACIC_DCHECK(server >= 0 && server < servers_,
              "stripe routed to unknown server " << server);
  auto& sim = cluster_.simulator();
  if (!cluster_.rank_colocated_with_server(rank, server)) {
    co_await sim.delay(cluster_.network_rpc_latency() * op_weight);
  }
  const double latency_factor = is_write ? tuning_.pvfs_write_latency_factor
                                         : tuning_.pvfs_read_latency_factor;
  auto& queue = cluster_.server_op_queue(server);
  co_await queue.acquire();
  co_await sim.delay((tuning_.pvfs_server_overhead +
                      cluster_.device_latency(server) * latency_factor) *
                     op_weight);
  queue.release();
  auto path = is_write ? cluster_.write_path(rank, server)
                       : cluster_.read_path(rank, server);
  co_await resilient_transfer(cluster_, std::move(path), bytes);
}

sim::Task Pvfs2Model::request(int rank, Bytes bytes, bool is_write,
                              bool shared_file, double op_weight) {
  (void)shared_file;  // PVFS2 has no POSIX shared-file lock semantics.
  account(bytes, op_weight);
  auto& sim = cluster_.simulator();

  // The call stands for `op_weight` original application requests of
  // `bytes / op_weight` each (middleware coalescing).  Striping costs
  // must reflect the *original* requests: each original request splits
  // into its own stripes and touches its own server subset.
  const Bytes original = bytes / op_weight;
  const double stripes_per_original =
      std::max(1.0, std::ceil(original / stripe_));
  const double stripe_total = op_weight * stripes_per_original;
  const int touched_per_original = servers_touched(original);

  // Client software cost: fixed part per original request plus the
  // per-stripe splitting work.
  co_await sim.delay(tuning_.pvfs_client_overhead * op_weight +
                     tuning_.pvfs_per_stripe_cpu * stripe_total);

  // Fan the payload out across servers.  Consecutive original requests
  // rotate round-robin over the stripe layout, so the coalesced payload
  // spreads over up to `servers_` devices for bandwidth purposes, while
  // the total per-op service charge stays op_weight x touched-per-
  // original, split evenly over the servers actually hit.
  const int touched = std::min(
      servers_,
      std::max(servers_touched(bytes),
               op_weight > 1.0 ? servers_ : touched_per_original));
  const double weight_per_server =
      op_weight * static_cast<double>(touched_per_original) /
      static_cast<double>(touched);

  const int start = rank % servers_;
  if (touched == 1) {
    co_await server_chunk(rank, start, bytes, is_write, weight_per_server);
    co_return;
  }
  std::vector<sim::Task> chunks;
  chunks.reserve(static_cast<std::size_t>(touched));
  const Bytes per_server = bytes / static_cast<double>(touched);
  for (int i = 0; i < touched; ++i) {
    const int server = (start + i) % servers_;
    chunks.push_back(
        server_chunk(rank, server, per_server, is_write, weight_per_server));
  }
  co_await sim::when_all(sim, std::move(chunks));
}

sim::Task Pvfs2Model::mds_op(int rank) {
  auto& sim = cluster_.simulator();
  constexpr int kMds = 0;
  if (!cluster_.rank_colocated_with_server(rank, kMds)) {
    co_await sim.delay(cluster_.network_rpc_latency());
  }
  auto& queue = cluster_.server_op_queue(kMds);
  co_await queue.acquire();
  co_await sim.delay(tuning_.pvfs_mds_op_cost);
  queue.release();
}

sim::Task Pvfs2Model::open_file(int rank) { co_await mds_op(rank); }

sim::Task Pvfs2Model::close_file(int rank) { co_await mds_op(rank); }

}  // namespace acic::fs

// PVFS2 substrate registration: the paper's striped parallel FS (point
// 1).  Declared knobs reproduce the Table 1 grid: servers {1,2,4} and
// stripes {64 KiB, 4 MiB}.
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
    return std::make_unique<acic::fs::Pvfs2Model>(cluster, tuning);
  };
  acic::plugin::filesystems().add(std::move(p));
}
