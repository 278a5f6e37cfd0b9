#include "acic/fs/nfs.hpp"

#include <algorithm>
#include <memory>

#include "acic/common/units.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::fs {

namespace {
constexpr int kServer = 0;  // NFS has exactly one server
// Slack for fp residue in the dirty-byte accounting audits.
constexpr Bytes kEpsilonBytesNfs = 1e-3;
}

NfsModel::NfsModel(cloud::ClusterModel& cluster, const FsTuning& tuning)
    : cluster_(cluster) {
  ACIC_EXPECTS(tuning.nfs_cache_fraction >= 0.0 &&
                   tuning.nfs_cache_fraction <= 1.0,
               "nfs_cache_fraction " << tuning.nfs_cache_fraction
                                     << " outside [0, 1]");
  cache_capacity_ =
      tuning.nfs_cache_fraction * cluster_.spec().memory_gb * GiB;
}

NfsModel::~NfsModel() {
  if (cache_hits_ + cache_misses_ == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("fs.NFS.cache_hits")
      .add(static_cast<double>(cache_hits_));
  registry.counter("fs.NFS.cache_misses")
      .add(static_cast<double>(cache_misses_));
}

void NfsModel::drain_to_now() const {
  const SimTime now = cluster_.simulator().now();
  const double rate = cluster_.drain_bandwidth(kServer);
  dirty_ = std::max(0.0, dirty_ - (now - last_drain_) * rate);
  last_drain_ = now;
}

Bytes NfsModel::dirty_bytes() const {
  drain_to_now();
  return dirty_;
}

sim::Task NfsModel::request(int rank, Bytes bytes, bool is_write,
                            bool shared_file, double op_weight) {
  account(bytes, op_weight);
  auto& sim = cluster_.simulator();

  // Client-side software cost, the RPC and, for concurrent writers to
  // one file, the fight over attribute/lock state: back-to-back delays,
  // waited out as one, summed in the order they are paid.
  SimTime ready = sim.now() + kClientOverhead * op_weight;
  if (!cluster_.rank_colocated_with_server(rank, kServer)) {
    ready = ready + cluster_.network_rpc_latency() * op_weight;
  }
  if (is_write && shared_file) {
    ready = ready + kSharedWritePenalty * op_weight;
  }
  co_await sim.until(ready);

  drain_to_now();
  const bool absorbed =
      is_write && (dirty_ + bytes <= cache_capacity_);
  if (is_write) {
    // The simulation is single-threaded per Simulator, so plain counters
    // suffice; the destructor rolls them into the global registry once.
    ++(absorbed ? cache_hits_ : cache_misses_);
  }
  if (absorbed) {
    // Reserve the cache space at admission time, before any co_await: other
    // requests interleave during the transfer below, and admitting them
    // against a stale dirty level would overfill the cache (caught by the
    // occupancy ACIC_DCHECK when this reservation was still done after the
    // transfer).
    dirty_ += bytes;
    ACIC_DCHECK(dirty_ <= cache_capacity_ + kEpsilonBytesNfs,
                "NFS write-back cache overfilled: dirty="
                    << dirty_ << " capacity=" << cache_capacity_);
  }

  // Serialized server-side service: software + seek where the device is
  // actually touched (cache-absorbed writes skip the seek entirely).
  double latency_factor = 1.0;
  if (is_write) {
    latency_factor = absorbed ? 0.0 : kWriteLatencyFactor;
  }
  auto& queue = cluster_.server_op_queue(kServer);
  co_await queue.hold((kServerOverhead +
                       cluster_.device_latency(kServer) * latency_factor) *
                      op_weight);
  queue.release();

  // Payload transfer (deadline/retry-aware when the policy is armed).
  sim::FlowPath path;
  if (absorbed) {
    path = cluster_.cached_write_path(rank, kServer);
  } else {
    path = is_write ? cluster_.write_path(rank, kServer)
                    : cluster_.read_path(rank, kServer);
  }
  if (path.empty()) {
    // A cache-absorbed write on the server's own instance: a memory copy.
    co_await sim.delay(bytes / 6.0e9);
  } else if (retry_armed()) {
    co_await resilient_transfer(cluster_, path, bytes);
  } else {
    co_await cluster_.network().transfer(path, bytes);
  }
}

sim::Task NfsModel::metadata_op(int rank, SimTime cost) {
  auto& sim = cluster_.simulator();
  if (!cluster_.rank_colocated_with_server(rank, kServer)) {
    co_await sim.delay(cluster_.network_rpc_latency());
  }
  auto& queue = cluster_.server_op_queue(kServer);
  co_await queue.hold(cost);
  queue.release();
}

sim::Task NfsModel::open_file(int rank) {
  return metadata_op(rank, kOpenCost);
}

sim::Task NfsModel::close_file(int rank) {
  // Async export: close flushes *client* pages (already modelled as part
  // of the transfer), but the server acks before its own disk write-back
  // completes — the dirty set may outlive the application, exactly as on
  // the paper's EC2 setup.  Only the metadata round-trip is paid here.
  return metadata_op(rank, kCloseCost);
}

}  // namespace acic::fs

namespace acic::plugin {

// The single-server baseline (point 0 of the kFileSystem dimension): no
// striping, so its only grid is the degenerate io_servers {1}.
FilesystemPlugin nfs_filesystem() {
  FilesystemPlugin p;
  p.name = "nfs";
  p.label_stem = "nfs";
  p.aliases = {"NFS"};
  p.type = cloud::FileSystemType::kNfs;
  p.single_server = true;
  p.in_default_grid = true;
  p.io_servers = {1};
  p.make = [](cloud::ClusterModel& cluster,
              const fs::FsTuning& tuning) -> std::unique_ptr<fs::FileSystem> {
    return std::make_unique<fs::NfsModel>(cluster, tuning);
  };
  return p;
}

}  // namespace acic::plugin
