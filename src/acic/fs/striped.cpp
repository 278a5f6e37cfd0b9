#include "acic/fs/striped.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"
#include "acic/simcore/join.hpp"

namespace acic::fs {

StripedModel::StripedModel(cloud::ClusterModel& cluster, const char* name,
                           StripedCosts costs)
    : cluster_(cluster),
      name_(name),
      costs_(costs),
      stripe_(cluster.options().config.stripe_size),
      servers_(cluster.num_io_servers()) {
  ACIC_EXPECTS(stripe_ > 0.0,
               "non-positive " << name_ << " stripe size " << stripe_);
  ACIC_EXPECTS(servers_ >= 1, name_ << " needs at least one I/O server, got "
                                    << servers_);
}

int StripedModel::servers_touched(Bytes bytes) const {
  const int stripes = static_cast<int>(std::ceil(bytes / stripe_));
  return std::min(std::max(stripes, 1), servers_);
}

sim::Task StripedModel::server_chunk(int rank, int server, Bytes bytes,
                                     bool is_write, double op_weight) {
  ACIC_DCHECK(server >= 0 && server < servers_,
              "stripe routed to unknown server " << server);
  auto& sim = cluster_.simulator();
  if (!cluster_.rank_colocated_with_server(rank, server)) {
    co_await sim.delay(cluster_.network_rpc_latency() * op_weight);
  }
  const double latency_factor = is_write ? costs_.write_latency_factor
                                         : costs_.read_latency_factor;
  auto& queue = cluster_.server_op_queue(server);
  co_await queue.hold((costs_.server_overhead +
                       cluster_.device_latency(server) * latency_factor) *
                      op_weight);
  queue.release();
  const sim::FlowPath path = is_write ? cluster_.write_path(rank, server)
                                      : cluster_.read_path(rank, server);
  if (retry_armed()) {
    co_await resilient_transfer(cluster_, path, bytes);
  } else {
    co_await cluster_.network().transfer(path, bytes);
  }
}

sim::Task StripedModel::request(int rank, Bytes bytes, bool is_write,
                                bool shared_file, double op_weight) {
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
  // per-stripe splitting work, and the lock for a shared-file write.
  SimTime client = costs_.client_overhead * op_weight +
                   costs_.per_stripe_cpu * stripe_total;
  if (is_write && shared_file) client += costs_.shared_write_lock * op_weight;
  co_await sim.delay(client);

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
  const Bytes per_server = bytes / static_cast<double>(touched);
  sim::Join chunks(sim);
  for (int i = 0; i < touched; ++i) {
    const int server = (start + i) % servers_;
    chunks.start(
        server_chunk(rank, server, per_server, is_write, weight_per_server));
  }
  co_await chunks;
}

sim::Task StripedModel::metadata_op(int rank, SimTime cost) {
  auto& sim = cluster_.simulator();
  constexpr int kMetadataServer = 0;
  if (!cluster_.rank_colocated_with_server(rank, kMetadataServer)) {
    co_await sim.delay(cluster_.network_rpc_latency());
  }
  auto& queue = cluster_.server_op_queue(kMetadataServer);
  co_await queue.hold(cost);
  queue.release();
}

sim::Task StripedModel::open_file(int rank) {
  return metadata_op(rank, costs_.open_cost);
}

sim::Task StripedModel::close_file(int rank) {
  return metadata_op(rank, costs_.close_cost);
}

}  // namespace acic::fs
