#include "acic/cloud/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "acic/common/error.hpp"

namespace acic::cloud {

namespace {

int div_ceil(int a, int b) { return (a + b - 1) / b; }

/// Fraction of an instance's compute throughput consumed by a
/// co-located (part-time) I/O server daemon.
constexpr double kPartTimeComputeTax = 0.12;

}  // namespace

ClusterModel::ClusterModel(sim::Simulator& sim, Options options)
    : sim_(sim),
      options_(std::move(options)),
      spec_(instance_spec(options_.config.instance)),
      net_(sim),
      rng_(options_.seed) {
  ACIC_CHECK_MSG(options_.config.valid(),
                 "invalid IoConfig " << options_.config.label());
  ACIC_CHECK(options_.num_processes >= 1);

  compute_instances_ = div_ceil(options_.num_processes, spec_.cores);
  const int servers = options_.config.io_servers;
  const bool dedicated =
      options_.config.placement == Placement::kDedicated;
  total_instances_ = compute_instances_ + (dedicated ? servers : 0);

  auto jitter = [&]() {
    return options_.jitter_sigma > 0.0
               ? rng_.lognormal_jitter(options_.jitter_sigma)
               : 1.0;
  };

  // NIC resources, one pair per instance.
  nic_tx_.reserve(total_instances_);
  nic_rx_.reserve(total_instances_);
  for (int i = 0; i < total_instances_; ++i) {
    nic_tx_.push_back(net_.add_resource("nic_tx/" + std::to_string(i),
                                        spec_.nic_bandwidth * jitter()));
    nic_rx_.push_back(net_.add_resource("nic_rx/" + std::to_string(i),
                                        spec_.nic_bandwidth * jitter()));
  }

  // Server placement: part-time servers round-robin over compute
  // instances; dedicated servers get the extra instances at the end.
  hosts_part_time_server_.assign(static_cast<std::size_t>(total_instances_),
                                 false);
  server_instance_.reserve(servers);
  for (int s = 0; s < servers; ++s) {
    int inst = 0;
    if (dedicated) {
      inst = compute_instances_ + s;
    } else {
      inst = s % compute_instances_;
      hosts_part_time_server_[static_cast<std::size_t>(inst)] = true;
    }
    server_instance_.push_back(inst);
  }

  // Storage devices per server.
  const auto& dev = storage::device_spec(options_.config.device);
  const int members = options_.config.effective_raid_members();
  dev_read_.reserve(servers);
  dev_write_.reserve(servers);
  for (int s = 0; s < servers; ++s) {
    dev_read_.push_back(net_.add_resource(
        "dev_rd/" + std::to_string(s),
        storage::raid0_bandwidth(dev, members, /*for_write=*/false) *
            jitter()));
    dev_write_.push_back(net_.add_resource(
        "dev_wr/" + std::to_string(s),
        storage::raid0_bandwidth(dev, members, /*for_write=*/true) *
            jitter()));
    dev_latency_.push_back(storage::raid0_latency(dev, members) * jitter());
    server_queues_.push_back(std::make_unique<sim::Semaphore>(sim_, 1));
  }
}

int ClusterModel::instance_of_rank(int rank) const {
  ACIC_CHECK(rank >= 0 && rank < options_.num_processes);
  return rank / spec_.cores;
}

int ClusterModel::instance_of_server(int server) const {
  ACIC_CHECK(server >= 0 &&
             server < static_cast<int>(server_instance_.size()));
  return server_instance_[static_cast<std::size_t>(server)];
}

bool ClusterModel::rank_colocated_with_server(int rank, int server) const {
  return instance_of_rank(rank) == instance_of_server(server);
}

sim::FlowPath ClusterModel::write_path(int rank, int server) const {
  const int ri = instance_of_rank(rank);
  const int si = instance_of_server(server);
  const bool ebs = storage::device_spec(options_.config.device)
                       .network_attached;
  sim::FlowPath path;
  if (ri != si) {
    path.push_back(nic_tx_[static_cast<std::size_t>(ri)]);
    path.push_back(nic_rx_[static_cast<std::size_t>(si)]);
  }
  if (ebs) {
    // The server forwards the payload to the EBS backend over its NIC.
    path.push_back(nic_tx_[static_cast<std::size_t>(si)]);
  }
  path.push_back(dev_write_[static_cast<std::size_t>(server)]);
  return path;
}

sim::FlowPath ClusterModel::cached_write_path(int rank, int server) const {
  const int ri = instance_of_rank(rank);
  const int si = instance_of_server(server);
  if (ri == si) return {};
  return {nic_tx_[static_cast<std::size_t>(ri)],
          nic_rx_[static_cast<std::size_t>(si)]};
}

double ClusterModel::drain_bandwidth(int server) const {
  const double dev =
      net_.capacity(device_write_resource(server));
  if (storage::device_spec(options_.config.device).network_attached) {
    const int si = instance_of_server(server);
    return std::min(dev, net_.capacity(nic_tx_[static_cast<std::size_t>(si)]));
  }
  return dev;
}

sim::FlowPath ClusterModel::read_path(int rank, int server) const {
  const int ri = instance_of_rank(rank);
  const int si = instance_of_server(server);
  const bool ebs = storage::device_spec(options_.config.device)
                       .network_attached;
  sim::FlowPath path;
  path.push_back(dev_read_[static_cast<std::size_t>(server)]);
  if (ebs) {
    // Payload arrives from the EBS backend through the server's NIC.
    path.push_back(nic_rx_[static_cast<std::size_t>(si)]);
  }
  if (ri != si) {
    path.push_back(nic_tx_[static_cast<std::size_t>(si)]);
    path.push_back(nic_rx_[static_cast<std::size_t>(ri)]);
  }
  return path;
}

sim::FlowPath ClusterModel::comm_path(int from_rank, int to_rank) const {
  const int fi = instance_of_rank(from_rank);
  const int ti = instance_of_rank(to_rank);
  if (fi == ti) return {};
  return {nic_tx_[static_cast<std::size_t>(fi)],
          nic_rx_[static_cast<std::size_t>(ti)]};
}

SimTime ClusterModel::device_latency(int server) const {
  ACIC_CHECK(server >= 0 && server < static_cast<int>(dev_latency_.size()));
  return dev_latency_[static_cast<std::size_t>(server)];
}

sim::Semaphore& ClusterModel::server_op_queue(int server) {
  ACIC_CHECK(server >= 0 &&
             server < static_cast<int>(server_queues_.size()));
  return *server_queues_[static_cast<std::size_t>(server)];
}

SimTime ClusterModel::compute_time(double work, int rank) const {
  const int inst = instance_of_rank(rank);
  double slowdown = 1.0;
  if (hosts_part_time_server_[static_cast<std::size_t>(inst)]) {
    slowdown += kPartTimeComputeTax;
  }
  return work / spec_.core_speed * slowdown;
}

Money ClusterModel::cost_of(SimTime duration) const {
  return duration * static_cast<double>(total_instances_) *
         per_hour(spec_.price_per_hour);
}

sim::ResourceId ClusterModel::nic_tx(int instance) const {
  ACIC_CHECK(instance >= 0 && instance < total_instances_);
  return nic_tx_[static_cast<std::size_t>(instance)];
}

sim::ResourceId ClusterModel::nic_rx(int instance) const {
  ACIC_CHECK(instance >= 0 && instance < total_instances_);
  return nic_rx_[static_cast<std::size_t>(instance)];
}

sim::ResourceId ClusterModel::device_read_resource(int server) const {
  ACIC_CHECK(server >= 0 && server < static_cast<int>(dev_read_.size()));
  return dev_read_[static_cast<std::size_t>(server)];
}

sim::ResourceId ClusterModel::device_write_resource(int server) const {
  ACIC_CHECK(server >= 0 && server < static_cast<int>(dev_write_.size()));
  return dev_write_[static_cast<std::size_t>(server)];
}

}  // namespace acic::cloud
