// Provisioned cluster topology: maps an IoConfig + job size onto concrete
// simulated instances, NIC resources, storage devices and prices.
//
// This is the piece that substitutes for the paper's EC2 testbed.  It
// builds the flow-network resources that make contention behave like the
// measured platform:
//   * every instance gets a transmit and a receive NIC resource
//     (10 GbE full duplex);
//   * every I/O server gets a read and a write device resource sized by
//     its RAID-0 set; EBS devices additionally transit the hosting
//     instance's NIC (the defining EBS penalty);
//   * part-time servers live on compute instances (data locality, no extra
//     bill, but shared NIC and a compute-slowdown tax); dedicated servers
//     get their own billed instances;
//   * every capacity is multiplied by seeded log-normal jitter to model
//     multi-tenancy.
#pragma once

#include <memory>
#include <vector>

#include "acic/cloud/instance.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/units.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/sync.hpp"

namespace acic::cloud {

class ClusterModel {
 public:
  struct Options {
    int num_processes = 16;  ///< MPI ranks in the job
    IoConfig config;
    /// Log-normal sigma for multi-tenant capacity jitter (0 = exact).
    double jitter_sigma = 0.06;
    std::uint64_t seed = 1;
  };

  ClusterModel(sim::Simulator& sim, Options options);

  sim::Simulator& simulator() { return sim_; }
  sim::FlowNetwork& network() { return net_; }
  const Options& options() const { return options_; }
  const InstanceSpec& spec() const { return spec_; }

  int ranks() const { return options_.num_processes; }
  int ranks_per_instance() const { return spec_.cores; }
  int num_compute_instances() const { return compute_instances_; }
  /// Total billed instances (compute + dedicated I/O servers).
  int num_instances() const { return total_instances_; }
  int num_io_servers() const { return options_.config.io_servers; }

  int instance_of_rank(int rank) const;
  int instance_of_server(int server) const;
  bool rank_colocated_with_server(int rank, int server) const;

  /// Resource chain for writing `rank`'s data onto `server`'s device.
  sim::FlowPath write_path(int rank, int server) const;
  /// Resource chain for a write absorbed by the server's page cache: NIC
  /// hops only, no device (empty when rank and server share an instance —
  /// a memory copy).
  sim::FlowPath cached_write_path(int rank, int server) const;
  /// Sustainable drain rate of `server`'s write-back cache (device write
  /// bandwidth, NIC-capped for network-attached devices).
  double drain_bandwidth(int server) const;
  /// Resource chain for reading from `server`'s device into `rank`.
  sim::FlowPath read_path(int rank, int server) const;
  /// Resource chain for an MPI message between two ranks (empty when they
  /// share an instance — intra-node communication is effectively free at
  /// the fidelity of this model).
  sim::FlowPath comm_path(int from_rank, int to_rank) const;

  /// Per-request device overhead (seek/queue) at a server.
  SimTime device_latency(int server) const;
  /// One-permit queue serialising per-request overhead at each server.
  sim::Semaphore& server_op_queue(int server);
  /// Network round-trip cost per RPC between distinct instances.
  SimTime network_rpc_latency() const { return 0.2 * kMillisecond; }

  /// Wall time to execute `work` seconds-at-cc2-core-speed of computation
  /// on `rank`, accounting for core speed and part-time server tax.
  SimTime compute_time(double work, int rank) const;

  /// Paper Eq. (1): cost = time x instances x unit price.
  Money cost_of(SimTime duration) const;

  /// NIC resources (exposed for failure injection and tests).
  sim::ResourceId nic_tx(int instance) const;
  sim::ResourceId nic_rx(int instance) const;
  sim::ResourceId device_read_resource(int server) const;
  sim::ResourceId device_write_resource(int server) const;

 private:
  sim::Simulator& sim_;
  Options options_;
  const InstanceSpec& spec_;
  sim::FlowNetwork net_;
  Rng rng_;

  int compute_instances_ = 0;
  int total_instances_ = 0;

  std::vector<sim::ResourceId> nic_tx_;
  std::vector<sim::ResourceId> nic_rx_;
  std::vector<sim::ResourceId> dev_read_;
  std::vector<sim::ResourceId> dev_write_;
  std::vector<int> server_instance_;
  std::vector<SimTime> dev_latency_;
  std::vector<std::unique_ptr<sim::Semaphore>> server_queues_;
  std::vector<bool> hosts_part_time_server_;
};

}  // namespace acic::cloud
