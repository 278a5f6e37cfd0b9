// Simulated MPI runtime.
//
// Ranks are coroutine processes; this runtime gives them the primitives
// HPC applications actually synchronise with: barriers, point-to-point
// sends (modelled as flows when they cross instances), ring exchanges, and
// log-depth collectives via a latency/bandwidth cost model.  It also owns
// the ROMIO-style collective-I/O aggregator assignment (one aggregator per
// instance — the piece that interacts with part-time I/O server placement
// in the paper's observation 1).
#pragma once

#include <vector>

#include "acic/cloud/cluster.hpp"
#include "acic/common/units.hpp"
#include "acic/simcore/sync.hpp"
#include "acic/simcore/task.hpp"

namespace acic::mpi {

class Runtime {
 public:
  explicit Runtime(cloud::ClusterModel& cluster);

  int size() const { return cluster_.ranks(); }

  /// Per-message launch latency between instances (TCP over 10 GbE).
  SimTime alpha() const { return 0.06 * kMillisecond; }
  /// Intra-instance (shared-memory) copy bandwidth.
  double shm_bandwidth() const { return 6.0e9; }

  /// MPI_Barrier: every rank must call it; released together with a
  /// log2(p) latency term.  Returns the barrier's own awaiter, so a
  /// barrier costs no coroutine frame.
  auto barrier() {
    return barrier_impl_.arrive_and_wait(alpha() * log2_ranks());
  }

  /// Point-to-point payload from `from` to `to`.  Crossing instances uses
  /// the flow network (NIC contention is real); staying on an instance
  /// costs a shared-memory copy.
  sim::Task send(int from, int to, Bytes bytes);

  /// Ring halo exchange: rank sends `bytes` to its +1 neighbour.  Every
  /// rank must call it (internally barriered).
  sim::Task exchange_ring(int rank, Bytes bytes);

  /// MPI_Allreduce cost model: recursive doubling, log2(p) rounds of
  /// (alpha + bytes/NIC).  Every rank must call it.
  sim::Task allreduce(int rank, Bytes bytes);

  /// Collective-I/O aggregators: the lowest rank on each compute instance.
  const std::vector<int>& aggregators() const { return aggregators_; }
  /// The aggregator responsible for `rank` (same instance).
  int aggregator_of(int rank) const;
  bool is_aggregator(int rank) const;

 private:
  double log2_ranks() const;

  cloud::ClusterModel& cluster_;
  sim::Barrier barrier_impl_;
  std::vector<int> aggregators_;
};

}  // namespace acic::mpi
