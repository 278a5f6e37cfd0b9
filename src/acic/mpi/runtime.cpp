#include "acic/mpi/runtime.hpp"

#include <cmath>

#include "acic/common/error.hpp"

namespace acic::mpi {

Runtime::Runtime(cloud::ClusterModel& cluster)
    : cluster_(cluster),
      barrier_impl_(cluster.simulator(),
                    static_cast<std::size_t>(cluster.ranks())) {
  const int ppn = cluster_.ranks_per_instance();
  for (int rank = 0; rank < cluster_.ranks(); rank += ppn) {
    aggregators_.push_back(rank);
  }
}

double Runtime::log2_ranks() const {
  return std::log2(static_cast<double>(std::max(2, cluster_.ranks())));
}

sim::Task Runtime::send(int from, int to, Bytes bytes) {
  const sim::FlowPath path = cluster_.comm_path(from, to);
  if (path.empty()) {
    // Same instance: shared-memory copy.
    co_await cluster_.simulator().delay(1.0e-6 + bytes / shm_bandwidth());
  } else {
    co_await cluster_.simulator().delay(alpha());
    co_await cluster_.network().transfer(path, bytes);
  }
}

sim::Task Runtime::exchange_ring(int rank, Bytes bytes) {
  const int next = (rank + 1) % cluster_.ranks();
  co_await send(rank, next, bytes);
  co_await barrier();
}

sim::Task Runtime::allreduce(int rank, Bytes bytes) {
  (void)rank;
  co_await barrier();
  const double rounds = log2_ranks();
  const double bw = cluster_.spec().nic_bandwidth;
  co_await cluster_.simulator().delay(rounds * (alpha() + bytes / bw));
}

int Runtime::aggregator_of(int rank) const {
  const int ppn = cluster_.ranks_per_instance();
  ACIC_CHECK(rank >= 0 && rank < cluster_.ranks());
  return (rank / ppn) * ppn;
}

bool Runtime::is_aggregator(int rank) const {
  return aggregator_of(rank) == rank;
}

}  // namespace acic::mpi
