#include "acic/io/middleware.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"

namespace acic::io {

ParallelIo::ParallelIo(cloud::ClusterModel& cluster, mpi::Runtime& mpi,
                       fs::FileSystem& filesystem,
                       profiler::IoTracer* tracer)
    : cluster_(cluster), mpi_(mpi), fs_(filesystem), tracer_(tracer) {}

double ParallelIo::inflation(IoInterface i) const {
  switch (i) {
    case IoInterface::kHdf5:
      return kHdf5Inflation;
    case IoInterface::kNetcdf:
      return kNetcdfInflation;
    default:
      return 1.0;
  }
}

void ParallelIo::trace_logical_requests(int rank, const Workload& w,
                                        bool is_write, int iteration) {
  if (!tracer_) return;
  const double ops = std::ceil(w.data_size / w.request_size);
  tracer_->record(rank, w.data_size, w.request_size, ops, is_write,
                  cluster_.simulator().now(), iteration);
}

sim::Task ParallelIo::run_rank(int rank, Workload w) {
  w.normalize();
  ACIC_CHECK_MSG(w.valid(), "invalid workload " << w.name);
  ACIC_CHECK(w.num_processes == cluster_.ranks());
  if (tracer_ && rank == 0) {
    tracer_->set_job_info(w.num_processes, w.interface, w.collective,
                          w.file_shared);
  }
  auto& sim = cluster_.simulator();

  co_await mpi_.barrier();
  // File-per-process opens one file per rank; a shared file is opened by
  // every rank too (each client performs its own metadata RPC).
  co_await fs_.open_file(rank);

  for (int iter = 0; iter < w.iterations; ++iter) {
    if (w.compute_per_iteration > 0.0) {
      co_await sim.delay(cluster_.compute_time(w.compute_per_iteration, rank));
    }
    if (w.comm_per_iteration > 0.0) {
      co_await mpi_.exchange_ring(rank, w.comm_per_iteration);
    }
    if (w.op != OpMix::kRead) {
      co_await io_phase(rank, w, /*is_write=*/true, iter);
    }
    if (w.op != OpMix::kWrite) {
      co_await io_phase(rank, w, /*is_write=*/false, iter);
    }
  }

  co_await fs_.close_file(rank);
  co_await mpi_.barrier();
}

sim::Task ParallelIo::io_phase(int rank, const Workload& w, bool is_write,
                               int iteration) {
  co_await mpi_.barrier();
  const SimTime start = cluster_.simulator().now();

  if (rank < w.num_io_processes) {
    trace_logical_requests(rank, w, is_write, iteration);
  }
  if (is_write && rank == 0 && is_mpiio_family(w.interface) &&
      inflation(w.interface) > 1.0) {
    co_await format_header(rank, w);
  }

  if (w.collective) {
    co_await collective_io(rank, w, is_write);
  } else {
    co_await independent_io(rank, w, is_write);
  }

  co_await mpi_.barrier();
  if (rank == 0) io_time_ += cluster_.simulator().now() - start;
}

sim::Task ParallelIo::format_header(int rank, const Workload& w) {
  // Self-describing formats serialise a header/superblock update.
  co_await fs_.request(rank, kHeaderBytes, /*is_write=*/true, w.file_shared,
                       /*op_weight=*/1.0);
}

sim::Task ParallelIo::chunked_requests(int rank, Bytes total_bytes,
                                       Bytes chunk_size, bool is_write,
                                       bool shared_file) {
  if (total_bytes <= 0.0) co_return;
  // Coalesce beyond kMaxChunksPerPhase simulated requests: per-request
  // fixed costs are preserved through the op weight (see
  // FileSystem::request), payload totals are exact.
  const double true_chunks = std::ceil(total_bytes / chunk_size);
  const int sim_chunks = static_cast<int>(
      std::min(true_chunks, static_cast<double>(kMaxChunksPerPhase)));
  const Bytes per_chunk = total_bytes / static_cast<double>(sim_chunks);
  const double weight = true_chunks / static_cast<double>(sim_chunks);
  for (int i = 0; i < sim_chunks; ++i) {
    co_await fs_.request(rank, per_chunk, is_write, shared_file, weight);
  }
}

sim::Task ParallelIo::independent_io(int rank, const Workload& w,
                                     bool is_write) {
  if (rank >= w.num_io_processes) co_return;
  const double factor = inflation(w.interface);
  co_await chunked_requests(rank, w.data_size * factor,
                            w.request_size * factor, is_write,
                            w.file_shared);
}

Bytes ParallelIo::aggregated_bytes(int agg, const Workload& w) const {
  int owned = 0;
  for (int r = 0; r < w.num_io_processes; ++r) {
    if (mpi_.aggregator_of(r) == agg) ++owned;
  }
  return static_cast<double>(owned) * w.data_size;
}

sim::Task ParallelIo::collective_io(int rank, const Workload& w,
                                    bool is_write) {
  const bool is_io_proc = rank < w.num_io_processes;
  const int agg = mpi_.aggregator_of(rank);
  const double factor = inflation(w.interface);

  if (is_write) {
    // Phase 1: shuffle data to the aggregators.
    if (is_io_proc && rank != agg) {
      co_await mpi_.send(rank, agg, w.data_size);
    }
    co_await mpi_.barrier();
    // Phase 2: aggregators issue large coalesced writes.
    if (mpi_.is_aggregator(rank)) {
      co_await chunked_requests(rank, aggregated_bytes(rank, w) * factor,
                                kCollectiveBuffer, /*is_write=*/true,
                                /*shared_file=*/true);
    }
    co_await mpi_.barrier();
  } else {
    // Phase 1: aggregators issue large coalesced reads.
    if (mpi_.is_aggregator(rank)) {
      co_await chunked_requests(rank, aggregated_bytes(rank, w) * factor,
                                kCollectiveBuffer, /*is_write=*/false,
                                /*shared_file=*/true);
    }
    co_await mpi_.barrier();
    // Phase 2: scatter to the I/O processes.
    if (is_io_proc && rank != agg) {
      co_await mpi_.send(agg, rank, w.data_size);
    }
    co_await mpi_.barrier();
  }
}

}  // namespace acic::io
