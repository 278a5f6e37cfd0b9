// Parallel I/O middleware: the layer between applications and the file
// system, covering the paper's interface dimension.
//
//  * POSIX / independent MPI-IO — every I/O process issues its own
//    request-sized calls straight to the file system.
//  * Collective MPI-IO — ROMIO-style two-phase I/O: I/O processes ship
//    their data to per-instance aggregators, which issue few large
//    coalesced requests.  With part-time I/O servers the aggregator often
//    sits on the same instance as a server, so the coalesced write never
//    leaves the box (paper §5.6 observation 1).
//  * HDF5 / netCDF — collective-capable MPI-IO plus self-describing
//    metadata: a serialized per-iteration header write and a small data
//    inflation factor.
//
// Every *logical* application request is reported to an optional IoTracer
// before the middleware transforms it — that is where the paper's
// profiling tool taps in.
#pragma once

#include "acic/cloud/cluster.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/io/workload.hpp"
#include "acic/mpi/runtime.hpp"
#include "acic/profiler/tracer.hpp"
#include "acic/simcore/task.hpp"

namespace acic::io {

class ParallelIo {
 public:
  /// Collective buffering granularity (ROMIO cb_buffer_size).
  static constexpr Bytes kCollectiveBuffer = 16.0 * MiB;
  /// Cap on *simulated* requests per rank per phase; additional requests
  /// are coalesced and charged via the FileSystem op-weight mechanism.
  static constexpr int kMaxChunksPerPhase = 32;
  /// Self-describing-format overheads.
  static constexpr Bytes kHeaderBytes = 64.0 * KiB;
  static constexpr double kHdf5Inflation = 1.03;
  static constexpr double kNetcdfInflation = 1.02;

  ParallelIo(cloud::ClusterModel& cluster, mpi::Runtime& mpi,
             fs::FileSystem& filesystem,
             profiler::IoTracer* tracer = nullptr);

  /// Full lifecycle of one rank: startup barrier, open, iterate
  /// (compute -> communicate -> I/O), close.  Spawn one per rank; all
  /// ranks must run the same workload.
  sim::Task run_rank(int rank, Workload workload);

  /// Wall time spent inside I/O phases (measured on rank 0, barriers to
  /// barrier).
  SimTime io_time() const { return io_time_; }

 private:
  sim::Task chunked_requests(int rank, Bytes total_bytes, Bytes chunk_size,
                             bool is_write, bool shared_file);
  sim::Task io_phase(int rank, const Workload& w, bool is_write,
                     int iteration);
  sim::Task independent_io(int rank, const Workload& w, bool is_write);
  sim::Task collective_io(int rank, const Workload& w, bool is_write);
  sim::Task format_header(int rank, const Workload& w);

  /// Bytes aggregator `agg` coalesces per direction per iteration.
  Bytes aggregated_bytes(int agg, const Workload& w) const;
  double inflation(IoInterface i) const;
  void trace_logical_requests(int rank, const Workload& w, bool is_write,
                              int iteration);

  cloud::ClusterModel& cluster_;
  mpi::Runtime& mpi_;
  fs::FileSystem& fs_;
  profiler::IoTracer* tracer_;
  SimTime io_time_ = 0.0;
};

}  // namespace acic::io
