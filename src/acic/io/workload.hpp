// Workload description: the paper's nine application I/O characteristics
// (Table 1, bottom half) plus the application-side compute/communication
// phases that IOR does not model but real applications have.
#pragma once

#include <string>
#include <string_view>

#include "acic/common/units.hpp"

namespace acic::io {

/// I/O interface used by the application.  HDF5 and netCDF run on top of
/// MPI-IO and add self-describing metadata overhead.
enum class IoInterface {
  kPosix,
  kMpiIo,
  kHdf5,
  kNetcdf,
};

enum class OpMix {
  kRead,
  kWrite,
  kReadWrite,
};

const char* to_string(IoInterface i);
const char* to_string(OpMix m);
IoInterface interface_from_string(std::string_view s);
OpMix opmix_from_string(std::string_view s);

/// True for the MPI-IO family (anything that can do collective I/O).
bool is_mpiio_family(IoInterface i);

struct Workload {
  std::string name = "ior";

  // --- The nine Table 1 application characteristics -------------------
  int num_processes = 32;      ///< ranks in the job
  int num_io_processes = 32;   ///< ranks that perform I/O
  IoInterface interface = IoInterface::kMpiIo;
  int iterations = 1;          ///< I/O iterations over the run
  Bytes data_size = 16.0 * MiB;   ///< bytes per I/O process per iteration
  Bytes request_size = 4.0 * MiB; ///< bytes per I/O call
  OpMix op = OpMix::kWrite;
  bool collective = false;     ///< cooperative two-phase I/O
  bool file_shared = true;     ///< single shared file vs file-per-process

  // --- Application-side phases (zero for pure IOR runs) ---------------
  /// Compute seconds (at cc2 core speed) per rank per iteration.
  double compute_per_iteration = 0.0;
  /// Ring-exchange payload per rank per iteration.
  Bytes comm_per_iteration = 0.0;

  /// Clamp request size to data size and I/O processes to processes —
  /// the paper's validity rules for the characteristic space.
  void normalize();
  bool valid() const;

  /// Total bytes the job moves per iteration.
  Bytes bytes_per_iteration() const;
  /// Total bytes over the whole run (read+write counted once each).
  Bytes total_bytes() const;
};

}  // namespace acic::io
