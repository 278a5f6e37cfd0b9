#include "acic/io/workload.hpp"

#include <algorithm>

#include "acic/common/error.hpp"

namespace acic::io {

const char* to_string(IoInterface i) {
  switch (i) {
    case IoInterface::kPosix:
      return "POSIX";
    case IoInterface::kMpiIo:
      return "MPI-IO";
    case IoInterface::kHdf5:
      return "HDF5";
    case IoInterface::kNetcdf:
      return "netCDF";
  }
  return "?";
}

const char* to_string(OpMix m) {
  switch (m) {
    case OpMix::kRead:
      return "read";
    case OpMix::kWrite:
      return "write";
    case OpMix::kReadWrite:
      return "read+write";
  }
  return "?";
}

IoInterface interface_from_string(std::string_view s) {
  if (s == "POSIX" || s == "posix") return IoInterface::kPosix;
  if (s == "MPI-IO" || s == "mpiio" || s == "mpi-io")
    return IoInterface::kMpiIo;
  if (s == "HDF5" || s == "hdf5") return IoInterface::kHdf5;
  if (s == "netCDF" || s == "netcdf") return IoInterface::kNetcdf;
  throw Error("unknown I/O interface: " + std::string(s));
}

OpMix opmix_from_string(std::string_view s) {
  if (s == "read") return OpMix::kRead;
  if (s == "write") return OpMix::kWrite;
  if (s == "read+write" || s == "rw") return OpMix::kReadWrite;
  throw Error("unknown op mix: " + std::string(s));
}

bool is_mpiio_family(IoInterface i) { return i != IoInterface::kPosix; }

void Workload::normalize() {
  num_io_processes = std::min(num_io_processes, num_processes);
  request_size = std::min(request_size, data_size);
  if (!is_mpiio_family(interface)) collective = false;
  if (!file_shared) collective = false;
}

bool Workload::valid() const {
  if (num_processes < 1 || num_io_processes < 1) return false;
  if (num_io_processes > num_processes) return false;
  if (iterations < 1) return false;
  if (data_size <= 0.0 || request_size <= 0.0) return false;
  if (request_size > data_size) return false;
  if (collective && !is_mpiio_family(interface)) return false;
  if (collective && !file_shared) return false;
  return true;
}

Bytes Workload::bytes_per_iteration() const {
  const double factor = (op == OpMix::kReadWrite) ? 2.0 : 1.0;
  return factor * data_size * static_cast<double>(num_io_processes);
}

Bytes Workload::total_bytes() const {
  return bytes_per_iteration() * static_cast<double>(iterations);
}

}  // namespace acic::io
