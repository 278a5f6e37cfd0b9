// I/O tracing and characteristic extraction — the paper's profiling tool.
//
// The middleware reports every *logical* application I/O call (before
// collective aggregation or striping transforms it) to an attached
// IoTracer.  `infer_workload()` then reconstructs the nine Table 1
// application characteristics from the trace, which is exactly what users
// feed to the ACIC predictor when they cannot state the numbers
// themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "acic/common/units.hpp"
#include "acic/io/workload.hpp"

namespace acic::profiler {

struct TraceRecord {
  int rank = 0;
  /// Total payload covered by this record.
  Bytes total_bytes = 0.0;
  /// Size of the individual application calls within it.
  Bytes request_bytes = 0.0;
  /// Number of application calls the record stands for.
  double op_count = 1.0;
  bool is_write = false;
  SimTime at = 0.0;
  int iteration = 0;
};

class IoTracer {
 public:
  /// Called by the middleware once per rank/iteration/direction: `ops`
  /// application calls of `request_bytes` each, `total_bytes` in sum.
  void record(int rank, Bytes total_bytes, Bytes request_bytes, double ops,
              bool is_write, SimTime at, int iteration);

  /// Job-level facts the trace cannot see request-by-request.
  void set_job_info(int num_processes, io::IoInterface interface,
                    bool collective, bool file_shared);

  bool empty() const { return records_.empty(); }

  std::uint64_t op_count(bool writes) const;
  Bytes byte_count(bool writes) const;

  /// Reconstruct the nine application I/O characteristics.
  io::Workload infer_workload() const;

  void clear();

 private:
  std::vector<TraceRecord> records_;
  int num_processes_ = 0;
  io::IoInterface interface_ = io::IoInterface::kPosix;
  bool collective_ = false;
  bool file_shared_ = true;
  bool job_info_set_ = false;
};

}  // namespace acic::profiler
