// The paper's 15-dimensional exploration space (Table 1): six cloud I/O
// system dimensions concatenated with nine application I/O
// characteristics.
//
// A Point is the numeric encoding of one (configuration, characteristics)
// pair: categorical values are small integers, byte/count values are
// their actual magnitudes.  The encoding is what PB design and the CART
// learner operate on; `config_of` / `workload_of` decode a Point back
// into executable objects.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/io/workload.hpp"

namespace acic::core {

/// Dimension indices into a Point (Table 1 order: system block first).
enum Dim : int {
  kDevice = 0,      // 0 = EBS, 1 = ephemeral
  kFileSystem,      // 0 = NFS, 1 = PVFS2
  kInstanceType,    // 0 = cc1.4xlarge, 1 = cc2.8xlarge
  kIoServers,       // {1, 2, 4}
  kPlacement,       // 0 = part-time, 1 = dedicated
  kStripeSize,      // bytes; 0 for NFS
  kNumProcs,        // {32 .. 256}
  kNumIoProcs,      // {32 .. 256}
  kInterface,       // 0 = POSIX, 1 = MPI-IO family
  kIterations,      // {1, 10, 100}
  kDataSize,        // bytes per I/O process per iteration
  kRequestSize,     // bytes per call
  kOpType,          // 0 = read, 1 = write, 0.5 = mixed
  kCollective,      // 0 / 1
  kFileSharing,     // 0 = individual files, 1 = shared file
  kNumDims
};

/// The system block is the first kNumSystemDims dimensions of a Point.
constexpr int kNumSystemDims = kNumProcs;

using Point = std::array<double, kNumDims>;

struct DimensionSpec {
  Dim dim;
  std::string name;          ///< Table 1 row name
  std::vector<double> values;  ///< sampled value range (ascending)
  bool is_system = false;    ///< system configuration vs app characteristic
};

class ParamSpace {
 public:
  /// Table 1, in order; values are the paper's sampled ranges.
  static const std::vector<DimensionSpec>& dimensions();

  static const DimensionSpec& dimension(Dim d);

  /// Low/high ends of a dimension's range (PB design levels).
  static double low(Dim d);
  static double high(Dim d);

  /// Paper's validity rules (NFS => 1 server & no stripe; request <=
  /// data; I/O procs <= procs; collective => MPI-IO + shared file).
  static bool valid(const Point& p);

  /// Extension hook (§2 "expandability"): per-dimension replacement value
  /// sets, e.g. adding the SSD device class the platform just launched.
  /// Dimensions without an entry keep their Table 1 grid.
  struct ValueOverrides {
    std::vector<std::pair<Dim, std::vector<double>>> entries;
    const std::vector<double>* find(Dim d) const;
  };

  /// Effective sampled values for a dimension under optional overrides.
  static const std::vector<double>& values_of(
      Dim d, const ValueOverrides* overrides = nullptr);

  /// Repair an arbitrary assignment into the nearest valid Point,
  /// snapping onto the (possibly overridden) sampled grid.
  static Point repaired(Point p,
                        const ValueOverrides* overrides = nullptr);

  /// Decode the system half into an IoConfig.
  static cloud::IoConfig config_of(const Point& p);
  /// Decode the application half into an (IOR-style) workload.
  static io::Workload workload_of(const Point& p);

  /// Encode a (config, workload) pair.
  static Point encode(const cloud::IoConfig& config,
                      const io::Workload& workload);
  /// Write one half of `encode` into the kNumDims-wide row `p`: the
  /// system columns [0, kNumSystemDims) from `config`, or the workload
  /// columns [kNumSystemDims, kNumDims) from `workload`.
  static void encode_system(const cloud::IoConfig& config, double* p);
  static void encode_workload(const io::Workload& workload, double* p);

  /// Number of raw value combinations across all 15 dimensions
  /// (~1.77 M, the paper's footnote 1).
  static double raw_combinations();

  /// Human-readable dump of one point.
  static std::string describe(const Point& p);
};

}  // namespace acic::core
