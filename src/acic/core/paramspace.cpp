#include "acic/core/paramspace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::core {

namespace {

double nearest(const std::vector<double>& values, double x) {
  double best = values.front();
  for (double v : values) {
    if (std::abs(v - x) < std::abs(best - x)) best = v;
  }
  return best;
}

// Sorted union of one grid across the default-grid filesystems.  For
// the seed substrates this reproduces the paper's Table 1 grids:
// io_servers {1,2,4}, stripe_sizes {64 KiB, 4 MiB}.
template <class T>
std::vector<double> grid_union(
    std::vector<T> plugin::FilesystemPlugin::*grid) {
  std::vector<double> out;
  for (const auto* fs : plugin::default_grid_filesystems()) {
    const auto& values = fs->*grid;
    out.insert(out.end(), values.begin(), values.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<double> grid_filesystem_levels() {
  std::vector<double> out;
  for (const auto* fs : plugin::default_grid_filesystems()) {
    out.push_back(fs->level());
  }
  return out;  // already level-sorted
}

}  // namespace

const std::vector<DimensionSpec>& ParamSpace::dimensions() {
  // The system-side grids come from the filesystem table.
  static const std::vector<DimensionSpec> kDims = {
      {kDevice, "Disk device", {0, 1}, true},
      {kFileSystem, "File system", grid_filesystem_levels(), true},
      {kInstanceType, "Instance type", {0, 1}, true},
      {kIoServers, "I/O server number",
       grid_union(&plugin::FilesystemPlugin::io_servers), true},
      {kPlacement, "Placement", {0, 1}, true},
      {kStripeSize, "Stripe size",
       grid_union(&plugin::FilesystemPlugin::stripe_sizes), true},
      {kNumProcs, "Num. of all processes", {32, 64, 128, 256}, false},
      {kNumIoProcs, "Num. of I/O processes", {32, 64, 128, 256}, false},
      {kInterface, "I/O interface", {0, 1}, false},
      {kIterations, "I/O iteration count", {1, 10, 100}, false},
      {kDataSize,
       "Data size",
       {1.0 * MiB, 4.0 * MiB, 16.0 * MiB, 32.0 * MiB, 128.0 * MiB,
        512.0 * MiB},
       false},
      {kRequestSize,
       "Request size",
       {256.0 * KiB, 4.0 * MiB, 16.0 * MiB, 128.0 * MiB},
       false},
      // 0 = read, 1 = write, 0.5 = read+write in one run (IOR -w -r).
      // The paper's Table 1 lists {read, write}; we also sample the mix
      // because two of the four evaluation applications are read+write.
      {kOpType, "Read and/or write", {0, 0.5, 1}, false},
      {kCollective, "Collective", {0, 1}, false},
      {kFileSharing, "File sharing", {0, 1}, false},
  };
  return kDims;
}

const DimensionSpec& ParamSpace::dimension(Dim d) {
  const auto& dims = dimensions();
  ACIC_CHECK(d >= 0 && d < kNumDims);
  ACIC_CHECK(dims[static_cast<std::size_t>(d)].dim == d);
  return dims[static_cast<std::size_t>(d)];
}

double ParamSpace::low(Dim d) { return dimension(d).values.front(); }
double ParamSpace::high(Dim d) { return dimension(d).values.back(); }

bool ParamSpace::valid(const Point& p) {
  const bool single =
      plugin::filesystem_for_level(p[kFileSystem]).single_server;
  if (single && p[kIoServers] != 1) return false;
  if (single && p[kStripeSize] != 0.0) return false;
  if (!single && p[kStripeSize] <= 0.0) return false;
  if (p[kRequestSize] > p[kDataSize]) return false;
  if (p[kNumIoProcs] > p[kNumProcs]) return false;
  const bool posix = p[kInterface] < 0.5;
  if (posix && p[kCollective] > 0.5) return false;
  if (p[kCollective] > 0.5 && p[kFileSharing] < 0.5) return false;
  return true;
}

const std::vector<double>* ParamSpace::ValueOverrides::find(Dim d) const {
  for (const auto& [dim, values] : entries) {
    if (dim == d) return &values;
  }
  return nullptr;
}

const std::vector<double>& ParamSpace::values_of(
    Dim d, const ValueOverrides* overrides) {
  if (overrides) {
    if (const auto* v = overrides->find(d)) return *v;
  }
  return dimension(d).values;
}

Point ParamSpace::repaired(Point p, const ValueOverrides* overrides) {
  // Snap every dimension onto its sampled grid first.
  for (const auto& d : dimensions()) {
    p[d.dim] = nearest(values_of(d.dim, overrides), p[d.dim]);
  }
  if (plugin::filesystem_for_level(p[kFileSystem]).single_server) {
    p[kIoServers] = 1;
    p[kStripeSize] = 0.0;
  }
  p[kRequestSize] = std::min(p[kRequestSize], p[kDataSize]);
  p[kNumIoProcs] = std::min(p[kNumIoProcs], p[kNumProcs]);
  if (p[kInterface] < 0.5) p[kCollective] = 0;
  if (p[kFileSharing] < 0.5) p[kCollective] = 0;
  ACIC_CHECK(valid(p));
  return p;
}

cloud::IoConfig ParamSpace::config_of(const Point& p) {
  cloud::IoConfig c;
  // 0 = EBS, 1 = ephemeral, 2 = SSD (extension value; see ValueOverrides).
  c.device = p[kDevice] < 0.5
                 ? storage::DeviceType::kEbs
                 : (p[kDevice] < 1.5 ? storage::DeviceType::kEphemeral
                                     : storage::DeviceType::kSsd);
  // Level → substrate via nearest registered level (0 = NFS,
  // 1 = PVFS2, 2 = Lustre for the seeds; see ValueOverrides).
  c.fs = plugin::filesystem_for_level(p[kFileSystem]).type;
  c.instance = p[kInstanceType] < 0.5 ? cloud::InstanceType::kCc1_4xlarge
                                      : cloud::InstanceType::kCc2_8xlarge;
  c.io_servers = static_cast<int>(p[kIoServers] + 0.5);
  c.placement = p[kPlacement] < 0.5 ? cloud::Placement::kPartTime
                                    : cloud::Placement::kDedicated;
  c.stripe_size = p[kStripeSize];
  ACIC_CHECK_MSG(c.valid(), "point decodes to invalid config");
  return c;
}

io::Workload ParamSpace::workload_of(const Point& p) {
  io::Workload w;
  w.name = "IOR";
  w.num_processes = static_cast<int>(p[kNumProcs] + 0.5);
  w.num_io_processes = static_cast<int>(p[kNumIoProcs] + 0.5);
  w.interface = p[kInterface] < 0.5 ? io::IoInterface::kPosix
                                    : io::IoInterface::kMpiIo;
  w.iterations = static_cast<int>(p[kIterations] + 0.5);
  w.data_size = p[kDataSize];
  w.request_size = p[kRequestSize];
  if (p[kOpType] < 0.25) {
    w.op = io::OpMix::kRead;
  } else if (p[kOpType] > 0.75) {
    w.op = io::OpMix::kWrite;
  } else {
    w.op = io::OpMix::kReadWrite;
  }
  w.collective = p[kCollective] > 0.5;
  w.file_shared = p[kFileSharing] > 0.5;
  w.normalize();
  ACIC_CHECK_MSG(w.valid(), "point decodes to invalid workload");
  return w;
}

Point ParamSpace::encode(const cloud::IoConfig& config,
                         const io::Workload& workload) {
  Point p{};
  switch (config.device) {
    case storage::DeviceType::kEbs:
      p[kDevice] = 0;
      break;
    case storage::DeviceType::kEphemeral:
      p[kDevice] = 1;
      break;
    case storage::DeviceType::kSsd:
      p[kDevice] = 2;
      break;
  }
  const auto& substrate = plugin::filesystem_for(config.fs);
  p[kFileSystem] = substrate.level();
  p[kInstanceType] =
      config.instance == cloud::InstanceType::kCc1_4xlarge ? 0 : 1;
  p[kIoServers] = config.io_servers;
  p[kPlacement] = config.placement == cloud::Placement::kPartTime ? 0 : 1;
  p[kStripeSize] = substrate.single_server ? 0.0 : config.stripe_size;
  p[kNumProcs] = workload.num_processes;
  p[kNumIoProcs] = workload.num_io_processes;
  p[kInterface] = io::is_mpiio_family(workload.interface) ? 1 : 0;
  p[kIterations] = workload.iterations;
  p[kDataSize] = workload.data_size;
  p[kRequestSize] = workload.request_size;
  switch (workload.op) {
    case io::OpMix::kRead:
      p[kOpType] = 0.0;
      break;
    case io::OpMix::kWrite:
      p[kOpType] = 1.0;
      break;
    case io::OpMix::kReadWrite:
      p[kOpType] = 0.5;
      break;
  }
  p[kCollective] = workload.collective ? 1 : 0;
  p[kFileSharing] = workload.file_shared ? 1 : 0;
  return p;
}

double ParamSpace::raw_combinations() {
  double n = 1.0;
  for (const auto& d : dimensions()) {
    n *= static_cast<double>(d.values.size());
  }
  return n;
}

std::string ParamSpace::describe(const Point& p) {
  std::ostringstream os;
  os << config_of(p).label() << " | ";
  const auto w = workload_of(p);
  os << "np=" << w.num_processes << " io=" << w.num_io_processes << " "
     << io::to_string(w.interface) << " iters=" << w.iterations
     << " data=" << format_bytes(w.data_size)
     << " req=" << format_bytes(w.request_size) << " "
     << io::to_string(w.op) << (w.collective ? " coll" : "")
     << (w.file_shared ? " shared" : " indiv");
  return os.str();
}

}  // namespace acic::core
