// NFS model: one server, low per-op overhead, server-side write-back
// caching, shared-file write locking.  See filesystem.hpp for the
// behavioural contrast with PVFS2.
//
// Write-back cache: a 2013 CCI has tens of GB of RAM, so an async NFS
// export absorbs bursty checkpoint writes at NIC speed and drains them to
// the device during the application's compute phases.  We model the dirty
// set as a leaky bucket: writes that fit under the cache limit skip the
// device resource; the dirty volume decays at the device's write
// bandwidth.  The export is asynchronous (the 2013 default for this kind
// of setup): close() does not wait for the server's own write-back, so a
// checkpoint can rest in server RAM when the application exits — the
// paper measures application wall time, which is what we report.  Reads
// are always cold — the paper clears caches between runs.
#pragma once

#include "acic/fs/filesystem.hpp"

namespace acic::fs {

class NfsModel final : public FileSystem {
 public:
  /// Software costs: substrate data, like the striped systems'
  /// StripedCosts tables.  Only the cache size comes from FsTuning.
  static constexpr SimTime kClientOverhead = 0.15 * kMillisecond;
  static constexpr SimTime kServerOverhead = 0.10 * kMillisecond;
  /// Fraction of device latency a write pays (write-back cache absorbs
  /// the rest); reads pay the full seek.
  static constexpr double kWriteLatencyFactor = 0.25;
  static constexpr SimTime kSharedWritePenalty = 0.60 * kMillisecond;
  static constexpr SimTime kOpenCost = 0.20 * kMillisecond;
  /// Close-to-open flush.
  static constexpr SimTime kCloseCost = 0.50 * kMillisecond;

  NfsModel(cloud::ClusterModel& cluster, const FsTuning& tuning);
  /// Flushes this run's write-back cache hit/miss totals into the
  /// process-wide metrics registry (`fs.NFS.cache_hits` / `.cache_misses`).
  ~NfsModel() override;

  sim::Task request(int rank, Bytes bytes, bool is_write, bool shared_file,
                    double op_weight) override;
  sim::Task open_file(int rank) override;
  sim::Task close_file(int rank) override;
  const char* name() const override { return "NFS"; }

  /// Currently dirty (cached, not yet on the device) bytes.
  Bytes dirty_bytes() const;

 private:
  sim::Task metadata_op(int rank, SimTime cost);
  /// Apply leaky-bucket decay of the dirty set up to now.
  void drain_to_now() const;

  cloud::ClusterModel& cluster_;
  Bytes cache_capacity_ = 0.0;
  mutable Bytes dirty_ = 0.0;
  mutable SimTime last_drain_ = 0.0;
  std::uint64_t cache_hits_ = 0;    ///< writes absorbed by the cache
  std::uint64_t cache_misses_ = 0;  ///< writes that touched the device
};

}  // namespace acic::fs
