// Shared / parallel file-system models: NFS (nfs.hpp) and the striped
// model (striped.hpp) that PVFS2 and Lustre run on with their own costs.
//
// Both expose the same client-side contract: a `request()` coroutine that
// performs one contiguous read or write from a rank, plus open/close
// metadata operations.  The behavioural contrast that drives the paper's
// results lives here:
//
//  * NFS — a single server; all traffic funnels through its NIC and
//    device.  Per-request software overhead is low and the client-side
//    write-back cache hides most of the device latency on writes, which is
//    why NFS wins for applications issuing small amounts of POSIX I/O
//    (paper §5.6 obs. 4).  Concurrent writers to one shared file pay a
//    consistency/locking penalty.
//
//  * PVFS2 — data is striped round-robin in `stripe_size` units over N
//    servers, so one large request fans out into parallel per-server
//    transfers (aggregate bandwidth scales with servers, obs. 2), at the
//    price of a higher per-request software cost and a per-stripe
//    splitting cost.  Metadata operations serialise at the metadata
//    server (server 0).  No shared-file locking penalty (PVFS2 has no
//    POSIX lock semantics).
#pragma once

#include <cstdint>
#include <memory>

#include "acic/cloud/cluster.hpp"
#include "acic/common/check.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/units.hpp"
#include "acic/fs/retry.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/task.hpp"

namespace acic::fs {

/// The file-system values a run can vary.  Each model's software costs
/// are substrate data beside it (NfsModel's constants, the StripedCosts
/// tables in pvfs2.cpp and lustre.cpp); the two cost fields here are the
/// ones bench/ablation_model_knobs perturbs.
struct FsTuning {
  /// Fraction of the NFS server instance's RAM usable as write-back
  /// cache (0 disables the cache entirely — ablation a).
  double nfs_cache_fraction = 0.5;
  /// Client splitting work per stripe, for PVFS2 and Lustre alike
  /// (0 removes it — ablation b).
  SimTime pvfs_per_stripe_cpu = 0.015 * kMillisecond;

  /// Client-side deadline/retry/backoff behaviour (disabled by default,
  /// which preserves the legacy wait-forever semantics bit-for-bit).
  RetryPolicy retry;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Perform one contiguous request of `bytes` issued by `rank`.
  /// `shared_file` marks requests into a single file shared by all ranks.
  ///
  /// `op_weight` supports the middleware's request coalescing: a call
  /// with weight w stands for w back-to-back application requests whose
  /// payloads have been merged into `bytes`.  Every fixed per-request
  /// cost (software overhead, RPC, seek) is charged w times; bandwidth
  /// terms are unchanged.  This bounds simulated event counts for jobs
  /// issuing millions of small calls without altering their totals.
  virtual sim::Task request(int rank, Bytes bytes, bool is_write,
                            bool shared_file, double op_weight = 1.0) = 0;

  /// Metadata: open one file on behalf of `rank`.
  virtual sim::Task open_file(int rank) = 0;
  /// Metadata: close/flush.
  virtual sim::Task close_file(int rank) = 0;

  virtual const char* name() const = 0;

  std::uint64_t requests_served() const { return requests_; }
  Bytes bytes_moved() const { return bytes_; }

  /// Arm the deadline/retry layer (no-op for a disabled policy).  The
  /// backoff jitter stream is seeded from `seed`, so retry schedules are
  /// deterministic per run.
  void configure_fault_tolerance(const RetryPolicy& policy,
                                 std::uint64_t seed);

  /// Fault-reaction totals accumulated by resilient_transfer().
  const FaultStats& fault_stats() const { return fault_stats_; }

 protected:
  /// True when configure_fault_tolerance() armed a retry policy.  Payloads
  /// go through resilient_transfer() only then; otherwise they await the
  /// network's transfer() directly, which allocates nothing.
  bool retry_armed() const { return retry_.enabled; }

  /// Move a payload with the armed deadline/retry/backoff reaction.  An
  /// abandoned payload counts as a failed request; the coroutine still
  /// returns normally so the rank can finish — the runner downgrades the
  /// run's outcome instead.
  sim::Task resilient_transfer(cloud::ClusterModel& cluster,
                               sim::FlowPath path, Bytes bytes);

  void account(Bytes bytes, double op_weight) {
    ACIC_EXPECTS(bytes >= 0.0, "negative request size " << bytes);
    ACIC_EXPECTS(op_weight > 0.0, "non-positive op weight " << op_weight);
    requests_ += static_cast<std::uint64_t>(op_weight + 0.5);
    bytes_ += bytes;
  }

 private:
  std::uint64_t requests_ = 0;
  Bytes bytes_ = 0.0;
  RetryPolicy retry_;
  FaultStats fault_stats_;
  Rng retry_rng_{0};
};

/// Instantiate the model selected by the cluster's IoConfig.
std::unique_ptr<FileSystem> make_filesystem(cloud::ClusterModel& cluster,
                                            const FsTuning& tuning = {});

}  // namespace acic::fs
