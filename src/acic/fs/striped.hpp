// The striped parallel file-system model behind both PVFS2 and Lustre:
// round-robin striping over N data servers with the metadata service
// co-located on server 0.  The two differ only in software costs, so each
// plugin's factory hands the model its own StripedCosts table.  See
// filesystem.hpp for the behavioural contrast with NFS.
#pragma once

#include "acic/fs/filesystem.hpp"

namespace acic::fs {

/// Software costs of one striped file system.
struct StripedCosts {
  SimTime client_overhead = 0.0;  ///< client software, per original request
  SimTime per_stripe_cpu = 0.0;   ///< client splitting work, per stripe
  SimTime server_overhead = 0.0;  ///< server pipeline, per request served
  /// Fractions of the device latency a write / a read pays.
  double write_latency_factor = 1.0;
  double read_latency_factor = 1.0;
  /// Lock acquisition per shared-file write (0 for lock-free semantics).
  SimTime shared_write_lock = 0.0;
  /// Metadata service time of an open / a close on server 0.
  SimTime open_cost = 0.0;
  SimTime close_cost = 0.0;
};

/// PVFS2's cost table (pvfs2.cpp).  Its per_stripe_cpu stays 0: the
/// factory fills in the run's FsTuning::pvfs_per_stripe_cpu.  RunKey v1
/// hashes the other values under its frozen `t.pvfs_*` tags.
extern const StripedCosts kPvfs2Costs;

class StripedModel final : public FileSystem {
 public:
  /// `name` is the display name metrics use (`fs.<name>.*`); the model
  /// keeps the pointer, so pass a string literal.
  StripedModel(cloud::ClusterModel& cluster, const char* name,
               StripedCosts costs);

  sim::Task request(int rank, Bytes bytes, bool is_write, bool shared_file,
                    double op_weight) override;
  sim::Task open_file(int rank) override;
  sim::Task close_file(int rank) override;
  const char* name() const override { return name_; }

  /// How many distinct servers a request of `bytes` touches (exposed for
  /// tests: small requests on large stripes hit one server; large
  /// requests fan out to all of them).
  int servers_touched(Bytes bytes) const;

 private:
  sim::Task server_chunk(int rank, int server, Bytes bytes, bool is_write,
                         double op_weight);
  sim::Task metadata_op(int rank, SimTime cost);

  cloud::ClusterModel& cluster_;
  const char* name_;
  StripedCosts costs_;
  Bytes stripe_;
  int servers_;
};

}  // namespace acic::fs
