#include "acic/fs/filesystem.hpp"

#include <algorithm>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::fs {

void FileSystem::configure_fault_tolerance(const RetryPolicy& policy,
                                           std::uint64_t seed) {
  ACIC_CHECK_MSG(policy.valid(), "invalid retry policy");
  retry_ = policy;
  // Decorrelate from the cluster's jitter stream without a new knob.
  retry_rng_ = Rng(seed ^ 0x8e712ffULL);
}

sim::Task FileSystem::resilient_transfer(cloud::ClusterModel& cluster,
                                         sim::FlowPath path, Bytes bytes) {
  ACIC_EXPECTS(retry_.enabled,
               "resilient_transfer() without an armed retry policy");
  auto& sim = cluster.simulator();
  // The request's overall deadline: max_attempts full windows from the
  // first send.  Backoff sleeps are clamped to the remaining budget and
  // the final attempt's window is shortened to whatever is left, so the
  // request resolves — completed, or reported failed — no later than the
  // deadline instead of backoff_cap seconds past it.
  const SimTime deadline =
      sim.now() +
      retry_.request_timeout * static_cast<double>(retry_.max_attempts);
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    const SimTime window =
        std::min(retry_.request_timeout, deadline - sim.now());
    if (window <= 0.0) {
      // A clamped backoff landed exactly on the deadline: report the
      // timeout there rather than starting a zero-length attempt.
      ++fault_stats_.timeouts;
      ++fault_stats_.failed_requests;
      co_return;
    }
    const SimTime started = sim.now();
    if (co_await cluster.network().transfer_within(path, bytes, window)) {
      co_return;
    }
    ++fault_stats_.timeouts;
    fault_stats_.stalled_time += sim.now() - started;
    if (attempt + 1 >= retry_.max_attempts) {
      // Budget exhausted: abandon the payload (it was cancelled on the
      // wire) and let the rank carry on — a lost write, not a hang.
      ++fault_stats_.failed_requests;
      co_return;
    }
    ++fault_stats_.retries;
    co_await sim.delay(backoff_delay(retry_, attempt, retry_rng_,
                                     deadline - sim.now()));
  }
}

std::unique_ptr<FileSystem> make_filesystem(cloud::ClusterModel& cluster,
                                            const FsTuning& tuning) {
  const auto& substrate =
      plugin::filesystem_for(cluster.options().config.fs);
  auto fs = substrate.make(cluster, tuning);
  if (!fs) throw Error("filesystem plugin '" + substrate.name +
                       "' returned no model");
  fs->configure_fault_tolerance(tuning.retry, cluster.options().seed);
  return fs;
}

}  // namespace acic::fs
