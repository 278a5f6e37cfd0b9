#include "acic/io/checkpoint.hpp"

#include <algorithm>

#include "acic/common/error.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::io {
namespace {

/// Checkpoint dumps go through the file system in a bounded number of
/// back-to-back chunks (same event-count discipline as the middleware's
/// kMaxChunksPerPhase): enough pieces that a retrying client can make
/// progress across per-request deadlines, few enough that a 60 GiB dump
/// does not flood the event queue.
constexpr int kDumpChunks = 8;

}  // namespace

bool CheckpointPolicy::valid() const {
  // Each tick re-arms at now + interval, so the floor bounds the tick
  // count of a run; the preemption model clamps its interval the same way.
  return interval >= kMinInterval && bytes >= 0.0 && max_restarts >= 0 &&
         replacement_delay_min >= 0.0 &&
         replacement_delay_max >= replacement_delay_min;
}

CheckpointManager::CheckpointManager(cloud::ClusterModel& cluster,
                                     fs::FileSystem& filesystem,
                                     cloud::FailureInjector& injector,
                                     const CheckpointPolicy& policy,
                                     std::uint64_t seed)
    : cluster_(cluster),
      fs_(filesystem),
      injector_(injector),
      policy_(policy),
      // Decorrelate the replacement-delay stream from the fault schedule
      // and the jitter streams without introducing a new seed knob.
      rng_(seed ^ 0x5c0775c0775ULL) {
  ACIC_CHECK_MSG(policy_.valid(), "invalid checkpoint policy");
}

void CheckpointManager::start(int ranks) {
  ranks_running_ = ranks;
  app_done_ = ranks <= 0;
  cloud::PreemptionHooks hooks;
  hooks.on_notice = [this](int server, SimTime reclaim_at) {
    on_notice(server, reclaim_at);
  };
  hooks.on_reclaim = [this](int server) { on_reclaim(server); };
  injector_.set_preemption_hooks(std::move(hooks));
  if (checkpointing()) schedule_tick();
}

sim::Task CheckpointManager::observe_rank(sim::Task inner) {
  co_await std::move(inner);
  if (--ranks_running_ <= 0) app_done_ = true;
}

std::size_t CheckpointManager::finish() {
  auto& sim = cluster_.simulator();
  const SimTime now = sim.now();
  std::size_t cancelled = 0;
  for (const auto& [event, at] : pending_) {
    // Same >= rule as the injector: a same-timestamp tick/restore may
    // not have fired yet and must not outlive the job.
    if (at >= now) {
      sim.cancel(event);
      ++cancelled;
    }
  }
  pending_.clear();
  app_done_ = true;
  return cancelled;
}

void CheckpointManager::schedule_tick() {
  auto& sim = cluster_.simulator();
  const SimTime at = sim.now() + policy_.interval;
  track(sim.at(at,
               [this] {
                 if (app_done_) return;
                 // Skip (don't queue) a tick that lands while the
                 // previous dump is still draining: back-to-back dumps
                 // of identical state buy no extra durability.
                 if (!write_in_flight_) {
                   cluster_.simulator().spawn(write_checkpoint());
                 }
                 schedule_tick();
               }),
        at);
}

sim::Task CheckpointManager::write_checkpoint() {
  write_in_flight_ = true;
  const Bytes per = policy_.bytes / static_cast<double>(kDumpChunks);
  for (int i = 0; i < kDumpChunks; ++i) {
    co_await fs_.request(/*rank=*/0, per, /*is_write=*/true,
                         /*shared_file=*/true);
  }
  // Durable only once every chunk landed: a dump cut short by the
  // reclaim it was racing leaves last_durable_ at the previous dump.
  last_durable_ = cluster_.simulator().now();
  ++stats_.checkpoint_writes;
  stats_.checkpoint_bytes += policy_.bytes;
  write_in_flight_ = false;
}

sim::Task CheckpointManager::restore_read() {
  const Bytes per = policy_.bytes / static_cast<double>(kDumpChunks);
  for (int i = 0; i < kDumpChunks; ++i) {
    co_await fs_.request(/*rank=*/0, per, /*is_write=*/false,
                         /*shared_file=*/true);
  }
  ++stats_.restores;
}

void CheckpointManager::on_notice(int /*server*/, SimTime /*reclaim_at*/) {
  if (app_done_ || !checkpointing() || write_in_flight_) return;
  ++stats_.urgent_checkpoints;
  cluster_.simulator().spawn(write_checkpoint());
}

void CheckpointManager::on_reclaim(int server) {
  ++stats_.preemptions;
  if (app_done_) {
    // The job already drained; hand the server straight back so the
    // post-run force-restore accounting stays exact.
    injector_.restore_server(server);
    return;
  }
  if (static_cast<int>(stats_.restarts) >= policy_.max_restarts) {
    // Budget exhausted: the server stays dark, in-flight I/O through it
    // never completes, and the runner's watchdog grades the run failed.
    stats_.gave_up = true;
    return;
  }
  ++stats_.restarts;
  auto& sim = cluster_.simulator();
  const SimTime lost =
      std::max(sim.now() - std::max(last_durable_, 0.0), 0.0);
  stats_.lost_sim_time += lost;
  // Replacement acquisition is a seeded draw; the replay of the work lost
  // since the last durable checkpoint is modelled as extending the
  // suppression window by `lost` (the replacement recomputes it while the
  // server's NIC and device stay dark to the rest of the job).
  const SimTime acquire = rng_.uniform(policy_.replacement_delay_min,
                                       policy_.replacement_delay_max);
  const SimTime back_at = sim.now() + acquire + lost;
  track(sim.at(back_at,
               [this, server] {
                 injector_.restore_server(server);
                 if (!app_done_ && checkpointing() && last_durable_ > 0.0) {
                   cluster_.simulator().spawn(restore_read());
                 }
               }),
        back_at);
}

void CheckpointManager::track(sim::EventId event, SimTime at) {
  pending_.emplace_back(event, at);
}

}  // namespace acic::io
