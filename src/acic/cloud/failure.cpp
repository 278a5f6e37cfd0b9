#include "acic/cloud/failure.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "acic/common/error.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::cloud {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kBrownout:
      return "brownout";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kPermanentLoss:
      return "permanent_loss";
    case FaultKind::kPreemption:
      return "preemption";
  }
  return "unknown";
}

bool FaultModel::valid() const {
  // The outage-shaping probabilities only ever apply to scheduled
  // outages: setting them without a nonzero outage rate is a config
  // error (silently inert knobs hide typos), not a no-op.
  if ((correlated_outage_probability > 0.0 ||
       permanent_loss_probability > 0.0) &&
      outages_per_hour <= 0.0) {
    return false;
  }
  return outages_per_hour >= 0.0 && brownouts_per_hour >= 0.0 &&
         stragglers_per_hour >= 0.0 && brownout_fraction >= 0.0 &&
         brownout_fraction < 1.0 && straggler_factor > 0.0 &&
         straggler_factor < 1.0 && correlated_outage_probability >= 0.0 &&
         correlated_outage_probability <= 1.0 &&
         permanent_loss_probability >= 0.0 &&
         permanent_loss_probability <= 1.0 && min_duration > 0.0 &&
         max_duration >= min_duration && preemptions_per_hour >= 0.0 &&
         preemption_notice >= 0.0;
}

FailureInjector::~FailureInjector() {
  if (faults_injected_ == 0 && events_cancelled_ == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cloud.faults.injected")
      .add(static_cast<double>(faults_injected_));
  registry.counter("cloud.fault_events_cancelled")
      .add(static_cast<double>(events_cancelled_));
}

std::vector<sim::ResourceId> FailureInjector::resources_for(
    const FaultSpec& spec) const {
  // Stragglers model a slow disk, so they always land device-side.
  const bool nic = spec.hit_nic && spec.kind != FaultKind::kStraggler;
  if (nic) {
    const int inst = cluster_.instance_of_server(spec.server);
    return {cluster_.nic_tx(inst), cluster_.nic_rx(inst)};
  }
  return {cluster_.device_read_resource(spec.server),
          cluster_.device_write_resource(spec.server)};
}

std::vector<sim::ResourceId> FailureInjector::server_resources(
    int server) const {
  // A reclamation takes the whole instance: both NIC directions plus the
  // storage device, so neither retries nor cached reads sneak through.
  const int inst = cluster_.instance_of_server(server);
  return {cluster_.nic_tx(inst), cluster_.nic_rx(inst),
          cluster_.device_read_resource(server),
          cluster_.device_write_resource(server)};
}

void FailureInjector::set_preemption_hooks(PreemptionHooks hooks) {
  hooks_ = std::move(hooks);
}

void FailureInjector::track(sim::EventId event, SimTime at) {
  pending_.emplace_back(event, at);
}

void FailureInjector::inject(const FaultSpec& spec) {
  ACIC_CHECK_MSG(spec.server >= 0 && spec.server < cluster_.num_io_servers(),
                 "fault targets unknown server " << spec.server);
  ACIC_CHECK(spec.at >= cluster_.simulator().now());
  if (spec.kind != FaultKind::kPermanentLoss &&
      spec.kind != FaultKind::kPreemption) {
    ACIC_CHECK(spec.duration > 0.0);
  }
  if (spec.kind == FaultKind::kBrownout ||
      spec.kind == FaultKind::kStraggler) {
    ACIC_CHECK_MSG(spec.fraction > 0.0 && spec.fraction < 1.0,
                   "degradation fraction " << spec.fraction
                                           << " outside (0, 1)");
  }

  auto& sim = cluster_.simulator();
  if (spec.kind == FaultKind::kPreemption) {
    // One notice and one reclaim event per fault (not per resource): the
    // hooks see a server, and the reclaim zeroes all of its resources in
    // a single step.
    ACIC_CHECK(spec.notice >= 0.0);
    const int server = spec.server;
    const SimTime reclaim_at = spec.at + spec.notice;
    track(sim.at(spec.at,
                 [this, server, reclaim_at] {
                   if (hooks_.on_notice) hooks_.on_notice(server, reclaim_at);
                 }),
          spec.at);
    track(sim.at(reclaim_at, [this, server] { reclaim_server(server); }),
          reclaim_at);
    ++scheduled_;
    ++faults_injected_;
    return;
  }
  for (auto r : resources_for(spec)) {
    switch (spec.kind) {
      case FaultKind::kOutage:
        track(sim.at(spec.at, [this, r] { begin_outage(r); }), spec.at);
        track(sim.at(spec.at + spec.duration, [this, r] { end_outage(r); }),
              spec.at + spec.duration);
        break;
      case FaultKind::kBrownout:
      case FaultKind::kStraggler: {
        const double f = spec.fraction;
        track(sim.at(spec.at, [this, r, f] { begin_degradation(r, f); }),
              spec.at);
        track(
            sim.at(spec.at + spec.duration,
                   [this, r, f] { end_degradation(r, f); }),
            spec.at + spec.duration);
        break;
      }
      case FaultKind::kPermanentLoss:
        track(sim.at(spec.at, [this, r] { mark_permanent(r); }), spec.at);
        break;
      case FaultKind::kPreemption:
        break;  // handled above (whole-server, not per-resource)
    }
  }
  ++scheduled_;
  ++faults_injected_;
}

void FailureInjector::inject_correlated(SimTime at, SimTime duration,
                                        bool hit_nic) {
  for (int server = 0; server < cluster_.num_io_servers(); ++server) {
    FaultSpec spec;
    spec.kind = FaultKind::kOutage;
    spec.server = server;
    spec.at = at;
    spec.duration = duration;
    spec.hit_nic = hit_nic;
    inject(spec);
  }
}

void FailureInjector::inject_random(Rng& rng, const FaultModel& model,
                                    SimTime horizon) {
  ACIC_CHECK_MSG(model.valid(), "invalid fault model");
  if (!model.any()) return;
  const SimTime start = cluster_.simulator().now();
  const auto servers = static_cast<std::uint64_t>(
      std::max(1, cluster_.num_io_servers()));

  // Each fault class is an independent Poisson stream (exponential
  // inter-arrival gaps).  Draw order within a stream is fixed —
  // gap, duration, side, server, [escalation] — so a given Rng state
  // always yields the same schedule.
  const auto schedule_stream = [&](double per_hour, auto&& emit) {
    if (per_hour <= 0.0) return;
    const double mean_gap = kHour / per_hour;
    SimTime t = start;
    while (true) {
      t += -mean_gap * std::log(1.0 - rng.uniform());
      if (t >= horizon) break;
      emit(t);
    }
  };

  schedule_stream(model.outages_per_hour, [&](SimTime t) {
    const SimTime duration =
        rng.uniform(model.min_duration, model.max_duration);
    const bool hit_nic = rng.uniform() < 0.5;
    if (model.correlated_outage_probability > 0.0 &&
        rng.uniform() < model.correlated_outage_probability) {
      inject_correlated(t, duration, hit_nic);
      return;
    }
    FaultSpec spec;
    spec.server = static_cast<int>(rng.uniform_index(servers));
    spec.at = t;
    spec.duration = duration;
    spec.hit_nic = hit_nic;
    if (model.permanent_loss_probability > 0.0 &&
        rng.uniform() < model.permanent_loss_probability) {
      spec.kind = FaultKind::kPermanentLoss;
    }
    inject(spec);
  });

  schedule_stream(model.brownouts_per_hour, [&](SimTime t) {
    FaultSpec spec;
    spec.kind = FaultKind::kBrownout;
    spec.duration = rng.uniform(model.min_duration, model.max_duration);
    spec.hit_nic = rng.uniform() < 0.5;
    spec.server = static_cast<int>(rng.uniform_index(servers));
    spec.at = t;
    spec.fraction = model.brownout_fraction;
    inject(spec);
  });

  schedule_stream(model.stragglers_per_hour, [&](SimTime t) {
    FaultSpec spec;
    spec.kind = FaultKind::kStraggler;
    // Slow disks linger: straggler windows are drawn from a 4x-stretched
    // range so they dominate a request's lifetime instead of flickering.
    spec.duration =
        rng.uniform(model.min_duration, model.max_duration) * 4.0;
    spec.server = static_cast<int>(rng.uniform_index(servers));
    spec.at = t;
    spec.fraction = model.straggler_factor;
    inject(spec);
  });

  // The preemption stream is appended *after* the legacy streams so every
  // pre-preemption seeded schedule stays bit-identical.  The model's rate
  // is per server (each I/O server is its own spot instance), so the
  // aggregate stream scales with the server count — a 4-server array is
  // four times as exposed as the NFS box, which is exactly the trade-off
  // the restart-aware objective has to weigh.
  schedule_stream(
      model.preemptions_per_hour * static_cast<double>(servers),
      [&](SimTime t) {
        FaultSpec spec;
        spec.kind = FaultKind::kPreemption;
        spec.server = static_cast<int>(rng.uniform_index(servers));
        spec.at = t;
        spec.notice = model.preemption_notice;
        inject(spec);
      });
}

std::size_t FailureInjector::cancel_pending() {
  auto& sim = cluster_.simulator();
  const SimTime now = sim.now();
  std::size_t cancelled = 0;
  for (const auto& [event, at] : pending_) {
    // Events strictly in the past have fired; same-timestamp ones may
    // not have, so >= keeps any straggling restore from resurrecting a
    // fault after we force-restore below.
    if (at >= now) {
      sim.cancel(event);
      ++cancelled;
    }
  }
  pending_.clear();
  // Force still-faulted resources back to their exact originals so the
  // caller's post-run accounting sees pre-fault capacities.
  for (auto it = active_.begin(); it != active_.end();
       it = active_.erase(it)) {
    cluster_.network().set_capacity(it->first, it->second.original);
  }
  events_cancelled_ += cancelled;
  return cancelled;
}

FailureInjector::ResourceState& FailureInjector::state_of(
    sim::ResourceId id) {
  auto it = active_.find(id);
  if (it == active_.end()) {
    ResourceState st;
    st.original = cluster_.network().capacity(id);
    it = active_.emplace(id, st).first;
  }
  return it->second;
}

void FailureInjector::begin_outage(sim::ResourceId id) {
  ++state_of(id).outages;
  apply(id);
}

void FailureInjector::end_outage(sim::ResourceId id) {
  auto it = active_.find(id);
  ACIC_CHECK(it != active_.end() && it->second.outages > 0);
  --it->second.outages;
  apply(id);
}

void FailureInjector::begin_degradation(sim::ResourceId id, double fraction) {
  state_of(id).degradations.push_back(fraction);
  apply(id);
}

void FailureInjector::end_degradation(sim::ResourceId id, double fraction) {
  auto it = active_.find(id);
  ACIC_CHECK(it != active_.end());
  auto& degs = it->second.degradations;
  const auto pos = std::find(degs.begin(), degs.end(), fraction);
  ACIC_CHECK(pos != degs.end());
  degs.erase(pos);
  apply(id);
}

void FailureInjector::mark_permanent(sim::ResourceId id) {
  state_of(id).permanent = true;
  apply(id);
}

void FailureInjector::reclaim_server(int server) {
  for (auto r : server_resources(server)) {
    ++state_of(r).preempted;
    apply(r);
  }
  if (hooks_.on_reclaim) hooks_.on_reclaim(server);
}

void FailureInjector::restore_server(int server) {
  for (auto r : server_resources(server)) {
    const auto it = active_.find(r);
    // cancel_pending() (job already over) may have force-restored the
    // resource; a late restore must then stay a no-op.
    if (it == active_.end() || it->second.preempted == 0) continue;
    --it->second.preempted;
    apply(r);
  }
}

void FailureInjector::apply(sim::ResourceId id) {
  const auto it = active_.find(id);
  ACIC_CHECK(it != active_.end());
  const ResourceState& st = it->second;
  // Always derive from `original` (never scale the live value): overlap
  // in any order restores the exact pre-fault capacity, jitter included.
  double effective = 0.0;
  if (!st.permanent && st.outages == 0 && st.preempted == 0) {
    effective = st.original;
    for (double f : st.degradations) effective *= f;
  }
  cluster_.network().set_capacity(id, effective);
  if (!st.permanent && st.outages == 0 && st.preempted == 0 &&
      st.degradations.empty()) {
    active_.erase(it);  // fully healed: forget, original restored exactly
  }
}

}  // namespace acic::cloud

namespace acic::plugin {

// Named chaos presets.  `simulate chaos=<name>` and the CLI --chaos flag
// resolve these; explicit failure knobs still override field by field.
std::vector<FaultModelPlugin> fault_presets() {
  using cloud::FaultModel;
  return {
      {"none", FaultModel{}},
      // Hard server outages, full recovery.
      {"outages", FaultModel{.outages_per_hour = 4.0}},
      // Partial capacity loss episodes.
      {"brownouts",
       FaultModel{.brownouts_per_hour = 6.0, .brownout_fraction = 0.2}},
      // Slow-node episodes (noisy neighbours).
      {"stragglers",
       FaultModel{.stragglers_per_hour = 3.0, .straggler_factor = 0.35}},
      // Correlated outages with occasional permanent loss.
      {"lossy-az", FaultModel{.outages_per_hour = 2.0,
                              .correlated_outage_probability = 0.5,
                              .permanent_loss_probability = 0.1}},
      // Spot reclamations: notice, whole-server loss, replacement restart
      // (the rate is per server-hour).
      {"spot-preempt", FaultModel{.preemptions_per_hour = 1.0,
                                  .preemption_notice = 120.0}},
  };
}

}  // namespace acic::plugin
