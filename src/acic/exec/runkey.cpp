#include "acic/exec/runkey.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "acic/fs/nfs.hpp"
#include "acic/fs/striped.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::exec {

namespace {

/// Fingerprint schema version.  Bump whenever the serialization below
/// changes meaning — old persistent stores then simply miss rather than
/// serve rows computed under different semantics.
constexpr const char* kVersionTag = "acic.exec.runkey.v1";

/// Builds the canonical tagged serialization.  Doubles are hashed by
/// their IEEE-754 bit pattern so that no decimal-formatting choice can
/// split (or merge) keys; -0.0 is normalised to +0.0 and every NaN to one
/// quiet-NaN pattern so equal-behaving inputs stay equal-keyed.
class Canonicalizer {
 public:
  Canonicalizer() { text_.reserve(512); }

  void field(std::string_view tag, double v) {
    if (v == 0.0) v = 0.0;  // -0.0 -> +0.0
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    raw(tag, std::bit_cast<std::uint64_t>(v));
  }
  void field(std::string_view tag, std::uint64_t v) { raw(tag, v); }
  void field(std::string_view tag, int v) {
    raw(tag, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void field(std::string_view tag, bool v) { raw(tag, v ? 1u : 0u); }
  void mark(const char* tag) {
    text_ += tag;
    text_ += ';';
  }

  std::string str() && { return std::move(text_); }

 private:
  void raw(std::string_view tag, std::uint64_t bits) {
    // Byte-identical to the old "%s=%016llx;" rendering, minus the
    // fixed tag-length cap (plugin knob tags are caller-controlled).
    text_ += tag;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "=%016llx;",
                  static_cast<unsigned long long>(bits));
    text_ += buf;
  }

  std::string text_;
};

std::uint64_t fnv1a(std::string_view text, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string RunKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<RunKey> RunKey::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  auto parse_half = [](std::string_view half) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    for (char c : half) {
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
    }
    return v;
  };
  const auto hi = parse_half(text.substr(0, 16));
  const auto lo = parse_half(text.substr(16, 16));
  if (!hi || !lo) return std::nullopt;
  return RunKey{*hi, *lo};
}

std::string canonical_run_fingerprint(const io::Workload& workload,
                                      const cloud::IoConfig& config,
                                      const io::RunOptions& options) {
  Canonicalizer c;
  c.mark(kVersionTag);

  // --- Configuration (system half) ----------------------------------
  // Canonicalization: the stripe size is meaningless (and normalised to
  // zero) outside the parallel file systems.  The RAID member count is
  // derived from device and instance.
  c.field("cfg.device", static_cast<int>(config.device));
  c.field("cfg.fs", static_cast<int>(config.fs));
  c.field("cfg.instance", static_cast<int>(config.instance));
  c.field("cfg.servers", config.io_servers);
  c.field("cfg.placement", static_cast<int>(config.placement));
  c.field("cfg.stripe", plugin::filesystem_for(config.fs).single_server
                            ? 0.0
                            : config.stripe_size);
  c.field("cfg.raid", config.effective_raid_members());

  // --- Workload (application half) -----------------------------------
  // Hash the *normalized* shape: run_workload normalizes before
  // simulating, so a pre-normalized and a raw spelling behave the same.
  // Workload::name is a display label and is deliberately excluded.
  io::Workload w = workload;
  w.normalize();
  c.field("w.np", w.num_processes);
  c.field("w.io_procs", w.num_io_processes);
  c.field("w.interface", static_cast<int>(w.interface));
  c.field("w.iterations", w.iterations);
  c.field("w.data", w.data_size);
  c.field("w.request", w.request_size);
  c.field("w.op", static_cast<int>(w.op));
  c.field("w.collective", w.collective);
  c.field("w.shared", w.file_shared);
  c.field("w.compute", w.compute_per_iteration);
  c.field("w.comm", w.comm_per_iteration);

  // --- Behaviour-relevant run options --------------------------------
  c.field("o.seed", options.seed);
  c.field("o.jitter", options.jitter_sigma);
  c.field("o.watchdog", options.watchdog_sim_time);

  // Inert fault sub-blocks are skipped: probabilities that only shape
  // outages cannot split keys when no outage is ever scheduled.
  const cloud::FaultModel& faults = options.fault_model;
  if (faults.outages_per_hour > 0.0) {
    c.field("f.outages", faults.outages_per_hour);
    c.field("f.correlated", faults.correlated_outage_probability);
    c.field("f.permanent", faults.permanent_loss_probability);
  }
  if (faults.brownouts_per_hour > 0.0) {
    c.field("f.brownouts", faults.brownouts_per_hour);
    c.field("f.brownout_fraction", faults.brownout_fraction);
  }
  if (faults.stragglers_per_hour > 0.0) {
    c.field("f.stragglers", faults.stragglers_per_hour);
    c.field("f.straggler_factor", faults.straggler_factor);
  }
  if (faults.preemptions_per_hour > 0.0) {
    c.field("f.preemptions", faults.preemptions_per_hour);
    c.field("f.preempt_notice", faults.preemption_notice);
  }
  if (faults.any()) {
    // Constant window bounds, kept in RunKey v1's frozen field list.
    c.field("f.min_duration", cloud::FaultModel::kMinDuration);
    c.field("f.max_duration", cloud::FaultModel::kMaxDuration);
  }

  // Checkpoint/restart policy folds in only once it can affect the run
  // (periodic dumps armed, or preemptions needing the recovery half);
  // the inert default contributes zero bytes, keeping pre-checkpoint
  // keys bit-identical.
  const io::CheckpointPolicy& ck = options.checkpoint;
  if (ck.enabled || faults.preemptions_per_hour > 0.0) {
    c.mark("ck.v1");
    c.field("ck.enabled", ck.enabled);
    c.field("ck.interval", ck.interval);
    c.field("ck.bytes", ck.bytes);
    c.field("ck.max_restarts", ck.max_restarts);
    c.field("ck.delay_min", ck.replacement_delay_min);
    c.field("ck.delay_max", ck.replacement_delay_max);
  }

  // File-system costs.  RunKey v1's field list is frozen: the NFS and
  // PVFS2 software costs hash their substrate constants under the v1
  // tags; the cache size and the per-stripe CPU come from the run.
  const fs::FsTuning& t = options.tuning;
  c.field("t.nfs_client", fs::NfsModel::kClientOverhead);
  c.field("t.nfs_server", fs::NfsModel::kServerOverhead);
  c.field("t.nfs_wlat", fs::NfsModel::kWriteLatencyFactor);
  c.field("t.nfs_shared_pen", fs::NfsModel::kSharedWritePenalty);
  c.field("t.nfs_open", fs::NfsModel::kOpenCost);
  c.field("t.nfs_close", fs::NfsModel::kCloseCost);
  c.field("t.nfs_cache", t.nfs_cache_fraction);
  c.field("t.pvfs_client", fs::kPvfs2Costs.client_overhead);
  c.field("t.pvfs_server", fs::kPvfs2Costs.server_overhead);
  c.field("t.pvfs_stripe_cpu", t.pvfs_per_stripe_cpu);
  c.field("t.pvfs_wlat", fs::kPvfs2Costs.write_latency_factor);
  c.field("t.pvfs_rlat", fs::kPvfs2Costs.read_latency_factor);
  c.field("t.pvfs_mds", fs::kPvfs2Costs.open_cost);

  // Retry shape only matters once the policy is armed (disabled keeps
  // the legacy wait-forever semantics bit-for-bit).  The deadline.v2
  // mark versions the total-deadline clamp semantics: armed-retry rows
  // computed under the old overshooting backoff miss rather than serve.
  if (t.retry.enabled) {
    c.mark("r.enabled");
    c.mark("r.deadline.v2");
    c.field("r.timeout", t.retry.request_timeout);
    c.field("r.attempts", t.retry.max_attempts);
    c.field("r.base", t.retry.backoff_base);
    c.field("r.mult", t.retry.backoff_multiplier);
    c.field("r.cap", t.retry.backoff_cap);
    c.field("r.jitter", t.retry.backoff_jitter);
  }

  if (options.spot_pricing) {
    const cloud::SpotPricing& s = *options.spot_pricing;
    c.mark("p.spot");
    c.field("p.spot_factor", s.price_factor);
    c.field("p.spot_restart", s.per_restart_cost);
  } else if (options.detailed_pricing) {
    // Constant 2013 EBS rates, kept in RunKey v1's frozen field list.
    using cloud::DetailedPricing;
    c.mark("p.detailed");
    c.field("p.gb_month", DetailedPricing::kEbsGbMonth);
    c.field("p.per_mio", DetailedPricing::kEbsPerMillionIos);
    c.field("p.volume", DetailedPricing::kEbsVolumeSize);
    c.field("p.hours", DetailedPricing::kHoursPerMonth);
  } else {
    c.mark("p.eq1");
  }

  return std::move(c).str();
}

RunKey run_key(const io::Workload& workload, const cloud::IoConfig& config,
               const io::RunOptions& options) {
  const std::string canon =
      canonical_run_fingerprint(workload, config, options);
  // Two independent FNV-1a streams give a 128-bit address; collisions at
  // cache scale (millions of runs) are then vanishingly unlikely.
  return RunKey{fnv1a(canon, 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL),
                fnv1a(canon, 14695981039346656037ULL)};
}

}  // namespace acic::exec
