// Observability layer: a process-wide metrics registry.
//
// Every long-lived subsystem (query service, simulation runner, file
// systems, training sweeps) reports into named instruments so that a
// production deployment — the ROADMAP's "heavy traffic" query service —
// can answer "what is this process doing?" without a debugger:
//
//  * Counter   — monotonically growing double (requests, bytes, hours).
//  * Gauge     — last-written value (queue depth, model age).
//  * Histogram — fixed upper-bound buckets + count + sum; the default
//                bucket sets cover request latencies (microseconds) and
//                simulated run times (seconds).
//  * Timer     — RAII guard observing its own lifetime into a Histogram.
//
// Hot-path writes are lock-free (relaxed atomics); a mutex guards only
// instrument *creation* and snapshotting.  Instrument references stay
// valid for the registry's lifetime, so callers hoist the name lookup out
// of their hot loops.  `snapshot()` returns a copy of every value that
// later updates cannot mutate (names and bucket bounds, fixed for an
// instrument's lifetime, are viewed rather than copied), renderable as
// text ("name value" lines, greppable like the query protocol) or as a
// CsvTable for offline analysis.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "acic/common/csv.hpp"
#include "acic/common/mutex.hpp"
#include "acic/common/thread_annotations.hpp"

namespace acic::obs {

class Counter {
 public:
  void inc() noexcept { add(1.0); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Default latency buckets, microseconds: 1us .. ~16s, powers of 4.
std::vector<double> latency_buckets_us();
/// Default duration buckets, seconds: 1ms .. ~4.5h, powers of 8.
std::vector<double> duration_buckets_s();

class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty; an
  /// implicit +inf overflow bucket is appended.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i counts observations <= bounds()[i]; bucket bounds().size()
  /// is the overflow bucket.
  std::uint64_t bucket(std::size_t i) const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// RAII timer: observes its own lifetime (microseconds of wall time) into
/// the sink histogram on destruction.
class Timer {
 public:
  explicit Timer(Histogram& sink)
      : sink_(&sink), start_(std::chrono::steady_clock::now()) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { sink_->observe(elapsed_us()); }

  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// `name` and `bounds` view the registry's instrument (both are fixed
/// for its lifetime), so a snapshot must not outlive its registry.
struct HistogramSnapshot {
  std::string_view name;
  std::span<const double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size()+1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Upper bound of the bucket containing quantile q (0..1); the last
  /// finite bound when q lands in the overflow bucket.  Ranks against
  /// the buckets' own total, not `count`: a snapshot taken while
  /// observe() runs can read a bucket before an observation lands in
  /// it and `count` after.
  double quantile(double q) const;
};

/// Instrument names view the registry: a snapshot must not outlive it.
struct MetricsSnapshot {
  std::vector<std::pair<std::string_view, double>> counters;
  std::vector<std::pair<std::string_view, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// "name value" / "name count=… sum=… p50=… p99=…" lines, one per
  /// instrument, sorted by name.  `indent` prefixes every line.
  std::string to_text(std::string_view indent = "") const;
  /// One row per instrument: name, kind, value, count, sum, mean, p50,
  /// p95, p99 (empty cells where a column does not apply).
  CsvTable to_csv() const;

  /// Lookup helpers (nullptr when absent) — for tests and assertions.
  const double* counter(std::string_view name) const;
  const double* gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

/// Named-instrument registry.  `global()` is the process-wide instance;
/// tests construct private registries for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Find-or-create.  Re-registering a name under a different kind (or a
  /// histogram under different bounds) throws acic::Error.  Returned
  /// references live as long as the registry.
  Counter& counter(const std::string& name) ACIC_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) ACIC_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_bounds =
                           latency_buckets_us()) ACIC_EXCLUDES(mutex_);

  /// Point-in-time copy of every instrument's values.
  MetricsSnapshot snapshot() const ACIC_EXCLUDES(mutex_);

  /// Zero every instrument (registered handles stay valid).  Meant for
  /// tests and between benchmark repetitions, not the serving path.
  void reset_all() ACIC_EXCLUDES(mutex_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void claim_name(const std::string& name, Kind kind) ACIC_REQUIRES(mutex_);

  // The mutex guards instrument *creation* and snapshotting only;
  // hot-path writes go through the returned references' relaxed
  // atomics and never take it.
  mutable Mutex mutex_;
  std::map<std::string, Kind> kinds_ ACIC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ACIC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      ACIC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ACIC_GUARDED_BY(mutex_);
};

}  // namespace acic::obs
