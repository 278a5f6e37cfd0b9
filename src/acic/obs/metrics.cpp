#include "acic/obs/metrics.hpp"

#include <algorithm>

#include "acic/common/check.hpp"
#include "acic/common/text.hpp"

namespace acic::obs {

namespace {

std::string format_double(double v) {
  TextWriter text(16);
  text << v;
  return std::move(text).str();
}

std::vector<double> geometric_buckets(double first, double ratio, int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n));
  double b = first;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= ratio;
  }
  return bounds;
}

}  // namespace

std::vector<double> latency_buckets_us() {
  // 1us, 4us, 16us, ... ~17s: 13 buckets spanning sub-cache-hit to
  // "the model retrained inside the request".
  return geometric_buckets(1.0, 4.0, 13);
}

std::vector<double> duration_buckets_s() {
  // 1ms, 8ms, 64ms, ... ~4.5h: simulated job wall times.
  return geometric_buckets(1e-3, 8.0, 8);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  ACIC_EXPECTS(!bounds_.empty(), "histogram needs at least one bucket bound");
  ACIC_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  ACIC_EXPECTS(i <= bounds_.size(), "bucket index " << i << " out of range");
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  ACIC_EXPECTS(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0, 1]");
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

std::string MetricsSnapshot::to_text(std::string_view indent) const {
  TextWriter out(64 * (counters.size() + gauges.size()) +
                 128 * histograms.size());
  for (const auto& [name, value] : counters) {
    out << indent << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    out << indent << name << ' ' << value << '\n';
  }
  for (const auto& h : histograms) {
    out << indent << h.name << " count=" << static_cast<double>(h.count)
        << " sum=" << h.sum << " mean=" << h.mean()
        << " p50=" << h.quantile(0.5) << " p99=" << h.quantile(0.99) << '\n';
  }
  return std::move(out).str();
}

CsvTable MetricsSnapshot::to_csv() const {
  CsvTable t;
  t.header = {"name", "kind", "value", "count", "sum", "mean", "p50", "p95",
              "p99"};
  for (const auto& [name, value] : counters) {
    t.rows.push_back({std::string(name), "counter", format_double(value), "",
                      "", "", "", "", ""});
  }
  for (const auto& [name, value] : gauges) {
    t.rows.push_back({std::string(name), "gauge", format_double(value), "",
                      "", "", "", "", ""});
  }
  for (const auto& h : histograms) {
    t.rows.push_back({std::string(h.name), "histogram", "",
                      std::to_string(h.count),
                      format_double(h.sum), format_double(h.mean()),
                      format_double(h.quantile(0.5)),
                      format_double(h.quantile(0.95)),
                      format_double(h.quantile(0.99))});
  }
  return t;
}

const double* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.first == name) return &c.second;
  }
  return nullptr;
}

const double* MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.first == name) return &g.second;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::claim_name(const std::string& name, Kind kind) {
  ACIC_EXPECTS(!name.empty(), "metric needs a non-empty name");
  const auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw Error("metric '" + name + "' already registered as another kind");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mutex_);
  claim_name(name, Kind::kCounter);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mutex_);
  claim_name(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& upper_bounds) {
  MutexLock lock(&mutex_);
  claim_name(name, Kind::kHistogram);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(upper_bounds);
  } else if (slot->bounds() != upper_bounds) {
    throw Error("histogram '" + name + "' re-registered with different bounds");
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(&mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets.resize(hs.bounds.size() + 1);
    for (std::size_t i = 0; i < hs.buckets.size(); ++i) {
      hs.buckets[i] = h->bucket(i);
    }
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::reset_all() {
  MutexLock lock(&mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace acic::obs
