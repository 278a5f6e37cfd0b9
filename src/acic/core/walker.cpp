#include "acic/core/walker.hpp"

#include <limits>
#include <map>
#include <string>

#include "acic/common/error.hpp"
#include "acic/core/training.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::core {

namespace {

/// Repair that gives the dimension being walked priority: probing
/// "4 I/O servers" or "a 4 MiB stripe" from an NFS point implies
/// switching to the parallel file system, not reverting the probe.
/// Without this, greedy walking can never leave NFS when the server
/// dimension is ranked ahead of the file-system dimension.
Point pinned_repair(Point p, Dim pinned) {
  const bool nfs = p[kFileSystem] < 0.5;
  if (nfs && pinned == kIoServers && p[kIoServers] > 1.5) {
    p[kFileSystem] = 1;  // PVFS2
  }
  if (nfs && pinned == kStripeSize && p[kStripeSize] > 0.0) {
    p[kFileSystem] = 1;
  }
  if (p[kFileSystem] > 0.5 && p[kStripeSize] <= 0.0) {
    // Freshly switched to the parallel FS: start from its common 4 MiB
    // default stripe rather than grid-snapping 0 to the 64 KiB end.
    p[kStripeSize] = 4.0 * MiB;
  }
  return ParamSpace::repaired(p);
}

/// One greedy pass over `order` starting from `start`, measuring through
/// `measure` (which owns caching and probe accounting).
template <typename Measure>
std::pair<Point, double> greedy_pass(Measure&& measure, Point start,
                                     const std::vector<Dim>& order) {
  Point current = start;
  double best = measure(ParamSpace::config_of(current));
  for (Dim d : order) {
    Point best_point = current;
    for (double v : ParamSpace::dimension(d).values) {
      Point candidate = current;
      candidate[d] = v;
      candidate = pinned_repair(candidate, d);
      const double measured = measure(ParamSpace::config_of(candidate));
      if (measured < best) {
        best = measured;
        best_point = candidate;
      }
    }
    current = best_point;  // fix this dimension, move to the next
  }
  return {current, best};
}

}  // namespace

std::vector<Dim> SpaceWalker::system_dims() {
  return {kDevice, kFileSystem, kInstanceType,
          kIoServers, kPlacement, kStripeSize};
}

std::vector<Dim> SpaceWalker::system_dims_ranked(
    const std::vector<int>& full_ranking) {
  std::vector<Dim> order;
  for (int d : full_ranking) {
    for (Dim s : system_dims()) {
      if (d == s) order.push_back(s);
    }
  }
  ACIC_CHECK_MSG(order.size() == system_dims().size(),
                 "ranking does not cover all system dimensions");
  return order;
}

SpaceWalker::Result SpaceWalker::walk(const Probe& probe,
                                      const std::vector<Dim>& order) {
  return walk_converged(probe, order, /*max_passes=*/1);
}

SpaceWalker::Result SpaceWalker::walk_converged(const Probe& probe,
                                                const std::vector<Dim>& order,
                                                int max_passes) {
  ACIC_CHECK(!order.empty());
  ACIC_CHECK(max_passes >= 1);

  Result result;
  std::map<std::string, double> cache;
  std::uint64_t cache_hits = 0;
  auto measure = [&](const cloud::IoConfig& cfg) {
    const std::string key = cfg.label();
    auto it = cache.find(key);
    if (it != cache.end()) {
      ++cache_hits;
      return it->second;
    }
    const double v = probe(cfg);
    cache[key] = v;
    ++result.probes;
    return v;
  };

  // s0: the baseline configuration; greedy passes until converged (or
  // `max_passes`).
  Point current = ParamSpace::encode(cloud::IoConfig::baseline(),
                                     ParamSpace::workload_of(default_point()));
  double best = 0.0;
  for (int pass = 0; pass < max_passes; ++pass) {
    auto [next, next_best] = greedy_pass(measure, current, order);
    const bool converged =
        pass > 0 && ParamSpace::config_of(next).label() ==
                        ParamSpace::config_of(current).label();
    current = next;
    best = next_best;
    if (converged) break;
  }

  result.best = ParamSpace::config_of(current);
  result.best_measure = best;

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("walker.probes").add(static_cast<double>(result.probes));
  registry.counter("walker.probe_cache_hits")
      .add(static_cast<double>(cache_hits));
  return result;
}

SpaceWalker::Result SpaceWalker::random_walk(const Probe& probe, Rng& rng) {
  auto dims = system_dims();
  const auto perm = rng.permutation(dims.size());
  std::vector<Dim> order;
  order.reserve(dims.size());
  for (std::size_t i : perm) order.push_back(dims[i]);
  return walk(probe, order);
}

}  // namespace acic::core
